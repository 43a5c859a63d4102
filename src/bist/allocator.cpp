#include "bist/allocator.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <utility>

#include "bist/sessions.hpp"
#include "obs/events.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"

namespace lbist {

namespace {

using StateKey = std::string;  // one byte of RoleFlags per register

StateKey apply_embedding(const StateKey& state, const BistEmbedding& e) {
  StateKey next = state;
  auto set_flags = [&](std::size_t reg, bool tpg, bool sa) {
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[reg]));
    f.tpg = f.tpg || tpg;
    f.sa = f.sa || sa;
    next[reg] = static_cast<char>(f.encode());
  };
  set_flags(e.tpg_left, true, false);
  set_flags(e.tpg_right, true, false);
  if (e.sa.has_value()) {
    if (e.needs_cbilbo()) {
      RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(next[*e.sa]));
      f.tpg = true;
      f.sa = true;
      f.cbilbo = true;
      next[*e.sa] = static_cast<char>(f.encode());
    } else {
      set_flags(*e.sa, false, true);
    }
  }
  return next;
}

/// Objective change `cost_of(apply_embedding(state, e)) -
/// cost_of(state)`, computed from the (up to three) touched registers
/// without copying the state.  All three components are non-negative
/// whenever the model is flag-monotone (flags only accumulate), and role
/// extras are small multiples of the bit width, so comparing deltas is
/// exactly equivalent to comparing the absolute tuples.
std::tuple<double, int, int> delta_of(const StateKey& state,
                                      const BistEmbedding& e,
                                      const AreaModel& model) {
  std::size_t touched[3];
  std::size_t count = 0;
  auto add_unique = [&](std::size_t reg) {
    for (std::size_t i = 0; i < count; ++i) {
      if (touched[i] == reg) return;
    }
    touched[count++] = reg;
  };
  add_unique(e.tpg_left);
  add_unique(e.tpg_right);
  if (e.sa.has_value()) add_unique(*e.sa);

  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t reg = touched[i];
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(state[reg]));
    RoleFlags next = f;
    if (reg == e.tpg_left || reg == e.tpg_right) next.tpg = true;
    if (e.sa.has_value() && reg == *e.sa) {
      next.sa = true;
      if (e.needs_cbilbo()) {
        next.tpg = true;
        next.cbilbo = true;
      }
    }
    const BistRole before = f.role();
    const BistRole after = next.role();
    if (before == after) continue;
    area += model.role_extra(after) - model.role_extra(before);
    cbilbos += (after == BistRole::Cbilbo ? 1 : 0) -
               (before == BistRole::Cbilbo ? 1 : 0);
    modified += (after != BistRole::None ? 1 : 0) -
                (before != BistRole::None ? 1 : 0);
  }
  return {area, cbilbos, modified};
}

/// (extra_area, #cbilbo, #modified): the lexicographic objective.
std::tuple<double, int, int> cost_of(const StateKey& state,
                                     const AreaModel& model) {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (char c : state) {
    const BistRole role =
        RoleFlags::decode(static_cast<std::uint8_t>(c)).role();
    area += model.role_extra(role);
    if (role == BistRole::Cbilbo) ++cbilbos;
    if (role != BistRole::None) ++modified;
  }
  return {area, cbilbos, modified};
}

/// True if adding role flags never decreases `role_extra` — the property
/// that makes a state's own area an admissible bound on every completion.
/// Holds for the default model (None <= Tpg/Sa <= TpgSa <= Cbilbo) but a
/// custom AreaModel may break it, in which case pruning is disabled.
bool area_flag_monotone(const AreaModel& model) {
  const double none = model.role_extra(BistRole::None);
  const double tpg = model.role_extra(BistRole::Tpg);
  const double sa = model.role_extra(BistRole::Sa);
  const double bilbo = model.role_extra(BistRole::TpgSa);
  const double cbilbo = model.role_extra(BistRole::Cbilbo);
  return none <= tpg && none <= sa && tpg <= bilbo && sa <= bilbo &&
         bilbo <= cbilbo;
}

std::vector<BistRole> roles_of(const StateKey& state) {
  std::vector<BistRole> roles;
  roles.reserve(state.size());
  for (char c : state) {
    roles.push_back(RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
  }
  return roles;
}

}  // namespace

RoleCounts BistSolution::counts() const {
  RoleCounts c;
  for (BistRole r : roles) {
    switch (r) {
      case BistRole::None: break;
      case BistRole::Tpg: ++c.tpg; break;
      case BistRole::Sa: ++c.sa; break;
      case BistRole::TpgSa: ++c.tpg_sa; break;
      case BistRole::Cbilbo: ++c.cbilbo; break;
    }
  }
  return c;
}

std::string RoleCounts::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto item = [&](int n, const char* label) {
    if (n == 0) return;
    if (!first) os << ", ";
    os << n << " " << label;
    first = false;
  };
  item(cbilbo, "CBILBO");
  item(tpg_sa, "TPG/SA");
  item(tpg, "TPG");
  item(sa, "SA");
  if (first) os << "none";
  return os.str();
}

double BistSolution::overhead_percent(const Datapath& dp,
                                      const AreaModel& model) const {
  return 100.0 * extra_area / model.functional_area(dp);
}

std::string BistSolution::describe(const Datapath& dp) const {
  std::ostringstream os;
  os << "BIST solution: " << counts().to_string() << " (extra "
     << extra_area << " gates)\n";
  for (std::size_t r = 0; r < roles.size(); ++r) {
    if (roles[r] == BistRole::None) continue;
    os << "  " << dp.registers[r].name << " -> " << to_string(roles[r])
       << "\n";
  }
  for (std::size_t m : untestable_modules) {
    os << "  ! module " << dp.modules[m].name
       << " has no feasible BIST embedding\n";
  }
  return os.str();
}

namespace {

/// Reports the final per-register role assignment (modified registers only).
void emit_role_events(AlgorithmEvents* events,
                      const std::vector<BistRole>& roles) {
  if (events == nullptr) return;
  for (std::size_t r = 0; r < roles.size(); ++r) {
    if (roles[r] != BistRole::None) events->bist_role(r, to_string(roles[r]));
  }
}

/// Objective tuple (extra area, #CBILBO, #modified) of a DP state, summed
/// over every register, live or retired.
struct Cost {
  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;

  [[nodiscard]] auto tie() const { return std::tie(area, cbilbos, modified); }
  bool operator<(const Cost& o) const { return tie() < o.tie(); }
  bool operator==(const Cost& o) const { return tie() == o.tie(); }
};

/// Key slots per 64-bit word: 3 role-flag bits each (RoleFlags::encode).
constexpr std::size_t kSlotsPerWord = 21;

std::uint8_t flags_at(const std::uint64_t* key, std::size_t slot) {
  return static_cast<std::uint8_t>(
      (key[slot / kSlotsPerWord] >> (3 * (slot % kSlotsPerWord))) & 7u);
}

void set_flags_at(std::uint64_t* key, std::size_t slot, std::uint8_t flags) {
  const std::size_t shift = 3 * (slot % kSlotsPerWord);
  std::uint64_t& word = key[slot / kSlotsPerWord];
  word = (word & ~(std::uint64_t{7} << shift)) |
         (std::uint64_t{flags} << shift);
}

/// An embedding as the DP applies it: for each distinct register it
/// touches (up to three), the register's key slot and the role flags the
/// embedding ORs into it, in slot order.
struct Move {
  std::array<std::pair<std::uint32_t, std::uint8_t>, 3> touch{};
  std::size_t count = 0;
  std::uint32_t embedding = 0;  ///< index in the module's embedding list
};

Move move_of(const BistEmbedding& e, std::uint32_t index,
             const std::vector<std::uint32_t>& slot_of) {
  Move mv;
  mv.embedding = index;
  auto add = [&](std::size_t reg, RoleFlags duty) {
    for (std::size_t i = 0; i < mv.count; ++i) {
      if (mv.touch[i].first == slot_of[reg]) {
        mv.touch[i].second |= duty.encode();
        return;
      }
    }
    mv.touch[mv.count++] = {slot_of[reg], duty.encode()};
  };
  add(e.tpg_left, RoleFlags{true, false, false});
  add(e.tpg_right, RoleFlags{true, false, false});
  if (e.sa.has_value()) {
    add(*e.sa, RoleFlags{e.needs_cbilbo(), true, e.needs_cbilbo()});
  }
  // Slot order, so that equal effects compare equal.
  for (std::size_t i = 1; i < mv.count; ++i) {
    for (std::size_t j = i; j > 0 && mv.touch[j] < mv.touch[j - 1]; --j) {
      std::swap(mv.touch[j], mv.touch[j - 1]);
    }
  }
  return mv;
}

/// A module's embeddings as moves, keeping only the first of each effect.
/// A later embedding with the same effect (the TPG ports swapped, or
/// another transparent path to the same registers) reaches the same state
/// at the same cost from every parent and loses the tie-break to the
/// earlier one, so it can never be chosen.
std::vector<Move> distinct_moves(const std::vector<BistEmbedding>& embeddings,
                                 const std::vector<std::uint32_t>& slot_of) {
  std::vector<Move> moves;
  moves.reserve(embeddings.size());
  for (std::size_t i = 0; i < embeddings.size(); ++i) {
    moves.push_back(
        move_of(embeddings[i], static_cast<std::uint32_t>(i), slot_of));
  }
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return std::tie(a.count, a.touch, a.embedding) <
           std::tie(b.count, b.touch, b.embedding);
  });
  moves.erase(std::unique(moves.begin(), moves.end(),
                          [](const Move& a, const Move& b) {
                            return std::tie(a.count, a.touch) ==
                                   std::tie(b.count, b.touch);
                          }),
              moves.end());
  std::sort(moves.begin(), moves.end(), [](const Move& a, const Move& b) {
    return a.embedding < b.embedding;
  });
  return moves;
}

/// Registers each module's embeddings can touch (sorted).
std::vector<std::vector<std::size_t>> touched_registers(
    const std::vector<std::vector<BistEmbedding>>& embeddings) {
  std::vector<std::vector<std::size_t>> touched(embeddings.size());
  for (std::size_t m = 0; m < embeddings.size(); ++m) {
    std::vector<std::size_t>& regs = touched[m];
    for (const BistEmbedding& e : embeddings[m]) {
      regs.push_back(e.tpg_left);
      regs.push_back(e.tpg_right);
      if (e.sa.has_value()) regs.push_back(*e.sa);
    }
    std::sort(regs.begin(), regs.end());
    regs.erase(std::unique(regs.begin(), regs.end()), regs.end());
  }
  return touched;
}

/// A path decomposition of the module-register incidence graph: the order
/// the DP visits modules in, and the key slot each register holds from its
/// first to its last module in that order.
struct PathDecomposition {
  std::vector<std::size_t> order;                  ///< position -> module
  std::vector<std::uint32_t> slot;                 ///< register -> key slot
  std::vector<std::vector<std::uint32_t>> retire;  ///< position -> slots
  std::size_t live_max = 0;  ///< slots used (most registers live at once)
};

/// Greedy vertex separation: next comes the module that opens the fewest
/// registers not yet live minus the registers it is the last user of
/// (ties: lowest module index).  A module that starts a new connected
/// component opens all of its registers, so a component's modules tend to
/// come out together and the key empties between components.  With
/// `retire` off no register leaves the key.
PathDecomposition decompose(
    const std::vector<std::vector<std::size_t>>& touched, std::size_t nregs,
    bool retire) {
  const std::size_t nmods = touched.size();
  std::vector<std::size_t> users(nregs, 0);
  for (const auto& regs : touched) {
    for (std::size_t r : regs) ++users[r];
  }
  std::vector<bool> opened(nregs, false);
  std::vector<bool> placed(nmods, false);
  std::vector<std::uint32_t> free_slots;
  PathDecomposition pd;
  pd.slot.assign(nregs, 0);
  for (std::size_t pos = 0; pos < nmods; ++pos) {
    std::size_t best = nmods;
    std::ptrdiff_t best_score = 0;
    for (std::size_t m = 0; m < nmods; ++m) {
      if (placed[m]) continue;
      std::ptrdiff_t score = 0;
      for (std::size_t r : touched[m]) {
        if (!opened[r]) ++score;
        if (users[r] == 1) --score;
      }
      if (best == nmods || score < best_score) {
        best = m;
        best_score = score;
      }
    }
    placed[best] = true;
    pd.order.push_back(best);
    for (std::size_t r : touched[best]) {
      if (opened[r]) continue;
      opened[r] = true;
      if (free_slots.empty()) {
        pd.slot[r] = static_cast<std::uint32_t>(pd.live_max++);
      } else {
        pd.slot[r] = free_slots.back();
        free_slots.pop_back();
      }
    }
    std::vector<std::uint32_t> retired;
    for (std::size_t r : touched[best]) {
      if (--users[r] == 0 && retire) retired.push_back(pd.slot[r]);
    }
    free_slots.insert(free_slots.end(), retired.begin(), retired.end());
    pd.retire.push_back(std::move(retired));
  }
  return pd;
}

/// The states of one DP level: fixed-width packed keys stored back to
/// back, indexed by an open-addressing table so equal keys merge.
class StateSet {
 public:
  explicit StateSet(std::size_t words) : words_(words) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::uint64_t* key(std::size_t i) const {
    return &keys_[i * words_];
  }

  /// Index of `key`; a key not yet present becomes state `size()`.
  std::uint32_t insert(const std::uint64_t* key) {
    if (2 * (size_ + 1) > table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    for (std::size_t h = hash(key) & mask;; h = (h + 1) & mask) {
      if (table_[h] == 0) {
        keys_.insert(keys_.end(), key, key + words_);
        table_[h] = static_cast<std::uint32_t>(++size_);
        return table_[h] - 1;
      }
      const std::uint32_t i = table_[h] - 1;
      if (std::equal(key, key + words_, this->key(i))) return i;
    }
  }

  void clear() {
    size_ = 0;
    keys_.clear();
    std::fill(table_.begin(), table_.end(), 0);
  }

 private:
  /// splitmix64's finalizer per word: every key bit reaches the low bits
  /// the table index uses.
  [[nodiscard]] std::size_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t w = 0; w < words_; ++w) {
      h = splitmix64_finalize(h ^ key[w]);
    }
    return static_cast<std::size_t>(h);
  }

  void grow() {
    std::vector<std::uint32_t> old = std::move(table_);
    table_.assign(std::max<std::size_t>(64, 2 * old.size()), 0);
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t entry : old) {
      if (entry == 0) continue;
      std::size_t h = hash(key(entry - 1)) & mask;
      while (table_[h] != 0) h = (h + 1) & mask;
      table_[h] = entry;
    }
  }

  std::size_t words_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> table_;  ///< state index + 1; 0 = empty
};

/// How a DP state was reached: its state on the previous level and the
/// index of the embedding taken there.
struct Link {
  std::uint32_t parent = 0;
  std::uint32_t embedding = 0;
};
/// Link::embedding of a state passed through an untestable module.
constexpr std::uint32_t kNoEmbedding = UINT32_MAX;

}  // namespace

BistSolution BistAllocator::solve(const Datapath& dp,
                                  BistDpStats* stats) const {
  BistDpStats local;
  BistDpStats& st = stats != nullptr ? *stats : local;
  st = BistDpStats{};
  const std::size_t nregs = dp.registers.size();
  const std::size_t nmods = dp.modules.size();

  // Embedding lists are the cross product of port fan-ins, so past a few
  // hundred registers materializing them alone would burn gigabytes.  Go
  // straight to the streaming greedy allocator instead.
  if (nregs > exact_max_regs) {
    st.fallback = "regs";
    if (events != nullptr) events->bist_greedy_fallback();
    return solve_greedy_impl(dp, events);
  }

  // Pre-enumerate embeddings; record untestable modules.
  std::vector<std::vector<BistEmbedding>> embeddings;
  embeddings.reserve(nmods);
  std::vector<std::size_t> untestable;
  for (std::size_t m = 0; m < nmods; ++m) {
    embeddings.push_back(use_transparent_paths
                             ? enumerate_embeddings_extended(dp, m)
                             : enumerate_embeddings(dp, m));
    if (embeddings.back().empty()) untestable.push_back(m);
  }

  // Branch and bound: the greedy completion seeds the incumbent, and —
  // because role flags only accumulate and the area model is (normally)
  // monotone in them — a partial state's own area is an admissible lower
  // bound on every completion.  Any state on a path to an area-optimal
  // final state therefore survives the strict cut, so the search stays
  // exact while the frontier collapses to near-optimal states only.
  const bool prune = area_flag_monotone(model_);
  std::optional<BistSolution> greedy;
  if (prune) greedy = solve_greedy_impl(dp, nullptr);
  const double incumbent = prune ? greedy->extra_area : 0.0;
  constexpr double kAreaSlack = 1e-6;  // guards incremental-sum rounding
  auto fall_back = [&] {
    st.fallback = "budget";
    if (events != nullptr) events->bist_greedy_fallback();
    if (!greedy.has_value()) return solve_greedy_impl(dp, events);
    emit_role_events(events, greedy->roles);
    return std::move(*greedy);
  };

  // A register's flags sit in the key only while it is live.  Merging two
  // states with equal keys is sound because no later module can touch a
  // retired register, so both face the same completions.  Every final
  // state must stay distinct for `minimize_sessions`, so it retires none.
  const PathDecomposition pd =
      decompose(touched_registers(embeddings), nregs, !minimize_sessions);
  st.live_max = pd.live_max;
  const std::size_t words = std::max<std::size_t>(
      1, (pd.live_max + kSlotsPerWord - 1) / kSlotsPerWord);
  std::array<Cost, 8> role_cost;  // by RoleFlags code
  for (std::uint8_t code = 0; code < 8; ++code) {
    const BistRole role = RoleFlags::decode(code).role();
    role_cost[code] = Cost{model_.role_extra(role),
                           role == BistRole::Cbilbo ? 1 : 0,
                           role != BistRole::None ? 1 : 0};
  }
  std::vector<std::vector<Move>> moves;
  moves.reserve(nmods);
  for (const auto& list : embeddings) {
    moves.push_back(distinct_moves(list, pd.slot));
  }

  // levels[pos]: how each state after the module at `pos` was reached.
  std::vector<std::vector<Link>> levels;
  levels.reserve(nmods);

  // True if the embedding sequence ending in `a` is lexicographically
  // smaller than the one ending in `b` (both at `pos`) in natural module
  // order.  Paths are walked back only until they join; from there on
  // they share every choice.
  auto natural_less = [&](std::size_t pos, Link a, Link b) {
    std::size_t first = nmods;  // earliest module where they differ
    bool less = false;
    for (;;) {
      const std::size_t m = pd.order[pos];
      if (a.embedding != b.embedding && m < first) {
        first = m;
        less = a.embedding < b.embedding;
      }
      if (a.parent == b.parent) return less;
      --pos;
      a = levels[pos][a.parent];
      b = levels[pos][b.parent];
    }
  };

  StateSet cur(words);
  StateSet next(words);
  std::vector<std::uint64_t> key(words, 0);
  cur.insert(key.data());
  std::vector<Cost> cur_cost{Cost{}};
  std::vector<Cost> next_cost;
  st.peak_frontier = 1;
  for (std::size_t pos = 0; pos < nmods; ++pos) {
    const std::vector<Move>& mod_moves = moves[pd.order[pos]];
    // An untestable module has no embedding; its states pass through.
    const std::size_t choices = std::max<std::size_t>(mod_moves.size(), 1);
    // Every state tries every move, so a level's transitions are known
    // before it runs: a level that would overrun the budget is not begun.
    const std::uint64_t level_transitions =
        std::uint64_t{cur.size()} * choices;
    if (level_transitions > transition_budget - st.transitions) {
      return fall_back();
    }
    st.transitions += level_transitions;
    std::vector<Link> links;
    next.clear();
    next_cost.clear();
    for (std::size_t p = 0; p < cur.size(); ++p) {
      const std::uint64_t* parent = cur.key(p);
      for (std::size_t i = 0; i < choices; ++i) {
        std::copy(parent, parent + words, key.begin());
        Cost cost = cur_cost[p];
        Link link{static_cast<std::uint32_t>(p), kNoEmbedding};
        if (!mod_moves.empty()) {
          const Move& mv = mod_moves[i];
          for (std::size_t j = 0; j < mv.count; ++j) {
            const auto [slot, duty] = mv.touch[j];
            const std::uint8_t before = flags_at(key.data(), slot);
            const auto after = static_cast<std::uint8_t>(before | duty);
            cost.area += role_cost[after].area - role_cost[before].area;
            cost.cbilbos +=
                role_cost[after].cbilbos - role_cost[before].cbilbos;
            cost.modified +=
                role_cost[after].modified - role_cost[before].modified;
            set_flags_at(key.data(), slot, after);
          }
          // Admissible cut: completions only add flags, so `cost.area`
          // already bounds every descendant.  States matching the
          // incumbent stay — they may win on the CBILBO/modified
          // tie-break.
          if (prune && cost.area > incumbent + kAreaSlack) continue;
          link.embedding = mv.embedding;
        }
        for (std::uint32_t slot : pd.retire[pos]) {
          set_flags_at(key.data(), slot, 0);
        }
        const std::size_t fresh = next.size();
        const std::uint32_t s = next.insert(key.data());
        if (s == fresh) {
          next_cost.push_back(cost);
          links.push_back(link);
        } else if (cost < next_cost[s] ||
                   (cost == next_cost[s] &&
                    natural_less(pos, link, links[s]))) {
          // Equal keys share every completion, so the smaller cost wins;
          // on a tie, the prefix that is lexicographically smaller in
          // natural module order, so that the result does not depend on
          // the order the modules are visited in.
          next_cost[s] = cost;
          links[s] = link;
        }
      }
    }
    st.peak_frontier = std::max(st.peak_frontier, next.size());
    levels.push_back(std::move(links));
    std::swap(cur, next);
    std::swap(cur_cost, next_cost);
  }
  LBIST_CHECK(cur.size() > 0, "BIST allocator reached no state");

  // The cost-optimal final states, in the lexicographic order of their
  // embedding sequences.  With retirement the key ends empty, so there is
  // exactly one.
  const Cost best = *std::min_element(cur_cost.begin(), cur_cost.end());
  std::vector<std::uint32_t> finals;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    if (cur_cost[i] == best) finals.push_back(static_cast<std::uint32_t>(i));
  }
  if (nmods > 0) {
    std::sort(finals.begin(), finals.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return natural_less(nmods - 1, levels.back()[a],
                                    levels.back()[b]);
              });
  }

  auto reconstruct = [&](std::uint32_t state) {
    BistSolution sol;
    sol.untestable_modules = untestable;
    sol.embeddings.assign(nmods, std::nullopt);
    for (std::size_t pos = nmods; pos-- > 0;) {
      const Link link = levels[pos][state];
      const std::size_t m = pd.order[pos];
      if (link.embedding != kNoEmbedding) {
        sol.embeddings[m] = embeddings[m][link.embedding];
      }
      state = link.parent;
    }
    StateKey roles(nregs, '\0');
    for (const auto& e : sol.embeddings) {
      if (e.has_value()) roles = apply_embedding(roles, *e);
    }
    sol.roles = roles_of(roles);
    sol.extra_area = std::get<0>(cost_of(roles, model_));
    return sol;
  };

  BistSolution best_sol = reconstruct(finals.front());
  if (minimize_sessions) {
    // Among cost-optimal states, pick the solution with the fewest test
    // sessions (total test time); ties keep the earliest.
    int best_sessions = schedule_test_sessions(dp, best_sol).num_sessions;
    for (std::size_t i = 1; i < finals.size(); ++i) {
      BistSolution candidate = reconstruct(finals[i]);
      const int sessions = schedule_test_sessions(dp, candidate).num_sessions;
      if (sessions < best_sessions) {
        best_sessions = sessions;
        best_sol = std::move(candidate);
      }
    }
  }
  emit_role_events(events, best_sol.roles);
  return best_sol;
}

BistSolution BistAllocator::solve_greedy(const Datapath& dp) const {
  return solve_greedy_impl(dp, events);
}

BistSolution BistAllocator::solve_greedy_impl(
    const Datapath& dp, AlgorithmEvents* emit_events) const {
  const std::size_t nregs = dp.registers.size();
  StateKey state(nregs, '\0');

  // A zero marginal cost cannot be beaten when role flags only accumulate
  // and the model is flag-monotone (every delta component is then >= 0),
  // so the scan of a module may stop at the first such embedding.
  const bool can_cut = area_flag_monotone(model_);
  constexpr std::tuple<double, int, int> kZero{0.0, 0, 0};

  BistSolution sol;
  sol.exact = false;
  sol.embeddings.assign(dp.modules.size(), std::nullopt);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    std::optional<BistEmbedding> best_emb;
    std::tuple<double, int, int> best_delta{0, 0, 0};
    auto scan = [&](const BistEmbedding& e) {
      const auto d = delta_of(state, e, model_);
      if (!best_emb.has_value() || d < best_delta) {
        best_delta = d;
        best_emb = e;
      }
      return !(can_cut && best_delta == kZero);
    };
    if (use_transparent_paths) {
      for_each_embedding_extended(dp, m, scan);
    } else {
      for_each_embedding(dp, m, scan);
    }
    if (!best_emb.has_value()) {
      sol.untestable_modules.push_back(m);
      continue;
    }
    state = apply_embedding(state, *best_emb);
    sol.embeddings[m] = best_emb;
  }
  sol.roles = roles_of(state);
  sol.extra_area = std::get<0>(cost_of(state, model_));
  emit_role_events(emit_events, sol.roles);
  return sol;
}

}  // namespace lbist
