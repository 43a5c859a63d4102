#pragma once
// Reference exact BIST allocator for differential tests: the levels DP
// that `BistAllocator::solve` ran before it became a DP over a path
// decomposition.  It visits modules in natural order and keys every state
// on one role byte for *every* register, so it never merges states that
// differ only on registers no later module can touch.  It is slow on 20+
// registers but simple, and it returns the lexicographically smallest
// optimal embedding sequence in natural module order, which the
// production solver must reproduce wherever this one finishes.

#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bist/allocator.hpp"
#include "bist/sessions.hpp"
#include "support/check.hpp"

namespace lbist::reference {

struct LevelsDpOptions {
  bool use_transparent_paths = false;
  bool minimize_sessions = false;
  /// Frontier cap (states per module level); past it the greedy solution
  /// is returned with `exact == false`.
  std::size_t max_frontier = 500000;
  std::size_t exact_max_regs = 192;
};

namespace detail {

using StateKey = std::string;  // one byte of RoleFlags per register

inline StateKey apply_embedding(const StateKey& state, const BistEmbedding& e) {
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

inline double role_extra_of(char c, const AreaModel& model) {
  return model.role_extra(
      RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
}

/// Area change from `prev` to `next` where `next = apply_embedding(prev,
/// e)`: only the (up to three) registers e touches can differ.
inline double area_delta(const StateKey& prev, const StateKey& next,
                         const BistEmbedding& e, const AreaModel& model) {
  double delta = 0.0;
  auto touch = [&](std::size_t reg) {
    if (prev[reg] != next[reg]) {
      delta += role_extra_of(next[reg], model) -
               role_extra_of(prev[reg], model);
    }
  };
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
  for (std::size_t i = 0; i < count; ++i) touch(touched[i]);
  return delta;
}

/// (extra_area, #cbilbo, #modified): the lexicographic objective.
inline std::tuple<double, int, int> cost_of(const StateKey& state,
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

inline bool area_flag_monotone(const AreaModel& model) {
  const double none = model.role_extra(BistRole::None);
  const double tpg = model.role_extra(BistRole::Tpg);
  const double sa = model.role_extra(BistRole::Sa);
  const double bilbo = model.role_extra(BistRole::TpgSa);
  const double cbilbo = model.role_extra(BistRole::Cbilbo);
  return none <= tpg && none <= sa && tpg <= bilbo && sa <= bilbo &&
         bilbo <= cbilbo;
}

inline std::vector<BistRole> roles_of(const StateKey& state) {
  std::vector<BistRole> roles;
  roles.reserve(state.size());
  for (char c : state) {
    roles.push_back(RoleFlags::decode(static_cast<std::uint8_t>(c)).role());
  }
  return roles;
}

}  // namespace detail

/// The levels DP with branch and bound, as `BistAllocator::solve` ran it
/// with a `max_frontier` cap.
inline BistSolution solve_levels_dp(const Datapath& dp,
                                    const AreaModel& model,
                                    const LevelsDpOptions& opts = {}) {
  using namespace detail;
  const std::size_t nregs = dp.registers.size();
  BistAllocator greedy_solver(model);
  greedy_solver.use_transparent_paths = opts.use_transparent_paths;

  if (nregs > opts.exact_max_regs) return greedy_solver.solve_greedy(dp);

  std::vector<std::vector<BistEmbedding>> embeddings;
  std::vector<std::size_t> untestable;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    embeddings.push_back(opts.use_transparent_paths
                             ? enumerate_embeddings_extended(dp, m)
                             : enumerate_embeddings(dp, m));
    if (embeddings.back().empty()) untestable.push_back(m);
  }

  const bool prune = area_flag_monotone(model);
  double incumbent = 0.0;
  if (prune) incumbent = greedy_solver.solve_greedy(dp).extra_area;
  constexpr double kAreaSlack = 1e-6;

  struct Entry {
    StateKey state;
    std::size_t parent = 0;
    std::optional<BistEmbedding> chosen;
    double area = 0.0;
  };
  std::vector<std::vector<Entry>> levels;
  levels.push_back({Entry{StateKey(nregs, '\0'), 0, std::nullopt, 0.0}});

  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const auto& prev = levels.back();
    std::vector<Entry> next;
    std::unordered_map<StateKey, std::size_t> seen;
    if (embeddings[m].empty()) {
      for (std::size_t p = 0; p < prev.size(); ++p) {
        if (seen.emplace(prev[p].state, next.size()).second) {
          next.push_back(Entry{prev[p].state, p, std::nullopt, prev[p].area});
        }
      }
    } else {
      for (std::size_t p = 0; p < prev.size(); ++p) {
        for (const BistEmbedding& e : embeddings[m]) {
          StateKey s = apply_embedding(prev[p].state, e);
          const double area =
              prev[p].area + area_delta(prev[p].state, s, e, model);
          if (prune && area > incumbent + kAreaSlack) continue;
          if (seen.emplace(s, next.size()).second) {
            next.push_back(Entry{std::move(s), p, e, area});
            if (next.size() > opts.max_frontier) {
              return greedy_solver.solve_greedy(dp);
            }
          }
        }
      }
    }
    levels.push_back(std::move(next));
  }

  const auto& final_level = levels.back();
  LBIST_CHECK(!final_level.empty(), "BIST allocator reached no state");
  std::size_t best = 0;
  auto best_cost = cost_of(final_level[0].state, model);
  for (std::size_t i = 1; i < final_level.size(); ++i) {
    auto c = cost_of(final_level[i].state, model);
    if (c < best_cost) {
      best_cost = c;
      best = i;
    }
  }

  auto reconstruct = [&](std::size_t final_index) {
    BistSolution sol;
    sol.roles = roles_of(final_level[final_index].state);
    sol.extra_area =
        std::get<0>(cost_of(final_level[final_index].state, model));
    sol.untestable_modules = untestable;
    sol.embeddings.assign(dp.modules.size(), std::nullopt);
    std::size_t idx = final_index;
    for (std::size_t level = levels.size() - 1; level >= 1; --level) {
      const Entry& e = levels[level][idx];
      sol.embeddings[level - 1] = e.chosen;
      idx = e.parent;
    }
    return sol;
  };

  if (!opts.minimize_sessions) return reconstruct(best);

  BistSolution best_sol = reconstruct(best);
  int best_sessions = schedule_test_sessions(dp, best_sol).num_sessions;
  for (std::size_t i = 0; i < final_level.size(); ++i) {
    if (i == best || cost_of(final_level[i].state, model) != best_cost) {
      continue;
    }
    BistSolution candidate = reconstruct(i);
    const int sessions = schedule_test_sessions(dp, candidate).num_sessions;
    if (sessions < best_sessions) {
      best_sessions = sessions;
      best_sol = std::move(candidate);
    }
  }
  return best_sol;
}

}  // namespace lbist::reference
