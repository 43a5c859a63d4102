#include "graph/chordal.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <queue>
#include <utility>

#include "support/check.hpp"

namespace lbist {

namespace {

/// Window-local simpliciality check: is N(v) ∩ alive a clique?  `alive` is
/// bit-per-vertex; `scratch` receives the alive neighbourhood words and must
/// be at least the row window long.  On failure `witness` receives a pair of
/// alive, non-adjacent neighbours — the certificate stays valid until one of
/// them is eliminated, so callers can skip rechecks while both live.
bool simplicial_in(const UndirectedGraph& g, std::size_t v,
                   const DynBitset& alive,
                   std::vector<std::uint64_t>& scratch,
                   std::pair<std::size_t, std::size_t>* witness) {
  const RowView row = g.row(v);
  const std::size_t lo = row.word_lo();
  const std::size_t hi = row.word_hi();
  scratch.resize(hi > lo ? hi - lo : 0);
  for (std::size_t w = lo; w < hi; ++w) {
    const std::uint64_t aw = w < alive.num_words() ? alive.word(w) : 0;
    scratch[w - lo] = row.word(w) & aw;
  }
  for (std::size_t w = lo; w < hi; ++w) {
    std::uint64_t bits = scratch[w - lo];
    while (bits != 0) {
      const std::size_t u =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      // (alive N(v) \ {u}) must be a subset of N(u).
      const RowView row_u = g.row(u);
      for (std::size_t w2 = lo; w2 < hi; ++w2) {
        std::uint64_t bad = scratch[w2 - lo] & ~row_u.word(w2);
        if (w2 == u / 64) bad &= ~(std::uint64_t{1} << (u % 64));
        if (bad != 0) {
          if (witness != nullptr) {
            *witness = {u, w2 * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bad))};
          }
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

bool is_simplicial(const UndirectedGraph& g, std::size_t v,
                   const DynBitset& removed) {
  DynBitset alive(g.num_vertices());
  for (std::size_t w = 0; w < alive.num_words(); ++w) {
    const std::uint64_t rw = w < removed.num_words() ? removed.word(w) : 0;
    alive.or_word(w, ~rw);
  }
  // Mask stray high bits the complement may have introduced in the last
  // word (they would otherwise alias out-of-range "alive" vertices).
  const std::size_t n = g.num_vertices();
  if (n % 64 != 0 && alive.num_words() > 0) {
    alive.and_word(alive.num_words() - 1,
                   (std::uint64_t{1} << (n % 64)) - 1);
  }
  std::vector<std::uint64_t> scratch;
  return simplicial_in(g, v, alive, scratch, nullptr);
}

std::optional<std::vector<std::size_t>> perfect_elimination_order(
    const UndirectedGraph& g, const std::vector<std::size_t>& priority_rank,
    PeoStats* stats) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(priority_rank.empty() || priority_rank.size() == n,
              "priority_rank must cover every vertex");
  auto rank = [&](std::size_t v) {
    return priority_rank.empty() ? v : priority_rank[v];
  };

  // Incremental formulation of the greedy min-rank elimination: once a
  // vertex's alive neighbourhood is a clique it stays one (elimination only
  // shrinks neighbourhoods), so each vertex enters the ready-heap exactly
  // once, and only neighbours of an eliminated vertex can newly qualify.
  // Non-simplicial vertices carry a witness pair of alive non-adjacent
  // neighbours; while both live, the recheck is skipped outright.  This
  // replaces the historical O(n) full rescans per elimination step, which
  // were the dominant cost of large-DFG binding.
  DynBitset alive(n);
  for (std::size_t v = 0; v < n; ++v) alive.set(v);
  std::vector<char> ready(n, 0);
  constexpr std::size_t kNone = SIZE_MAX;
  std::vector<std::pair<std::size_t, std::size_t>> witness(
      n, {kNone, kNone});
  std::vector<std::uint64_t> scratch;
  std::uint64_t checks = 0;

  using HeapItem = std::pair<std::size_t, std::size_t>;  // (rank, vertex)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  for (std::size_t v = 0; v < n; ++v) {
    ++checks;
    if (simplicial_in(g, v, alive, scratch, &witness[v])) {
      ready[v] = 1;
      heap.emplace(rank(v), v);
    }
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  while (order.size() < n) {
    if (heap.empty()) return std::nullopt;  // no simplicial vertex: not chordal
    const std::size_t v = heap.top().second;
    heap.pop();
    order.push_back(v);
    alive.reset(v);
    g.row(v).for_each([&](std::size_t u) {
      if (!alive.test(u) || ready[u] != 0) return;
      auto& [wa, wb] = witness[u];
      if (wa != kNone && alive.test(wa) && alive.test(wb)) return;
      ++checks;
      if (simplicial_in(g, u, alive, scratch, &witness[u])) {
        ready[u] = 1;
        heap.emplace(rank(u), u);
      }
    });
  }
  if (stats != nullptr) stats->simplicial_checks += checks;
  return order;
}

bool is_chordal(const UndirectedGraph& g) {
  return perfect_elimination_order(g).has_value();
}

std::vector<std::vector<std::size_t>> elimination_cliques(
    const UndirectedGraph& g, const std::vector<std::size_t>& order) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(order.size() == n, "order must cover every vertex");
  DynBitset removed(n);
  std::vector<std::vector<std::size_t>> cliques;
  cliques.reserve(n);
  for (std::size_t v : order) {
    std::vector<std::size_t> clique{v};
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) clique.push_back(u);
    });
    std::sort(clique.begin(), clique.end());
    cliques.push_back(std::move(clique));
    removed.set(v);
  }
  return cliques;
}

std::vector<std::size_t> max_clique_through_vertex(
    const UndirectedGraph& g, const std::vector<std::size_t>& order) {
  const std::size_t n = g.num_vertices();
  LBIST_CHECK(order.size() == n, "order must cover every vertex");
  // Streamed version of "max elimination-clique size through v": walking the
  // cliques directly avoids materializing them (they total O(edges) space).
  std::vector<std::size_t> mcs(n, 0);
  DynBitset removed(n);
  for (std::size_t v : order) {
    std::size_t clique_size = 1;
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) ++clique_size;
    });
    mcs[v] = std::max(mcs[v], clique_size);
    g.row(v).for_each([&](std::size_t u) {
      if (!removed.test(u)) mcs[u] = std::max(mcs[u], clique_size);
    });
    removed.set(v);
  }
  return mcs;
}

namespace {

/// Deletion-only set over positions 0..n-1 with nearest-present queries in
/// both directions (skip pointers with path halving: near-constant
/// amortized time per query).
class PositionSet {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  explicit PositionSet(std::size_t n) : next_(n + 1), prev_(n + 1) {
    for (std::size_t i = 0; i <= n; ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
      prev_[i] = static_cast<std::uint32_t>(i);
    }
  }

  void erase(std::size_t i) {
    next_[i] = static_cast<std::uint32_t>(i + 1);
    prev_[i + 1] = static_cast<std::uint32_t>(i);  // prev_ is shifted by one
  }

  /// Smallest present position >= i, or n.
  [[nodiscard]] std::size_t at_or_after(std::size_t i) {
    while (next_[i] != i) {
      next_[i] = next_[next_[i]];
      i = next_[i];
    }
    return i;
  }

  /// Largest present position <= i (i may be kNone), or kNone.
  [[nodiscard]] std::size_t at_or_before(std::size_t i) {
    std::size_t p = i + 1;  // kNone + 1 wraps to the sentinel 0
    while (prev_[p] != p) {
      prev_[p] = prev_[prev_[p]];
      p = prev_[p];
    }
    return p - 1;
  }

 private:
  std::vector<std::uint32_t> next_;
  std::vector<std::uint32_t> prev_;
};

/// Max-tree over positions 0..n-1 that reports, within a position range,
/// every position whose value reaches a threshold, in O((reported + 1) *
/// log n).
class ThresholdTree {
 public:
  static constexpr std::int64_t kAbsent =
      std::numeric_limits<std::int64_t>::min();

  explicit ThresholdTree(const std::vector<std::int64_t>& values)
      : leaves_(std::bit_ceil(std::max<std::size_t>(values.size(), 1))),
        max_(2 * leaves_, kAbsent) {
    std::copy(values.begin(), values.end(),
              max_.begin() + static_cast<std::ptrdiff_t>(leaves_));
    for (std::size_t i = leaves_ - 1; i >= 1; --i) pull(i);
  }

  void erase(std::size_t pos) {
    std::size_t i = pos + leaves_;
    max_[i] = kAbsent;
    for (i /= 2; i >= 1; i /= 2) pull(i);
  }

  /// Appends every position in [lo, hi) with value >= threshold to `out`.
  void report(std::size_t lo, std::size_t hi, std::int64_t threshold,
              std::vector<std::size_t>& out) const {
    report(1, 0, leaves_, lo, hi, threshold, out);
  }

 private:
  void pull(std::size_t i) {
    max_[i] = std::max(max_[2 * i], max_[2 * i + 1]);
  }

  void report(std::size_t node, std::size_t node_lo, std::size_t node_hi,
              std::size_t lo, std::size_t hi, std::int64_t threshold,
              std::vector<std::size_t>& out) const {
    if (hi <= node_lo || node_hi <= lo || max_[node] < threshold) return;
    if (node >= leaves_) {
      out.push_back(node - leaves_);
      return;
    }
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    report(2 * node, node_lo, mid, lo, hi, threshold, out);
    report(2 * node + 1, mid, node_hi, lo, hi, threshold, out);
  }

  std::size_t leaves_;
  std::vector<std::int64_t> max_;  ///< heap layout; leaves from leaves_
};

/// Vertices sorted by one endpoint, with the sorted endpoint values.
struct EndpointOrder {
  std::vector<std::uint32_t> vertex;  ///< position -> vertex
  std::vector<int> value;             ///< position -> endpoint, ascending
  std::vector<std::uint32_t> pos;     ///< vertex -> position

  explicit EndpointOrder(const std::vector<int>& endpoint)
      : vertex(endpoint.size()), value(endpoint.size()),
        pos(endpoint.size()) {
    const std::size_t n = endpoint.size();
    for (std::size_t v = 0; v < n; ++v) {
      vertex[v] = static_cast<std::uint32_t>(v);
    }
    std::sort(vertex.begin(), vertex.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return endpoint[a] < endpoint[b];
              });
    for (std::size_t i = 0; i < n; ++i) {
      value[i] = endpoint[vertex[i]];
      pos[vertex[i]] = static_cast<std::uint32_t>(i);
    }
  }

  /// First position whose endpoint is >= x.
  [[nodiscard]] std::size_t lower(int x) const {
    return static_cast<std::size_t>(
        std::lower_bound(value.begin(), value.end(), x) - value.begin());
  }
  /// First position whose endpoint is > x.
  [[nodiscard]] std::size_t upper(int x) const {
    return static_cast<std::size_t>(
        std::upper_bound(value.begin(), value.end(), x) - value.begin());
  }
};

void check_intervals(const std::vector<int>& birth,
                     const std::vector<int>& death) {
  LBIST_CHECK(birth.size() == death.size(),
              "interval births and deaths must pair up");
  LBIST_CHECK(birth.size() < std::numeric_limits<std::uint32_t>::max(),
              "too many intervals");
  for (std::size_t v = 0; v < birth.size(); ++v) {
    LBIST_CHECK(death[v] > birth[v], "interval must end after it starts");
  }
}

}  // namespace

std::vector<std::size_t> interval_elimination_order(
    const std::vector<int>& birth, const std::vector<int>& death,
    const std::vector<std::size_t>& priority_rank, PeoStats* stats) {
  check_intervals(birth, death);
  const std::size_t n = birth.size();
  LBIST_CHECK(priority_rank.empty() || priority_rank.size() == n,
              "priority_rank must cover every vertex");
  auto rank = [&](std::size_t v) {
    return priority_rank.empty() ? v : priority_rank[v];
  };

  const EndpointOrder births(birth);
  const EndpointOrder deaths(death);
  // Endpoints of the alive vertices, in each endpoint order.
  PositionSet alive_births(n);
  PositionSet alive_deaths(n);
  constexpr int kMinEnd = std::numeric_limits<int>::min();
  constexpr int kMaxEnd = std::numeric_limits<int>::max();
  constexpr std::size_t kNone = PositionSet::kNone;
  auto birth_at = [&](std::size_t j) {
    return j >= n ? kMaxEnd : births.value[j];  // kNone is >= n too
  };
  auto death_at = [&](std::size_t j) {
    return j >= n ? kMinEnd : deaths.value[j];
  };
  // Smallest alive birth >= x / largest alive birth < x, and likewise for
  // deaths (> x / <= x); kMaxEnd or kMinEnd when there is none.
  auto min_birth_from = [&](int x) {
    return birth_at(alive_births.at_or_after(births.lower(x)));
  };
  auto max_birth_below = [&](int x) {
    const std::size_t i = births.lower(x);
    const std::size_t j = alive_births.at_or_before(i == 0 ? kNone : i - 1);
    return j == kNone ? kMinEnd : births.value[j];
  };
  auto min_death_above = [&](int x) {
    const std::size_t j = alive_deaths.at_or_after(deaths.upper(x));
    return j == n ? kMaxEnd : deaths.value[j];
  };
  auto max_death_upto = [&](int x) {
    const std::size_t i = deaths.upper(x);
    return death_at(alive_deaths.at_or_before(i == 0 ? kNone : i - 1));
  };

  // The vertices not yet found simplicial, as the birth of each in death
  // order and the negated death of each in birth order.
  std::vector<std::int64_t> values(n);
  for (std::size_t j = 0; j < n; ++j) values[j] = birth[deaths.vertex[j]];
  ThresholdTree waiting_by_death(values);
  for (std::size_t j = 0; j < n; ++j) {
    values[j] = -std::int64_t{death[births.vertex[j]]};
  }
  ThresholdTree waiting_by_birth(values);

  using HeapItem = std::pair<std::size_t, std::size_t>;  // (rank, vertex)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  std::uint64_t checks = 0;
  auto ready = [&](std::size_t u) {
    waiting_by_death.erase(deaths.pos[u]);
    waiting_by_birth.erase(births.pos[u]);
    heap.emplace(rank(u), u);
  };

  for (std::size_t v = 0; v < n; ++v) {
    ++checks;
    if (max_birth_below(death[v]) < min_death_above(birth[v])) ready(v);
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> found;
  while (order.size() < n) {
    LBIST_CHECK(!heap.empty(), "interval graph without a simplicial vertex");
    const std::size_t v = heap.top().second;
    heap.pop();
    order.push_back(v);
    alive_births.erase(births.pos[v]);
    alive_deaths.erase(deaths.pos[v]);
    const int b = birth[v];
    const int d = death[v];

    // "Largest alive birth below x" loses b for x in (b, next alive birth
    // >= b], unless another alive vertex is also born at b.  There it
    // drops to p, the largest alive birth below b, and a waiting u with
    // death in that range turns simplicial iff no alive death lies in
    // (birth[u], p]: iff birth[u] >= the largest alive death <= p.
    const int next_birth = min_birth_from(b);
    if (next_birth != b) {
      const int p = max_birth_below(b);
      waiting_by_death.report(deaths.upper(b), deaths.upper(next_birth),
                              max_death_upto(p), found);
      for (const std::size_t j : found) {
        ++checks;
        ready(deaths.vertex[j]);
      }
      found.clear();
    }
    // Symmetrically, "smallest alive death above x" loses d for x in
    // [previous alive death <= d, d), unless another alive vertex also
    // dies at d.  There it rises to q, the smallest alive death above d,
    // and a waiting u with birth in that range turns simplicial iff no
    // alive birth lies in [q, death[u]): iff death[u] <= the smallest
    // alive birth >= q.
    const int prev_death = max_death_upto(d);
    if (prev_death != d) {
      const int q = min_death_above(d);
      waiting_by_birth.report(births.lower(prev_death), births.lower(d),
                              -std::int64_t{min_birth_from(q)}, found);
      for (const std::size_t j : found) {
        ++checks;
        ready(births.vertex[j]);
      }
      found.clear();
    }
  }
  if (stats != nullptr) stats->simplicial_checks += checks;
  return order;
}

std::vector<std::size_t> interval_max_clique_through_vertex(
    const std::vector<int>& birth, const std::vector<int>& death) {
  check_intervals(birth, death);
  const std::size_t n = birth.size();
  std::vector<int> births = birth;
  std::vector<int> deaths = death;
  std::sort(births.begin(), births.end());
  std::sort(deaths.begin(), deaths.end());
  std::vector<int> points = deaths;
  points.erase(std::unique(points.begin(), points.end()), points.end());

  // cover[k]: intervals containing death value points[k] — born before it
  // and not dead before it.
  const std::size_t k = points.size();
  std::vector<std::vector<std::uint32_t>> table(1);
  table[0].resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto born = std::lower_bound(births.begin(), births.end(),
                                       points[i]) - births.begin();
    const auto dead = std::lower_bound(deaths.begin(), deaths.end(),
                                       points[i]) - deaths.begin();
    table[0][i] = static_cast<std::uint32_t>(born - dead);
  }
  // Sparse table: table[j][i] = max cover over points [i, i + 2^j).
  for (std::size_t j = 1; (std::size_t{1} << j) <= k; ++j) {
    const std::size_t half = std::size_t{1} << (j - 1);
    std::vector<std::uint32_t> row(k - (std::size_t{1} << j) + 1);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = std::max(table[j - 1][i], table[j - 1][i + half]);
    }
    table.push_back(std::move(row));
  }

  std::vector<std::size_t> mcs(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    // Death values in (birth, death]; never empty: death[v] is one.
    const auto lo = static_cast<std::size_t>(
        std::upper_bound(points.begin(), points.end(), birth[v]) -
        points.begin());
    const auto hi = static_cast<std::size_t>(
        std::upper_bound(points.begin(), points.end(), death[v]) -
        points.begin());
    const auto j = static_cast<std::size_t>(std::bit_width(hi - lo) - 1);
    mcs[v] = std::max(table[j][lo], table[j][hi - (std::size_t{1} << j)]);
  }
  return mcs;
}

}  // namespace lbist
