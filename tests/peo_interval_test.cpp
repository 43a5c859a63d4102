// Differential test of the interval elimination order: on interval graphs,
// `interval_elimination_order` and `interval_max_clique_through_vertex`
// must return exactly what the generic bitset `perfect_elimination_order`
// and `max_clique_through_vertex` return on the same graph, with and
// without a priority rank.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "binding/bist_aware_binder.hpp"
#include "binding/module_binding.hpp"
#include "binding/module_spec.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/lifetime.hpp"
#include "dfg/random_dfg.hpp"
#include "graph/chordal.hpp"
#include "graph/conflict.hpp"

namespace lbist {
namespace {

struct Intervals {
  std::vector<int> birth;
  std::vector<int> death;
};

UndirectedGraph interval_graph(const Intervals& iv) {
  const std::size_t n = iv.birth.size();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (iv.birth[a] < iv.death[b] && iv.birth[b] < iv.death[a]) {
        edges.emplace_back(static_cast<std::uint32_t>(a),
                           static_cast<std::uint32_t>(b));
      }
    }
  }
  return UndirectedGraph(n, edges);
}

int pick(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Random intervals over a short horizon, so equal births, equal deaths,
/// nesting and exact duplicates are all common.
Intervals random_intervals(std::size_t n, int horizon, int max_len,
                           std::mt19937_64& rng) {
  Intervals iv;
  for (std::size_t v = 0; v < n; ++v) {
    if (v > 0 && pick(rng, 0, 7) == 0) {  // duplicate an earlier interval
      const auto u = static_cast<std::size_t>(
          pick(rng, 0, static_cast<int>(v) - 1));
      iv.birth.push_back(iv.birth[u]);
      iv.death.push_back(iv.death[u]);
      continue;
    }
    const int b = pick(rng, -horizon / 2, horizon - 1 - horizon / 2);
    iv.birth.push_back(b);
    iv.death.push_back(b + pick(rng, 1, max_len));
  }
  return iv;
}

void expect_same_as_generic(const Intervals& iv,
                            const std::vector<std::size_t>& rank,
                            const std::string& label) {
  const UndirectedGraph g = interval_graph(iv);
  PeoStats generic_stats;
  const auto want = perfect_elimination_order(g, rank, &generic_stats);
  ASSERT_TRUE(want.has_value()) << label;
  PeoStats stats;
  EXPECT_EQ(interval_elimination_order(iv.birth, iv.death, rank, &stats),
            *want)
      << label;
  EXPECT_GE(stats.simplicial_checks, iv.birth.size()) << label;
  EXPECT_EQ(interval_max_clique_through_vertex(iv.birth, iv.death),
            max_clique_through_vertex(g, *want))
      << label;
}

TEST(IntervalPeo, MatchesGenericOnRandomIntervals) {
  std::mt19937_64 rng(16);
  for (int trial = 0; trial < 400; ++trial) {
    const auto n = static_cast<std::size_t>(pick(rng, 1, 70));
    const int horizon = pick(rng, 2, 41);
    const int max_len = pick(rng, 1, 12);
    const Intervals iv = random_intervals(n, horizon, max_len, rng);
    const std::string label = "trial " + std::to_string(trial);
    expect_same_as_generic(iv, {}, label);
    // Ranks with ties (broken by vertex index) and a permutation.
    std::vector<std::size_t> rank(n);
    for (std::size_t v = 0; v < n; ++v) {
      rank[v] = static_cast<std::size_t>(pick(rng, 0, 3));
    }
    expect_same_as_generic(iv, rank, label + " tied rank");
    std::vector<std::size_t> perm(n);
    for (std::size_t v = 0; v < n; ++v) perm[v] = v;
    std::shuffle(perm.begin(), perm.end(), rng);
    expect_same_as_generic(iv, perm, label + " permutation");
  }
}

TEST(IntervalPeo, DegenerateShapes) {
  // Empty, one vertex, all identical, a nested tower, a chain.
  expect_same_as_generic({}, {}, "empty");
  expect_same_as_generic({{3}, {4}}, {}, "single");
  expect_same_as_generic({{0, 0, 0, 0}, {2, 2, 2, 2}}, {3, 2, 1, 0},
                         "identical");
  expect_same_as_generic({{0, 1, 2, 3}, {8, 7, 6, 5}}, {}, "nested");
  expect_same_as_generic({{0, 1, 2, 3}, {2, 3, 4, 5}}, {3, 1, 2, 0},
                         "chain");
  EXPECT_THROW((void)interval_elimination_order({2}, {2}), Error);
}

void expect_conflict_graph_same(const VarConflictGraph& cg,
                                const std::string& label) {
  ASSERT_TRUE(cg.has_lifetimes()) << label;
  const auto want = perfect_elimination_order(cg.graph);
  ASSERT_TRUE(want.has_value()) << label;
  EXPECT_EQ(conflict_elimination_order(cg), want) << label;
  EXPECT_EQ(conflict_max_clique_sizes(cg),
            max_clique_through_vertex(cg.graph, *want))
      << label;
  // The binder's rank: by vertex, reversed.
  const std::size_t n = cg.vars.size();
  std::vector<std::size_t> rank(n);
  for (std::size_t v = 0; v < n; ++v) rank[v] = n - 1 - v;
  EXPECT_EQ(conflict_elimination_order(cg, rank),
            perfect_elimination_order(cg.graph, rank))
      << label;
}

TEST(IntervalPeo, MatchesGenericOnPaperConflictGraphs) {
  for (const Benchmark& bench : paper_benchmarks()) {
    const auto lt =
        compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    expect_conflict_graph_same(build_conflict_graph(bench.design.dfg, lt),
                               bench.name);
  }
}

TEST(IntervalPeo, MatchesGenericOnRandom1kOpDesigns) {
  for (std::uint64_t seed : {424242u, 7u, 99u}) {
    RandomDfgOptions o;
    o.seed = seed;
    o.ops_per_step = 8;
    o.num_steps = 1000 / o.ops_per_step;
    o.num_inputs = 12;
    o.reuse_probability = 0.9;
    o.chain_probability = 0.3;
    const RandomDfg rd = make_random_dfg(o);
    for (bool hold : {false, true}) {
      LifetimeOptions lo;
      lo.hold_outputs_to_end = hold;
      const auto lt = compute_lifetimes(rd.dfg, rd.schedule, lo);
      expect_conflict_graph_same(
          build_conflict_graph(rd.dfg, lt),
          "seed " + std::to_string(seed) + " hold " + std::to_string(hold));
    }
  }
}

TEST(IntervalPeo, BinderMatchesGenericPath) {
  // The same conflict graph with its lifetimes dropped takes the generic
  // path; the BIST-aware binding must not change.
  for (const Benchmark& bench : paper_benchmarks()) {
    const auto lt =
        compute_lifetimes(bench.design.dfg, *bench.design.schedule);
    const VarConflictGraph cg = build_conflict_graph(bench.design.dfg, lt);
    VarConflictGraph edges_only = cg;
    edges_only.birth.clear();
    edges_only.death.clear();
    ASSERT_FALSE(edges_only.has_lifetimes());
    const auto mb =
        ModuleBinding::bind(bench.design.dfg, *bench.design.schedule,
                            parse_module_spec(bench.module_spec));
    EXPECT_EQ(bind_registers_bist_aware(bench.design.dfg, cg, mb).regs,
              bind_registers_bist_aware(bench.design.dfg, edges_only, mb).regs)
        << bench.name;
  }
}

TEST(IntervalPeo, EmptyLifetimeFallsBackToEdges) {
  // A restored snapshot may carry an empty lifetime; the conflict graph
  // then keeps only its edges, and the generic order answers.
  auto bench = make_ex1();
  auto lt = compute_lifetimes(bench.design.dfg, *bench.design.schedule);
  for (const Variable& v : bench.design.dfg.vars()) {
    if (v.allocatable()) {
      lt[v.id].death = lt[v.id].birth;
      break;
    }
  }
  const VarConflictGraph cg = build_conflict_graph(bench.design.dfg, lt);
  EXPECT_FALSE(cg.has_lifetimes());
  EXPECT_EQ(conflict_elimination_order(cg),
            perfect_elimination_order(cg.graph));
}

}  // namespace
}  // namespace lbist
