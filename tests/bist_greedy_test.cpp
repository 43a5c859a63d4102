// Differential test of the greedy BIST allocator: `solve_greedy`, which
// finds each module's best embedding from its port lists, against the
// streaming scan of the whole embedding space that it replaced
// (bist_reference_greedy.hpp).  Both must return the same embeddings,
// roles and area on every data path and area model, tie-breaks included.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "bist_reference_greedy.hpp"
#include "bist_solution_eq.hpp"
#include "mid_range_designs.hpp"

namespace lbist {
namespace {

void expect_matches_reference(const Datapath& dp, const AreaModel& model,
                              bool transparent, const std::string& label) {
  BistAllocator alloc(model);
  alloc.use_transparent_paths = transparent;
  BistDpStats stats;
  const BistSolution got = alloc.solve_greedy(dp, &stats);
  const BistSolution want =
      reference::solve_streaming_greedy(dp, model, transparent);
  EXPECT_FALSE(got.exact) << label;
  testing::expect_same_solution(got, want, label);
  if (!dp.modules.empty()) {
    EXPECT_GT(stats.greedy_candidates, 0u) << label;
  }
}

struct Shape {
  int max_regs;
  int max_mods;
  int max_fan_in;  ///< per input port
  int max_dests;
};

/// A random data path.  Registers are few next to the modules, so they are
/// shared and reach every flag code; a dest is often a source of the same
/// module too (CBILBO embeddings), a module may have no dest register (its
/// output is observed at a pin) or a single source per port, and a port
/// may list more registers of one flag code than the scan keeps per code.
Datapath random_datapath(std::uint32_t seed, const Shape& shape) {
  std::mt19937 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Datapath dp;
  dp.name = "random-greedy-dp-" + std::to_string(seed);
  const int nregs = pick(2, shape.max_regs);
  dp.num_allocated = static_cast<std::size_t>(nregs);
  for (int r = 0; r < nregs; ++r) {
    DpRegister reg;
    reg.name = "R" + std::to_string(r);
    dp.registers.push_back(reg);
  }
  auto subset = [&](int lo, int hi) {
    std::set<std::size_t> regs;
    const int want = std::min(pick(lo, hi), nregs);
    while (static_cast<int>(regs.size()) < want) {
      regs.insert(static_cast<std::size_t>(pick(0, nregs - 1)));
    }
    return regs;
  };
  const int nmods = pick(1, shape.max_mods);
  for (int m = 0; m < nmods; ++m) {
    DpModule mod;
    mod.name = "M" + std::to_string(m);
    mod.proto = ModuleProto{{pick(0, 3) == 0 ? OpKind::Lt : OpKind::Add}};
    mod.left_sources = subset(1, pick(0, 2) == 0 ? 1 : shape.max_fan_in);
    mod.right_sources = subset(1, pick(0, 2) == 0 ? 1 : shape.max_fan_in);
    mod.dest_registers = subset(0, shape.max_dests);
    // Feed a source back as a dest: a CBILBO candidate.
    if (pick(0, 1) == 0) {
      const auto& port = pick(0, 1) == 0 ? mod.left_sources
                                         : mod.right_sources;
      mod.dest_registers.insert(*port.begin());
    }
    for (std::size_t d : mod.dest_registers) {
      dp.registers[d].source_modules.insert(static_cast<std::size_t>(m));
    }
    dp.modules.push_back(mod);
  }
  return dp;
}

/// A random role-area model.  Per-bit costs mix fractions, zeros, negative
/// values (not flag-monotone) and magnitudes far apart, so sums round and
/// classes of different register terms can tie.
AreaModel random_model(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const double costs[] = {0.0, 0.1, 0.3, 1.0 / 3.0, 2.5, 4.0, 6.0,
                          7.25, -1.5, 1e16, 3e-17, 1e16 + 2.0};
  auto cost = [&] {
    return costs[std::uniform_int_distribution<std::size_t>(
        0, std::size(costs) - 1)(rng)];
  };
  AreaModel model;
  model.bit_width = std::uniform_int_distribution<int>(1, 16)(rng);
  model.tpg_extra_per_bit = cost();
  model.sa_extra_per_bit = cost();
  model.bilbo_extra_per_bit = cost();
  model.cbilbo_extra_per_bit = cost();
  return model;
}

TEST(BistGreedyDifferential, SeededRandomDatapathsDefaultModel) {
  const Shape shapes[] = {{4, 12, 3, 2}, {12, 30, 6, 4}, {40, 25, 14, 8}};
  for (int i = 0; i < 300; ++i) {
    const Datapath dp =
        random_datapath(static_cast<std::uint32_t>(5000 + i), shapes[i % 3]);
    expect_matches_reference(dp, AreaModel{}, false, dp.name);
    if (i % 5 == 0) expect_matches_reference(dp, AreaModel{}, true, dp.name);
  }
}

TEST(BistGreedyDifferential, SeededRandomDatapathsRandomModels) {
  const Shape shapes[] = {{4, 12, 3, 2}, {12, 30, 6, 4}, {40, 25, 14, 8}};
  int non_monotone = 0;
  for (int i = 0; i < 600; ++i) {
    const AreaModel model = random_model(static_cast<std::uint32_t>(i));
    if (model.bilbo_extra_per_bit < model.tpg_extra_per_bit ||
        model.tpg_extra_per_bit < 0.0) {
      ++non_monotone;
    }
    const Datapath dp =
        random_datapath(static_cast<std::uint32_t>(9000 + i), shapes[i % 3]);
    const std::string label = dp.name + " model " + std::to_string(i);
    expect_matches_reference(dp, model, false, label);
    if (i % 7 == 0) expect_matches_reference(dp, model, true, label);
  }
  EXPECT_GT(non_monotone, 0);
}

TEST(BistGreedyDifferential, PaperAndMidRangeDesigns) {
  AreaModel fractional;
  fractional.tpg_extra_per_bit = 0.1;
  fractional.sa_extra_per_bit = 0.2;
  fractional.bilbo_extra_per_bit = 0.3;
  fractional.cbilbo_extra_per_bit = 1.0 / 3.0;
  AreaModel non_monotone;
  non_monotone.bilbo_extra_per_bit = 1.0;
  for (BinderKind binder : {BinderKind::Traditional, BinderKind::BistAware}) {
    std::vector<std::pair<std::string, Datapath>> designs;
    for (const Benchmark& bench : paper_benchmarks()) {
      designs.emplace_back(bench.name,
                           testing::paper_datapath(bench, binder));
    }
    for (int taps : {8, 16, 32}) {
      designs.emplace_back("fir" + std::to_string(taps),
                           testing::fir_datapath(taps, binder));
    }
    for (auto [steps, width] : {std::pair{6, 3}, std::pair{8, 4},
                                std::pair{10, 5}, std::pair{12, 6}}) {
      designs.emplace_back(
          "random" + std::to_string(steps) + "x" + std::to_string(width),
          testing::random_mid_datapath(steps, width, binder));
    }
    for (const auto& [name, dp] : designs) {
      const std::string label =
          name + " binder " + std::to_string(static_cast<int>(binder));
      for (const AreaModel& model : {AreaModel{}, fractional, non_monotone}) {
        expect_matches_reference(dp, model, false, label);
      }
      expect_matches_reference(dp, AreaModel{}, true, label);
    }
  }
}

TEST(BistGreedyDifferential, LargeRandomDesign) {
  // The large-design regime: 1k ops, hundreds of registers, wide ports.
  RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = 1000 / o.ops_per_step;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  const RandomDfg rd = make_random_dfg(o);
  SynthesisOptions opts;
  opts.binder = BinderKind::BistAware;
  opts.lifetime.hold_outputs_to_end = false;
  const Datapath dp =
      Synthesizer(opts)
          .run(rd.dfg, rd.schedule, minimal_module_spec(rd.dfg, rd.schedule))
          .datapath;
  ASSERT_GT(dp.registers.size(), 192u);
  expect_matches_reference(dp, AreaModel{}, false, "random1000");
  expect_matches_reference(dp, random_model(7), false, "random1000 model 7");
}

}  // namespace
}  // namespace lbist
