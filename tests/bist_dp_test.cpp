// Differential test of the exact BIST allocator: `BistAllocator::solve`,
// a DP over a path decomposition, against the levels DP it replaced
// (bist_reference_dp.hpp).  Wherever the reference finishes, both must
// return the same roles, embeddings, area and exactness, tie-breaks
// included.  Everywhere, `solve` must be no worse than the greedy solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "bist_reference_dp.hpp"
#include "mid_range_designs.hpp"

namespace lbist {
namespace {

bool same_embedding(const std::optional<BistEmbedding>& a,
                    const std::optional<BistEmbedding>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->module == b->module && a->tpg_left == b->tpg_left &&
         a->tpg_right == b->tpg_right && a->sa == b->sa &&
         a->left_through == b->left_through &&
         a->right_through == b->right_through &&
         a->left_via == b->left_via && a->right_via == b->right_via;
}

struct Settings {
  AreaModel model{};
  bool transparent = false;
  bool minimize_sessions = false;
};

/// Runs `solve`, the greedy solver and the reference on `dp`.  Returns
/// true if the reference finished, i.e. the results were compared.
bool matches_reference(const Datapath& dp, const Settings& s,
                       const std::string& label) {
  BistAllocator alloc(s.model);
  alloc.use_transparent_paths = s.transparent;
  alloc.minimize_sessions = s.minimize_sessions;
  const BistSolution got = alloc.solve(dp);
  const BistSolution greedy = alloc.solve_greedy(dp);
  EXPECT_LE(got.extra_area, greedy.extra_area + 1e-9) << label;

  reference::LevelsDpOptions opts;
  opts.use_transparent_paths = s.transparent;
  opts.minimize_sessions = s.minimize_sessions;
  const BistSolution want = reference::solve_levels_dp(dp, s.model, opts);
  if (!want.exact) return false;
  EXPECT_TRUE(got.exact) << label;
  EXPECT_EQ(got.extra_area, want.extra_area) << label;
  EXPECT_TRUE(got.roles == want.roles) << label;
  EXPECT_EQ(got.untestable_modules, want.untestable_modules) << label;
  EXPECT_EQ(got.embeddings.size(), want.embeddings.size()) << label;
  for (std::size_t m = 0;
       m < std::min(got.embeddings.size(), want.embeddings.size()); ++m) {
    EXPECT_TRUE(same_embedding(got.embeddings[m], want.embeddings[m]))
        << label << " module " << m;
  }
  return true;
}

/// A random data path with up to `max_regs` registers and `max_mods`
/// modules: port fan-ins of 1-4, 0-3 destinations (0: the output is
/// observed at a pin), so untestable modules, CBILBOs and shared
/// registers all occur.
Datapath random_datapath(std::uint32_t seed, int max_regs, int max_mods) {
  std::mt19937 rng(seed);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Datapath dp;
  dp.name = "random-dp-" + std::to_string(seed);
  const int nregs = pick(2, max_regs);
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
  const int nmods = pick(1, max_mods);
  for (int m = 0; m < nmods; ++m) {
    DpModule mod;
    mod.name = "M" + std::to_string(m);
    mod.proto = ModuleProto{{pick(0, 3) == 0 ? OpKind::Lt : OpKind::Add}};
    mod.left_sources = subset(1, 4);
    mod.right_sources = subset(1, 4);
    mod.dest_registers = subset(0, 3);
    for (std::size_t d : mod.dest_registers) {
      dp.registers[d].source_modules.insert(static_cast<std::size_t>(m));
    }
    dp.modules.push_back(mod);
  }
  return dp;
}

TEST(BistDpDifferential, PaperBenchmarks) {
  for (const Benchmark& bench : paper_benchmarks()) {
    for (BinderKind binder :
         {BinderKind::Traditional, BinderKind::BistAware}) {
      const Datapath dp = testing::paper_datapath(bench, binder);
      for (int variant = 0; variant < 3; ++variant) {
        Settings s;
        s.transparent = variant == 1;
        s.minimize_sessions = variant == 2;
        const std::string label =
            bench.name + " binder " +
            std::to_string(static_cast<int>(binder)) + " variant " +
            std::to_string(variant);
        EXPECT_TRUE(matches_reference(dp, s, label)) << label;
      }
    }
  }
}

/// fir8/16/32 and random 6x3/8x4 under `binder`; the reference solves
/// those named in `reference_exact` within its 500k-state frontier cap.
void check_mid_range(BinderKind binder,
                     const std::set<std::string>& reference_exact) {
  std::vector<std::pair<std::string, Datapath>> designs;
  for (int taps : {8, 16, 32}) {
    designs.emplace_back("fir" + std::to_string(taps),
                         testing::fir_datapath(taps, binder));
  }
  designs.emplace_back("random6x3",
                       testing::random_mid_datapath(6, 3, binder));
  designs.emplace_back("random8x4",
                       testing::random_mid_datapath(8, 4, binder));
  for (const auto& [name, dp] : designs) {
    const bool compared = matches_reference(dp, Settings{}, name);
    EXPECT_EQ(compared, reference_exact.count(name) > 0) << name;
  }
}

TEST(BistDpDifferential, MidRangeTraditional) {
  check_mid_range(BinderKind::Traditional,
                  {"fir8", "fir16", "random6x3", "random8x4"});
}

TEST(BistDpDifferential, MidRangeBistAware) {
  check_mid_range(BinderKind::BistAware, {"fir8", "fir16", "random6x3"});
}

TEST(BistDpDifferential, SeededRandomDatapaths) {
  // A role-area model that is not flag-monotone (a BILBO cheaper than a
  // TPG) turns branch-and-bound pruning off in both solvers.
  AreaModel non_monotone;
  non_monotone.bilbo_extra_per_bit = 1.0;
  constexpr int kCases = 240;
  int compared = 0;
  for (int i = 0; i < kCases; ++i) {
    Settings s;
    s.transparent = i % 3 == 1;
    s.minimize_sessions = i % 4 == 2;
    const bool prune_off = i % 5 == 3;
    if (prune_off) s.model = non_monotone;
    const Datapath dp = random_datapath(static_cast<std::uint32_t>(1000 + i),
                                        prune_off ? 8 : 20,
                                        prune_off ? 4 : 8);
    if (matches_reference(dp, s, dp.name)) ++compared;
  }
  EXPECT_EQ(compared, kCases);
}

}  // namespace
}  // namespace lbist
