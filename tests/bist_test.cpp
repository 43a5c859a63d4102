// Unit tests for the BIST library: area model, role lattice, exact and
// greedy allocation, and test-session scheduling.

#include <gtest/gtest.h>

#include "bist/allocator.hpp"
#include "bist/area_model.hpp"
#include "bist/roles.hpp"
#include "bist/sessions.hpp"
#include "bist_reference_dp.hpp"
#include "bist_solution_eq.hpp"
#include "mid_range_designs.hpp"
#include "obs/events.hpp"

namespace lbist {
namespace {

/// Same synthetic datapath as rtl_test's fig_datapath.
Datapath fig_datapath() {
  Datapath dp;
  dp.name = "fig";
  dp.num_allocated = 4;
  for (int i = 1; i <= 4; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  DpModule m1;
  m1.name = "M1(+)";
  m1.proto = ModuleProto{{OpKind::Add}};
  m1.left_sources = {0, 1};
  m1.right_sources = {2};
  m1.dest_registers = {3};
  DpModule m2;
  m2.name = "M2(*)";
  m2.proto = ModuleProto{{OpKind::Mul}};
  m2.left_sources = {0};
  m2.right_sources = {2};
  m2.dest_registers = {3};
  dp.modules = {m1, m2};
  dp.registers[3].source_modules = {0, 1};
  return dp;
}

TEST(Roles, FlagsMapToLattice) {
  EXPECT_EQ(RoleFlags{}.role(), BistRole::None);
  EXPECT_EQ((RoleFlags{true, false, false}).role(), BistRole::Tpg);
  EXPECT_EQ((RoleFlags{false, true, false}).role(), BistRole::Sa);
  EXPECT_EQ((RoleFlags{true, true, false}).role(), BistRole::TpgSa);
  EXPECT_EQ((RoleFlags{true, true, true}).role(), BistRole::Cbilbo);
}

TEST(Roles, EncodeDecodeRoundTrip) {
  for (std::uint8_t bits = 0; bits < 8; ++bits) {
    EXPECT_EQ(RoleFlags::decode(bits).encode(), bits);
  }
}

TEST(AreaModel, CbilboIsTwiceRegister) {
  AreaModel m;
  // The paper: CBILBO area ≈ 2x a normal register.
  EXPECT_NEAR(m.register_area() + m.role_extra(BistRole::Cbilbo),
              2.0 * m.register_area(), 1e-9);
}

TEST(AreaModel, RoleCostsAreMonotone) {
  AreaModel m;
  EXPECT_LT(m.role_extra(BistRole::None), m.role_extra(BistRole::Tpg));
  EXPECT_LT(m.role_extra(BistRole::Tpg), m.role_extra(BistRole::TpgSa));
  EXPECT_LT(m.role_extra(BistRole::TpgSa), m.role_extra(BistRole::Cbilbo));
}

TEST(AreaModel, ModuleAreas) {
  AreaModel m;
  const double add = m.module_area(ModuleProto{{OpKind::Add}});
  const double mul = m.module_area(ModuleProto{{OpKind::Mul}});
  EXPECT_GT(mul, add);  // multiplier is quadratic in width
  // ALU costs more than its largest member but less than the sum.
  const double alu = m.module_area(ModuleProto{{OpKind::Add, OpKind::Sub}});
  const double sub = m.module_area(ModuleProto{{OpKind::Sub}});
  EXPECT_GT(alu, sub);
  EXPECT_LT(alu, add + sub);
}

TEST(AreaModel, MuxAreaScalesWithInputs) {
  AreaModel m;
  EXPECT_EQ(m.mux_area(1), 0.0);
  EXPECT_GT(m.mux_area(3), m.mux_area(2));
}

TEST(AreaModel, FunctionalAreaCountsEverything) {
  AreaModel m;
  Datapath dp = fig_datapath();
  const double area = m.functional_area(dp);
  const double regs = 4 * m.register_area();
  const double mods = m.module_area(dp.modules[0].proto) +
                      m.module_area(dp.modules[1].proto);
  const double muxes = 2 * m.mux_area(2);
  EXPECT_NEAR(area, regs + mods + muxes, 1e-9);
}

TEST(Allocator, SharesTpgsAndSaAcrossModules) {
  // Optimal solution for the fig datapath: R1+R3 as shared TPGs, R4 as
  // shared SA — 3 modified registers, no CBILBO (the Fig. 3 argument).
  AreaModel model;
  BistAllocator alloc(model);
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  EXPECT_TRUE(sol.untestable_modules.empty());
  auto counts = sol.counts();
  EXPECT_EQ(counts.cbilbo, 0);
  EXPECT_EQ(counts.tpg, 2);
  EXPECT_EQ(counts.sa, 1);
  EXPECT_EQ(counts.modified(), 3);
  EXPECT_EQ(sol.roles[0], BistRole::Tpg);
  EXPECT_EQ(sol.roles[2], BistRole::Tpg);
  EXPECT_EQ(sol.roles[3], BistRole::Sa);
  EXPECT_NEAR(sol.extra_area,
              2 * model.role_extra(BistRole::Tpg) +
                  model.role_extra(BistRole::Sa),
              1e-9);
}

TEST(Allocator, CbilboWhenForced) {
  // Single module whose only destination is also its only left source.
  Datapath dp = fig_datapath();
  dp.modules.resize(1);
  dp.modules[0].left_sources = {0};
  dp.modules[0].right_sources = {2};
  dp.modules[0].dest_registers = {0};
  dp.registers[3].source_modules.clear();
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  auto counts = sol.counts();
  EXPECT_EQ(counts.cbilbo, 1);
  EXPECT_EQ(sol.roles[0], BistRole::Cbilbo);
}

TEST(Allocator, BilboWhenTpgForOneSaForAnother) {
  // M1: R1,R2 -> R3;  M2: R3,R4 -> R5.  R3 is SA for M1 and TPG for M2.
  Datapath dp;
  dp.num_allocated = 5;
  for (int i = 1; i <= 5; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  DpModule m1;
  m1.proto = ModuleProto{{OpKind::Add}};
  m1.name = "M1";
  m1.left_sources = {0};
  m1.right_sources = {1};
  m1.dest_registers = {2};
  DpModule m2;
  m2.proto = ModuleProto{{OpKind::Add}};
  m2.name = "M2";
  m2.left_sources = {2};
  m2.right_sources = {3};
  m2.dest_registers = {4};
  dp.modules = {m1, m2};
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  EXPECT_EQ(sol.roles[2], BistRole::TpgSa);
  EXPECT_EQ(sol.counts().cbilbo, 0);
}

TEST(Allocator, GreedyMatchesExactOnSmallCases) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto exact = alloc.solve(dp);
  auto greedy = alloc.solve_greedy(dp);
  EXPECT_LE(exact.extra_area, greedy.extra_area + 1e-9);
}

TEST(Allocator, UntestableModuleReported) {
  Datapath dp = fig_datapath();
  dp.modules[1].left_sources = {2};
  dp.modules[1].right_sources = {2};  // single register on both ports
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  ASSERT_EQ(sol.untestable_modules.size(), 1u);
  EXPECT_EQ(sol.untestable_modules[0], 1u);
  EXPECT_FALSE(sol.embeddings[1].has_value());
}

TEST(Allocator, EmbeddingsRecoveredForEachModule) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    ASSERT_TRUE(sol.embeddings[m].has_value());
    const auto& e = *sol.embeddings[m];
    EXPECT_TRUE(dp.modules[m].left_sources.count(e.tpg_left) > 0);
    EXPECT_TRUE(dp.modules[m].right_sources.count(e.tpg_right) > 0);
    EXPECT_TRUE(dp.modules[m].dest_registers.count(*e.sa) > 0);
  }
}

TEST(Allocator, DescribeMentionsRoles) {
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  const std::string s = sol.describe(dp);
  EXPECT_NE(s.find("TPG"), std::string::npos);
  EXPECT_NE(s.find("R4"), std::string::npos);
}

TEST(RoleCounts, ToStringFormat) {
  RoleCounts c;
  c.cbilbo = 1;
  c.tpg = 2;
  EXPECT_EQ(c.to_string(), "1 CBILBO, 2 TPG");
  RoleCounts none;
  EXPECT_EQ(none.to_string(), "none");
}

TEST(Allocator, MinimizeSessionsNeverCostsArea) {
  BistAllocator plain{AreaModel{}};
  BistAllocator tuned{AreaModel{}};
  tuned.minimize_sessions = true;
  Datapath dp = fig_datapath();
  auto a = plain.solve(dp);
  auto b = tuned.solve(dp);
  EXPECT_DOUBLE_EQ(a.extra_area, b.extra_area);
  EXPECT_LE(schedule_test_sessions(dp, b).num_sessions,
            schedule_test_sessions(dp, a).num_sessions);
}

TEST(Allocator, MinimizeSessionsMatchesReference) {
  reference::LevelsDpOptions opts;
  opts.minimize_sessions = true;
  BistAllocator tuned{AreaModel{}};
  tuned.minimize_sessions = true;
  for (const Benchmark& bench : paper_benchmarks()) {
    for (BinderKind binder :
         {BinderKind::Traditional, BinderKind::BistAware}) {
      const Datapath dp = testing::paper_datapath(bench, binder);
      const BistSolution want =
          reference::solve_levels_dp(dp, AreaModel{}, opts);
      const BistSolution got = tuned.solve(dp);
      ASSERT_TRUE(want.exact) << bench.name;
      EXPECT_TRUE(got.exact) << bench.name;
      EXPECT_EQ(got.extra_area, want.extra_area) << bench.name;
      EXPECT_EQ(schedule_test_sessions(dp, got).num_sessions,
                schedule_test_sessions(dp, want).num_sessions)
          << bench.name;
    }
  }
}

TEST(Allocator, Random8x4BistSolvesExactly) {
  // 20 registers; the full-width levels DP gave up here and fell back to
  // greedy at 98 gates.
  const Datapath dp =
      testing::random_mid_datapath(8, 4, BinderKind::BistAware);
  BistDpStats stats;
  const BistSolution sol = BistAllocator{AreaModel{}}.solve(dp, &stats);
  EXPECT_TRUE(sol.exact);
  EXPECT_DOUBLE_EQ(sol.extra_area, 86.0);
  EXPECT_EQ(stats.fallback, nullptr);
  EXPECT_LT(stats.live_max, dp.registers.size());
}

TEST(Allocator, Fir32BothArmsSolveExactly) {
  // 70 registers counting input registers, about half of them live at once.
  for (auto [binder, area] : {std::pair{BinderKind::Traditional, 76.0},
                              std::pair{BinderKind::BistAware, 70.0}}) {
    const Datapath dp = testing::fir_datapath(32, binder);
    const BistSolution sol = BistAllocator{AreaModel{}}.solve(dp);
    EXPECT_TRUE(sol.exact);
    EXPECT_DOUBLE_EQ(sol.extra_area, area);
  }
}

TEST(Allocator, ExhaustedBudgetFallsBackToGreedyOnce) {
  const Datapath dp = fig_datapath();
  AlgorithmEvents events;
  BistAllocator alloc{AreaModel{}};
  alloc.transition_budget = 1;
  alloc.events = &events;
  BistDpStats stats;
  const BistSolution sol = alloc.solve(dp, &stats);
  const BistSolution greedy = BistAllocator{AreaModel{}}.solve_greedy(dp);
  EXPECT_FALSE(sol.exact);
  EXPECT_TRUE(sol.roles == greedy.roles);
  EXPECT_EQ(sol.extra_area, greedy.extra_area);
  EXPECT_EQ(events.count("bist_greedy_fallback"), 1u);
  EXPECT_STREQ(stats.fallback, "budget");
  // The first level needs 2 transitions, so it is not begun.
  EXPECT_EQ(stats.transitions, 0u);
}

TEST(Allocator, BudgetBoundaryKeepsTheFallbackDecision) {
  // random8x4/bist needs exactly 687,212 transitions.
  const Datapath dp =
      testing::random_mid_datapath(8, 4, BinderKind::BistAware);
  BistAllocator alloc{AreaModel{}};
  alloc.transition_budget = 687212;
  BistDpStats stats;
  const BistSolution sol = alloc.solve(dp, &stats);
  EXPECT_TRUE(sol.exact);
  EXPECT_EQ(stats.fallback, nullptr);
  EXPECT_EQ(stats.transitions, 687212u);

  alloc.transition_budget = 687211;
  AlgorithmEvents events;
  alloc.events = &events;
  const BistSolution fallback = alloc.solve(dp, &stats);
  alloc.events = nullptr;
  EXPECT_FALSE(fallback.exact);
  EXPECT_STREQ(stats.fallback, "budget");
  EXPECT_EQ(events.count("bist_greedy_fallback"), 1u);
  testing::expect_same_solution(fallback, alloc.solve_greedy(dp),
                                "random8x4/bist");
}

TEST(Allocator, MidRangeFallbacksPinTheirWork) {
  // The four `mid-exact` allocations that overrun the default budget.
  // `transitions` counts every level begun, the abandoned one included;
  // `peak_frontier` is what the abandoned level held when the next level
  // could no longer afford it.  Building that level in full would peak
  // at 388,770 / 506,220 / 723,509 / 893,562 states.
  struct Arm {
    int steps;
    int width;
    BinderKind binder;
    std::uint64_t transitions;
    std::size_t peak_frontier;
  };
  for (const Arm& arm : {Arm{10, 5, BinderKind::Traditional, 1282612, 145290},
                         Arm{12, 6, BinderKind::Traditional, 681344, 64713},
                         Arm{10, 5, BinderKind::BistAware, 3999087, 100016},
                         Arm{12, 6, BinderKind::BistAware, 1145958, 110676}}) {
    const Datapath dp =
        testing::random_mid_datapath(arm.steps, arm.width, arm.binder);
    const std::string label = "random" + std::to_string(arm.steps) + "x" +
                              std::to_string(arm.width) + "/" +
                              (arm.binder == BinderKind::BistAware ? "bist"
                                                                   : "trad");
    const BistAllocator alloc{AreaModel{}};
    BistDpStats stats;
    const BistSolution sol = alloc.solve(dp, &stats);
    EXPECT_FALSE(sol.exact) << label;
    EXPECT_STREQ(stats.fallback, "budget") << label;
    EXPECT_EQ(stats.transitions, arm.transitions) << label;
    EXPECT_EQ(stats.peak_frontier, arm.peak_frontier) << label;
    testing::expect_same_solution(sol, alloc.solve_greedy(dp), label);
  }
}

TEST(Allocator, RegisterGateReportsFallback) {
  BistAllocator alloc{AreaModel{}};
  alloc.exact_max_regs = 2;
  BistDpStats stats;
  const BistSolution sol = alloc.solve(fig_datapath(), &stats);
  EXPECT_FALSE(sol.exact);
  EXPECT_STREQ(stats.fallback, "regs");
  EXPECT_EQ(stats.transitions, 0u);
}

TEST(Sessions, SharedSaForcesTwoSessions) {
  // Both modules use R4 as SA -> they cannot be tested together.
  BistAllocator alloc{AreaModel{}};
  Datapath dp = fig_datapath();
  auto sol = alloc.solve(dp);
  auto plan = schedule_test_sessions(dp, sol);
  EXPECT_EQ(plan.num_sessions, 2);
  EXPECT_NE(plan.session_of[0], plan.session_of[1]);
}

TEST(Sessions, DisjointModulesShareASession) {
  Datapath dp;
  dp.num_allocated = 6;
  for (int i = 1; i <= 6; ++i) {
    DpRegister r;
    r.name = "R" + std::to_string(i);
    dp.registers.push_back(r);
  }
  for (int m = 0; m < 2; ++m) {
    DpModule mod;
    mod.proto = ModuleProto{{OpKind::Add}};
    mod.name = "M" + std::to_string(m + 1);
    mod.left_sources = {static_cast<std::size_t>(3 * m)};
    mod.right_sources = {static_cast<std::size_t>(3 * m + 1)};
    mod.dest_registers = {static_cast<std::size_t>(3 * m + 2)};
    dp.modules.push_back(mod);
  }
  BistAllocator alloc{AreaModel{}};
  auto sol = alloc.solve(dp);
  auto plan = schedule_test_sessions(dp, sol);
  EXPECT_EQ(plan.num_sessions, 1);
}

}  // namespace
}  // namespace lbist
