#include "baselines/ralloc.hpp"

#include <algorithm>

#include "graph/conflict.hpp"
#include "support/check.hpp"

namespace lbist {

RegisterBinding bind_registers_ralloc(const Dfg& dfg,
                                      const VarConflictGraph& cg,
                                      const ModuleBinding& mb,
                                      PeoStats* peo_stats) {
  auto peo = conflict_elimination_order(cg, {}, peo_stats);
  LBIST_CHECK(peo.has_value(), "conflict graph is not chordal");
  std::vector<std::size_t> order(peo->rbegin(), peo->rend());

  const std::size_t n = cg.graph.num_vertices();
  const std::size_t m = mb.num_modules();

  // Per-register masks over modules: which modules the register feeds
  // (inputs) and is fed by (outputs).
  struct RegState {
    std::vector<std::size_t> members;
    DynBitset member_vertices;
    DynBitset feeds;   // modules this register supplies operands to
    DynBitset fed_by;  // modules writing results into this register
  };
  std::vector<RegState> regs;

  auto var_feeds = [&](VarId v) {
    DynBitset out(m);
    for (std::size_t j = 0; j < m; ++j) {
      if (mb.input_vars(ModuleId{static_cast<ModuleId::value_type>(j)})
              .test(v.index())) {
        out.set(j);
      }
    }
    return out;
  };
  auto var_fed_by = [&](VarId v) {
    DynBitset out(m);
    for (std::size_t j = 0; j < m; ++j) {
      if (mb.output_vars(ModuleId{static_cast<ModuleId::value_type>(j)})
              .test(v.index())) {
        out.set(j);
      }
    }
    return out;
  };

  auto self_adjacent = [&](const DynBitset& feeds, const DynBitset& fed_by) {
    return feeds.intersects(fed_by);
  };

  for (std::size_t v : order) {
    const VarId var = cg.vars[v];
    const DynBitset vf = var_feeds(var);
    const DynBitset vb = var_fed_by(var);

    std::size_t chosen = regs.size();  // default: fresh register
    // Prefer a feasible register where the merge does not create a *new*
    // self-adjacency.
    for (std::size_t r = 0; r < regs.size(); ++r) {
      if (cg.graph.row(v).intersects(regs[r].member_vertices)) continue;
      DynBitset feeds = regs[r].feeds;
      feeds |= vf;
      DynBitset fed_by = regs[r].fed_by;
      fed_by |= vb;
      const bool was = self_adjacent(regs[r].feeds, regs[r].fed_by);
      const bool now = self_adjacent(feeds, fed_by);
      if (!now || was) {
        chosen = r;
        break;
      }
    }
    // A fresh register trades area for testability — Avra's tradeoff.  If
    // the vertex conflicts with everything anyway the fresh register is
    // mandatory; otherwise it is opened only to dodge a new self-adjacency.
    if (chosen == regs.size()) {
      regs.push_back(RegState{{}, DynBitset(n), DynBitset(m), DynBitset(m)});
    }
    RegState& reg = regs[chosen];
    reg.members.push_back(v);
    reg.member_vertices.set(v);
    reg.feeds |= vf;
    reg.fed_by |= vb;
  }

  RegisterBinding rb;
  rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
  rb.regs.resize(regs.size());
  for (std::size_t r = 0; r < regs.size(); ++r) {
    for (std::size_t v : regs[r].members) {
      rb.regs[r].push_back(cg.vars[v]);
      rb.reg_of[cg.vars[v]] = RegId{static_cast<RegId::value_type>(r)};
    }
  }
  return rb;
}

BistSolution ralloc_bist_labelling(const Datapath& dp,
                                   const AreaModel& model) {
  BistSolution sol;
  sol.roles.assign(dp.registers.size(), BistRole::None);
  sol.embeddings.assign(dp.modules.size(), std::nullopt);

  std::vector<bool> self_adj(dp.registers.size(), false);
  for (std::size_t r : dp.self_adjacent_registers()) self_adj[r] = true;

  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    bool touches = false;
    for (const auto& mod : dp.modules) {
      if (mod.left_sources.count(r) > 0 || mod.right_sources.count(r) > 0 ||
          mod.dest_registers.count(r) > 0) {
        touches = true;
        break;
      }
    }
    if (!touches) continue;
    sol.roles[r] = self_adj[r] ? BistRole::Cbilbo : BistRole::TpgSa;
    sol.extra_area += model.role_extra(sol.roles[r]);
  }
  return sol;
}

}  // namespace lbist
