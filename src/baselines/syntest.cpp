#include "baselines/syntest.hpp"

#include "graph/conflict.hpp"
#include "support/check.hpp"

namespace lbist {

RegisterBinding bind_registers_syntest(const Dfg& dfg,
                                       const VarConflictGraph& cg,
                                       const ModuleBinding& mb,
                                       PeoStats* peo_stats) {
  auto peo = conflict_elimination_order(cg, {}, peo_stats);
  LBIST_CHECK(peo.has_value(), "conflict graph is not chordal");
  std::vector<std::size_t> order(peo->rbegin(), peo->rend());

  const std::size_t n = cg.graph.num_vertices();
  const std::size_t m = mb.num_modules();

  struct RegState {
    std::vector<std::size_t> members;
    DynBitset member_vertices;
    DynBitset feeds;   // modules supplied with operands
    DynBitset fed_by;  // modules writing into this register
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

  for (std::size_t v : order) {
    const VarId var = cg.vars[v];
    const DynBitset vf = var_feeds(var);
    const DynBitset vb = var_fed_by(var);

    std::size_t chosen = regs.size();
    for (std::size_t r = 0; r < regs.size(); ++r) {
      if (cg.graph.row(v).intersects(regs[r].member_vertices)) continue;
      DynBitset feeds = regs[r].feeds;
      feeds |= vf;
      DynBitset fed_by = regs[r].fed_by;
      fed_by |= vb;
      // Template: (a) no self-loop (module both fed by and feeding the
      // register), (b) register stays single-role (TPG xor SA).
      const bool self_loop = feeds.intersects(fed_by);
      const bool dual_role = feeds.any() && fed_by.any();
      const bool was_dual =
          regs[r].feeds.any() && regs[r].fed_by.any();
      if (!self_loop && (!dual_role || was_dual)) {
        chosen = r;
        break;
      }
    }
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

BistSolution syntest_bist_labelling(const Datapath& dp,
                                    const AreaModel& model) {
  BistSolution sol;
  sol.roles.assign(dp.registers.size(), BistRole::None);
  sol.embeddings.assign(dp.modules.size(), std::nullopt);

  for (std::size_t r = 0; r < dp.registers.size(); ++r) {
    bool feeds = false;
    bool fed = false;
    for (const auto& mod : dp.modules) {
      if (mod.left_sources.count(r) > 0 || mod.right_sources.count(r) > 0) {
        feeds = true;
      }
      if (mod.dest_registers.count(r) > 0) fed = true;
    }
    if (feeds && fed) {
      sol.roles[r] = BistRole::TpgSa;  // template violation fallback
    } else if (feeds) {
      sol.roles[r] = BistRole::Tpg;
    } else if (fed) {
      sol.roles[r] = BistRole::Sa;
    }
    sol.extra_area += model.role_extra(sol.roles[r]);
  }
  return sol;
}

}  // namespace lbist
