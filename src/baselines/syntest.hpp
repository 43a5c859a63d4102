#pragma once
// SYNTEST-style baseline (Papachristou/Chiu/Harmanani DAC'91, Harmanani &
// Papachristou ICCAD'93): synthesis constrained to a *self-testable
// template* — no register may be both an input register and an output
// register of the same module (no self-loops), so every test register can
// stay a dedicated single-mode TPG or SA and no CBILBO is ever needed.
//
// SYNTEST itself is not available; this reimplements the published style
// (see DESIGN.md §2): reverse-PVES coloring that opens a fresh register
// rather than accept a merge creating (a) a self-loop or (b) a register
// that would need both TPG and SA capability, followed by a direct
// template labelling: input registers become TPGs, output registers SAs.

#include "binding/module_binding.hpp"
#include "binding/register_binding.hpp"
#include "bist/allocator.hpp"
#include "dfg/dfg.hpp"
#include "graph/conflict.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// SYNTEST-style register binding (template-constrained).
[[nodiscard]] RegisterBinding bind_registers_syntest(
    const Dfg& dfg, const VarConflictGraph& cg, const ModuleBinding& mb,
    PeoStats* peo_stats = nullptr);

/// SYNTEST-style BIST labelling: TPG for registers feeding modules, SA for
/// registers fed by modules; a register doing both (template violation that
/// could not be avoided) becomes a BILBO.
[[nodiscard]] BistSolution syntest_bist_labelling(const Datapath& dp,
                                                  const AreaModel& model);

}  // namespace lbist
