#pragma once
// RALLOC-style baseline (Avra, ISCAS'91): register allocation that
// minimizes the number of *self-adjacent* registers, under the assumption
// that every self-adjacent register must become a CBILBO and every other
// register touching a module becomes a BILBO.
//
// Avra's tool is not available; this reimplements the published *style*
// (see DESIGN.md §2): reverse-PVES coloring where each vertex prefers a
// feasible register that creates no new self-adjacency, opening a fresh
// register (register count may exceed the minimum, as in Avra's published
// HAL result) when every feasible merge would create one.

#include "binding/module_binding.hpp"
#include "binding/register_binding.hpp"
#include "bist/allocator.hpp"
#include "dfg/dfg.hpp"
#include "graph/conflict.hpp"
#include "rtl/datapath.hpp"

namespace lbist {

/// RALLOC-style register binding (self-adjacency-minimizing).
[[nodiscard]] RegisterBinding bind_registers_ralloc(
    const Dfg& dfg, const VarConflictGraph& cg, const ModuleBinding& mb,
    PeoStats* peo_stats = nullptr);

/// RALLOC-style BIST labelling of a data path: every register that is a
/// source or destination of some module becomes a BILBO; self-adjacent
/// registers become CBILBOs.  (No embedding search — that is the point of
/// the baseline.)
[[nodiscard]] BistSolution ralloc_bist_labelling(const Datapath& dp,
                                                 const AreaModel& model);

}  // namespace lbist
