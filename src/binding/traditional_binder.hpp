#pragma once
// Traditional (testability-oblivious) register binders — the paper's
// comparison arm ("a minimum coloring obtained without regard for
// testability", Fig. 5(b) and the Traditional HLS columns of Table I).
//
// Two classical minimum binders are provided:
//  * `bind_registers_traditional` — the left-edge algorithm (Kurdahi/Parker
//    track assignment): variables sorted by birth time, each packed into
//    the first register free at that time.  This is what DAC-era HLS tools
//    actually used; it chains producers into consumers' registers, which is
//    exactly the behaviour that walks into Lemma-2 CBILBO situations.
//  * `bind_registers_reverse_peo` — greedy first-fit in reverse perfect-
//    elimination order (optimal for chordal graphs, Golumbic); used as an
//    alternative traditional arm and by the merge-case studies.
//
// Both are register-count-minimum on interval conflict graphs.

#include "binding/register_binding.hpp"
#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "graph/conflict.hpp"

namespace lbist {

/// Left-edge minimum binding with no testability consideration.
[[nodiscard]] RegisterBinding bind_registers_traditional(
    const Dfg& dfg, const VarConflictGraph& cg,
    const IdMap<VarId, LiveInterval>& lifetimes);

/// Reverse-PEO first-fit minimum coloring (also testability-oblivious).
/// Throws lbist::Error if the conflict graph is not chordal.
[[nodiscard]] RegisterBinding bind_registers_reverse_peo(
    const Dfg& dfg, const VarConflictGraph& cg,
    PeoStats* peo_stats = nullptr);

}  // namespace lbist
