#pragma once
// Variable-conflict graph construction (paper Section III: register binding
// is modeled as coloring of the variable conflict graph).

#include <optional>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/lifetime.hpp"
#include "graph/chordal.hpp"
#include "graph/undirected_graph.hpp"
#include "support/ids.hpp"

namespace lbist {

/// Conflict graph over the *allocatable* variables of a DFG, with the
/// vertex <-> variable correspondence.
struct VarConflictGraph {
  UndirectedGraph graph;
  /// vertex index -> variable.
  std::vector<VarId> vars;
  /// variable -> vertex index, or -1 if the variable is not allocatable.
  IdMap<VarId, int> vertex_of;
  /// vertex index -> lifetime, as half-open [birth, death): the graph is
  /// their interval graph.  Filled by `build_conflict_graph`; empty on a
  /// hand-built graph, whose edges need not come from intervals.
  std::vector<int> birth;
  std::vector<int> death;

  [[nodiscard]] bool has_lifetimes() const {
    return birth.size() == vars.size() && death.size() == vars.size();
  }

  [[nodiscard]] std::size_t vertex(VarId v) const {
    return static_cast<std::size_t>(vertex_of[v]);
  }
};

/// Builds the conflict graph: one vertex per allocatable variable, an edge
/// between variables whose live intervals overlap.
[[nodiscard]] VarConflictGraph build_conflict_graph(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes);

/// PVES for a register binder: `interval_elimination_order` when the graph
/// carries its lifetimes, else `perfect_elimination_order` on the edges
/// (nullopt if they are not chordal).  Both return the same order.
[[nodiscard]] std::optional<std::vector<std::size_t>>
conflict_elimination_order(const VarConflictGraph& cg,
                           const std::vector<std::size_t>& priority_rank = {},
                           PeoStats* stats = nullptr);

/// MCS(v) of every vertex: from the lifetimes when the graph carries them,
/// else through a generic PEO (nullopt if the graph is not chordal).
[[nodiscard]] std::optional<std::vector<std::size_t>>
conflict_max_clique_sizes(const VarConflictGraph& cg,
                          PeoStats* stats = nullptr);

}  // namespace lbist
