#pragma once
// Chordal-graph machinery: simplicial vertices, perfect vertex elimination
// schemes (PVES), elimination cliques.
//
// Interval graphs (the conflict graphs of straight-line scheduled DFGs) are
// chordal, so they admit a PVES; coloring greedily in *reverse* PVES order
// is optimal (Golumbic).  The paper's register binder departs from plain
// reverse-PVES coloring in two ways (Section III.A): the PVES itself is
// chosen by a (sharing-degree, max-clique-size) priority, and colors are
// chosen by test-resource sharing rather than first-fit.  This header
// provides the generic pieces; the priorities live in the binding library.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/undirected_graph.hpp"

namespace lbist {

/// Work done by one elimination-order computation.
struct PeoStats {
  /// Simpliciality tests evaluated: one per "is v simplicial among the
  /// alive vertices" question, whichever structure answered it.
  std::uint64_t simplicial_checks = 0;
};

/// True if v's not-yet-eliminated neighbourhood induces a clique.
/// `removed` marks eliminated vertices.
[[nodiscard]] bool is_simplicial(const UndirectedGraph& g, std::size_t v,
                                 const DynBitset& removed);

/// Builds a PVES choosing, at every step, the simplicial vertex with the
/// smallest `priority_rank` (ties by vertex index).  Returns the elimination
/// order (first eliminated first), or nullopt if the graph is not chordal.
/// `priority_rank` may be empty, meaning "by vertex index".
[[nodiscard]] std::optional<std::vector<std::size_t>>
perfect_elimination_order(const UndirectedGraph& g,
                          const std::vector<std::size_t>& priority_rank = {},
                          PeoStats* stats = nullptr);

/// True iff the graph is chordal (has a PVES).
[[nodiscard]] bool is_chordal(const UndirectedGraph& g);

/// The elimination cliques C_i = {order[i]} ∪ (later neighbours of
/// order[i]); every maximal clique of a chordal graph appears among these.
[[nodiscard]] std::vector<std::vector<std::size_t>> elimination_cliques(
    const UndirectedGraph& g, const std::vector<std::size_t>& order);

/// For each vertex v, the size of the largest elimination clique containing
/// v — the paper's MCS(v) (size of a maximum clique through v; exact for
/// chordal graphs).
[[nodiscard]] std::vector<std::size_t> max_clique_through_vertex(
    const UndirectedGraph& g, const std::vector<std::size_t>& order);

// ---- Interval graphs -------------------------------------------------------
//
// The graphs below are given by their intervals, not their edges: vertex v
// is the half-open lifetime [birth[v], death[v]) with death[v] > birth[v],
// and u, v are adjacent iff the intervals overlap.  Intervals have the
// Helly property (Golumbic 1980), so a vertex set is a clique iff its
// intervals share a point, i.e. max birth < min death over the set.

/// The order `perfect_elimination_order` returns on the interval graph of
/// `birth`/`death` with the same `priority_rank`: every step eliminates the
/// simplicial vertex of smallest (rank, index).  v is simplicial among the
/// alive vertices iff the largest alive birth below death[v] is less than
/// the smallest alive death above birth[v]: those two are the extreme
/// endpoints of v's alive closed neighbourhood.  Eliminating v changes
/// those answers only for vertices whose death falls between birth[v] and
/// the next alive birth, or whose birth falls between the previous alive
/// death and death[v], and in each range to one new value; a range-maximum
/// tree then reports exactly the vertices that turn simplicial.  So every
/// vertex is tested once up front and once when it turns simplicial
/// (`simplicial_checks` <= 2n), in O(n log n) total.
[[nodiscard]] std::vector<std::size_t> interval_elimination_order(
    const std::vector<int>& birth, const std::vector<int>& death,
    const std::vector<std::size_t>& priority_rank = {},
    PeoStats* stats = nullptr);

/// `max_clique_through_vertex` of the interval graph, for any PEO: the most
/// intervals sharing one point of v's interval.  The count only drops just
/// after a death, so the maximum is taken over the death values inside
/// v's interval, by a range-maximum query.
[[nodiscard]] std::vector<std::size_t> interval_max_clique_through_vertex(
    const std::vector<int>& birth, const std::vector<int>& death);

}  // namespace lbist
