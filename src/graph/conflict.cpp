#include "graph/conflict.hpp"

#include <algorithm>
#include <utility>

namespace lbist {

VarConflictGraph build_conflict_graph(
    const Dfg& dfg, const IdMap<VarId, LiveInterval>& lifetimes) {
  VarConflictGraph out;
  out.vertex_of.assign(dfg.num_vars(), -1);
  for (const auto& v : dfg.vars()) {
    if (!v.allocatable()) continue;
    out.vertex_of[v.id] = static_cast<int>(out.vars.size());
    out.vars.push_back(v.id);
  }
  const std::size_t n = out.vars.size();
  // Keep the intervals only if none is empty (`compute_lifetimes` never
  // makes one; a restored snapshot might): the interval algorithms need it.
  out.birth.resize(n);
  out.death.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.birth[i] = lifetimes[out.vars[i]].birth;
    out.death[i] = lifetimes[out.vars[i]].death;
    if (out.death[i] <= out.birth[i]) {
      out.birth.clear();
      out.death.clear();
      break;
    }
  }

  // Sweep line over births: a pair overlaps iff, when the later-born
  // vertex arrives, the earlier one is still alive (death > birth).  The
  // quadratic pair scan this replaces dominated whole-pipeline time beyond
  // a few thousand variables.
  std::vector<std::uint32_t> by_birth(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_birth[i] = static_cast<std::uint32_t>(i);
  }
  std::sort(by_birth.begin(), by_birth.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return lifetimes[out.vars[a]].birth < lifetimes[out.vars[b]].birth;
            });

  // The sweep streams the edges straight into the graph's two construction
  // passes; an edge list would hold 8 bytes per edge, many times the
  // packed rows of these dense interval graphs.
  std::vector<std::uint32_t> active;  // sweep front, pruned lazily
  auto for_each_edge = [&](const auto& edge) {
    active.clear();
    for (const std::uint32_t v : by_birth) {
      const LiveInterval iv = lifetimes[out.vars[v]];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        const std::uint32_t u = active[i];
        const LiveInterval iu = lifetimes[out.vars[u]];
        if (iu.death <= iv.birth) continue;  // u expired; drop from the front
        active[keep++] = u;
        // iu.birth <= iv.birth and iu.death > iv.birth: overlap iff v's
        // interval is non-degenerate past u's birth.
        if (iu.birth < iv.death) edge(u, v);
      }
      active.resize(keep);
      active.push_back(v);
    }
  };
  out.graph = UndirectedGraph::from_edges(n, for_each_edge);
  return out;
}

std::optional<std::vector<std::size_t>> conflict_elimination_order(
    const VarConflictGraph& cg, const std::vector<std::size_t>& priority_rank,
    PeoStats* stats) {
  if (cg.has_lifetimes()) {
    return interval_elimination_order(cg.birth, cg.death, priority_rank,
                                      stats);
  }
  return perfect_elimination_order(cg.graph, priority_rank, stats);
}

std::optional<std::vector<std::size_t>> conflict_max_clique_sizes(
    const VarConflictGraph& cg, PeoStats* stats) {
  if (cg.has_lifetimes()) {
    return interval_max_clique_through_vertex(cg.birth, cg.death);
  }
  auto peo = perfect_elimination_order(cg.graph, {}, stats);
  if (!peo.has_value()) return std::nullopt;
  return max_clique_through_vertex(cg.graph, *peo);
}

}  // namespace lbist
