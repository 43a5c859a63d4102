#include "graph/undirected_graph.hpp"

namespace lbist {

UndirectedGraph::UndirectedGraph(std::size_t n) {
  const std::size_t words_per_row = (n + 63) / 64;
  rows_.resize(n);
  words_.assign(n * words_per_row, 0);
  for (std::size_t v = 0; v < n; ++v) {
    rows_[v].offset = v * words_per_row;
    rows_[v].word_lo = 0;
    rows_[v].word_hi = static_cast<std::uint32_t>(words_per_row);
  }
}

UndirectedGraph::UndirectedGraph(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges)
    : UndirectedGraph(from_edges(n, [&](const auto& f) {
        for (const auto& [a, b] : edges) f(a, b);
      })) {}

void UndirectedGraph::add_edge(std::size_t a, std::size_t b) {
  LBIST_CHECK(a < rows_.size() && b < rows_.size(), "vertex out of range");
  LBIST_CHECK(a != b, "self loops not allowed");
  const RowMeta& ra = rows_[a];
  const RowMeta& rb = rows_[b];
  const std::size_t wa = b / 64;
  const std::size_t wb = a / 64;
  LBIST_CHECK(wa >= ra.word_lo && wa < ra.word_hi && wb >= rb.word_lo &&
                  wb < rb.word_hi,
              "edge outside packed row windows");
  std::uint64_t& word_a = words_[ra.offset + (wa - ra.word_lo)];
  const std::uint64_t bit_a = std::uint64_t{1} << (b % 64);
  if ((word_a & bit_a) == 0) {
    word_a |= bit_a;
    words_[rb.offset + (wb - rb.word_lo)] |= std::uint64_t{1} << (a % 64);
    ++num_edges_;
  }
}

UndirectedGraph UndirectedGraph::complement() const {
  const std::size_t n = num_vertices();
  UndirectedGraph g(n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!adjacent(a, b)) g.add_edge(a, b);
    }
  }
  return g;
}

}  // namespace lbist
