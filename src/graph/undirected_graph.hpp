#pragma once
// Dense undirected graph over vertices 0..n-1 with packed uint64 bitset
// adjacency rows.  Serves as the variable-conflict graph (edge =
// overlapping lifetimes) and the input-register compatibility graph of the
// interconnect binder.
//
// Rows live in one contiguous word arena.  Each row only stores the word
// window [word_lo, word_hi) that can contain neighbours: conflict graphs of
// scheduled DFGs are interval graphs whose vertices are roughly
// birth-ordered, so a 100k-vertex graph with local lifetimes packs into a
// few dozen words per row instead of a 1.5 kB full row — the difference
// between ~100 MB and multiple GB of adjacency at the scaling tier's sizes.
//
// Two construction modes:
//   * `UndirectedGraph(n)` — full-window rows, mutable via add_edge (the
//     historical behaviour; right for small/dense graphs and complement()).
//   * `UndirectedGraph(n, edges)` — bulk construction that measures each
//     vertex's neighbour span first and packs windowed rows.  add_edge
//     still works for edges inside both windows (it CHECK-fails outside).
//
// `row(v)` returns a lightweight RowView over the window; it mirrors the
// DynBitset query surface (test/count/intersects/subset_of/members) so the
// call sites read the same either way.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/dyn_bitset.hpp"

namespace lbist {

/// Read-only view of one adjacency row (a bit span over [0, n)).
class RowView {
 public:
  RowView(const std::uint64_t* words, std::size_t word_lo,
          std::size_t word_hi, std::size_t n)
      : words_(words), word_lo_(word_lo), word_hi_(word_hi), n_(n) {}

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t word_lo() const { return word_lo_; }
  [[nodiscard]] std::size_t word_hi() const { return word_hi_; }

  /// Word `w` of the full-length row; zero outside the stored window.
  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    return (w >= word_lo_ && w < word_hi_) ? words_[w - word_lo_] : 0;
  }

  [[nodiscard]] bool test(std::size_t i) const {
    return (word(i / 64) >> (i % 64)) & 1u;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t c = 0;
    for (std::size_t w = word_lo_; w < word_hi_; ++w) {
      c += static_cast<std::size_t>(std::popcount(words_[w - word_lo_]));
    }
    return c;
  }

  [[nodiscard]] bool any() const {
    for (std::size_t w = word_lo_; w < word_hi_; ++w) {
      if (words_[w - word_lo_] != 0) return true;
    }
    return false;
  }

  /// True if the row intersects `mask` (a bitset over the same vertex ids).
  [[nodiscard]] bool intersects(const DynBitset& mask) const {
    const std::size_t hi = std::min(word_hi_, mask.num_words());
    for (std::size_t w = word_lo_; w < hi; ++w) {
      if (words_[w - word_lo_] & mask.word(w)) return true;
    }
    return false;
  }

  [[nodiscard]] bool intersects(const RowView& other) const {
    const std::size_t lo = std::max(word_lo_, other.word_lo_);
    const std::size_t hi = std::min(word_hi_, other.word_hi_);
    for (std::size_t w = lo; w < hi; ++w) {
      if (words_[w - word_lo_] & other.words_[w - other.word_lo_]) return true;
    }
    return false;
  }

  /// True if every neighbour in the row is also in `mask`.
  [[nodiscard]] bool subset_of(const DynBitset& mask) const {
    for (std::size_t w = word_lo_; w < word_hi_; ++w) {
      const std::uint64_t mw = w < mask.num_words() ? mask.word(w) : 0;
      if (words_[w - word_lo_] & ~mw) return false;
    }
    return true;
  }

  /// dst &= row (window-aware: words outside the window clear to zero).
  void and_into(DynBitset& dst) const {
    for (std::size_t w = 0; w < dst.num_words(); ++w) {
      dst.and_word(w, word(w));
    }
  }

  /// dst |= row.
  void or_into(DynBitset& dst) const {
    const std::size_t hi = std::min(word_hi_, dst.num_words());
    for (std::size_t w = word_lo_; w < hi; ++w) {
      dst.or_word(w, words_[w - word_lo_]);
    }
  }

  /// Calls `f(u)` for every neighbour in increasing order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = word_lo_; w < word_hi_; ++w) {
      std::uint64_t bits = words_[w - word_lo_];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Neighbours in increasing order.
  [[nodiscard]] std::vector<std::size_t> members() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for_each([&](std::size_t u) { out.push_back(u); });
    return out;
  }

  /// Full-length DynBitset copy of the row.
  [[nodiscard]] DynBitset to_bitset() const {
    DynBitset out(n_);
    for_each([&](std::size_t u) { out.set(u); });
    return out;
  }

 private:
  const std::uint64_t* words_;  ///< window words, indexed from word_lo_
  std::size_t word_lo_;
  std::size_t word_hi_;
  std::size_t n_;
};

/// Simple undirected graph; no self loops.
class UndirectedGraph {
 public:
  UndirectedGraph() = default;
  /// Full-window (dense-row) graph; add_edge accepts any pair.
  explicit UndirectedGraph(std::size_t n);
  /// Bulk windowed construction from an edge list (pairs may repeat; self
  /// loops are rejected).  Rows only store the words spanned by their
  /// neighbours.
  UndirectedGraph(std::size_t n,
                  const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                      edges);

  /// The same bulk construction from an edge stream, with no edge list
  /// held in memory: `for_each_edge(f)` calls `f(a, b)` for every edge and
  /// must replay the same edges when called again.  It is called twice:
  /// once to measure the row windows, once to set the bits.
  template <typename ForEachEdge>
  [[nodiscard]] static UndirectedGraph from_edges(std::size_t n,
                                                  ForEachEdge&& for_each_edge);

  [[nodiscard]] std::size_t num_vertices() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Adds edge {a, b}; idempotent.  Self loops are rejected, and on a
  /// windowed graph both endpoints must fall inside the packed windows.
  void add_edge(std::size_t a, std::size_t b);

  [[nodiscard]] bool adjacent(std::size_t a, std::size_t b) const {
    const RowMeta& ra = rows_[a];
    const std::size_t w = b / 64;
    if (w < ra.word_lo || w >= ra.word_hi) return false;
    return (words_[ra.offset + (w - ra.word_lo)] >> (b % 64)) & 1u;
  }

  /// Adjacency row of `v` as a windowed bit view.
  [[nodiscard]] RowView row(std::size_t v) const {
    const RowMeta& r = rows_[v];
    return RowView(words_.data() + r.offset, r.word_lo, r.word_hi,
                   rows_.size());
  }

  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return row(v).count();
  }

  /// Neighbors of `v` in increasing order.
  [[nodiscard]] std::vector<std::size_t> neighbors(std::size_t v) const {
    return row(v).members();
  }

  /// Total words of packed adjacency storage (diagnostic).
  [[nodiscard]] std::size_t arena_words() const { return words_.size(); }

  /// The complement graph (edges where this graph has none).  Always dense.
  [[nodiscard]] UndirectedGraph complement() const;

 private:
  struct RowMeta {
    std::size_t offset = 0;   ///< first window word in words_
    std::uint32_t word_lo = 0;
    std::uint32_t word_hi = 0;  ///< exclusive
  };

  std::vector<std::uint64_t> words_;  ///< shared packed row arena
  std::vector<RowMeta> rows_;
  std::size_t num_edges_ = 0;
};

template <typename ForEachEdge>
UndirectedGraph UndirectedGraph::from_edges(std::size_t n,
                                            ForEachEdge&& for_each_edge) {
  UndirectedGraph g;
  g.rows_.resize(n);
  // Pass 1: each row's neighbour word span.
  std::vector<std::uint32_t> lo(n, UINT32_MAX);
  std::vector<std::uint32_t> hi(n, 0);
  auto widen = [&](std::size_t v, std::size_t nbr) {
    const auto w = static_cast<std::uint32_t>(nbr / 64);
    lo[v] = std::min(lo[v], w);
    hi[v] = std::max(hi[v], w + 1);
  };
  for_each_edge([&](std::size_t a, std::size_t b) {
    LBIST_CHECK(a < n && b < n, "vertex out of range");
    LBIST_CHECK(a != b, "self loops not allowed");
    widen(a, b);
    widen(b, a);
  });
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (lo[v] == UINT32_MAX) lo[v] = hi[v] = 0;  // isolated vertex
    g.rows_[v].offset = total;
    g.rows_[v].word_lo = lo[v];
    g.rows_[v].word_hi = hi[v];
    total += hi[v] - lo[v];
  }
  g.words_.assign(total, 0);
  // Pass 2: set the bits (add_edge dedupes and counts).
  for_each_edge([&](std::size_t a, std::size_t b) { g.add_edge(a, b); });
  return g;
}

}  // namespace lbist
