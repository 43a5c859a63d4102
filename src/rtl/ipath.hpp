#pragma once
// I-path enumeration and BIST embeddings (paper Section II).
//
// A *simple I-path* transfers data unaltered between a register and a module
// port (at most one register, no modules in between — Definition 1).  In the
// mux-connectivity datapath model every register->port and module->register
// connection is a simple I-path, so enumeration reads straight off the
// Datapath connectivity sets.
//
// A *BIST embedding* of a module covers all its ports with I-paths: two
// distinct TPG registers driving the two input ports and one SA register
// receiving the output.  If the SA register equals one of the TPGs, that
// register must operate as test generator and analyzer simultaneously — a
// CBILBO (Wang/McCluskey).
//
// As an extension beyond the paper's simple I-paths, `transparent_ipaths`
// finds length-2 I-paths through modules with an identity mode (x+0, x*1,
// x&1...1, x|0...0): these widen the embedding space further (future-work
// direction noted in our DESIGN.md, exercised by the ablation bench).

#include <cstddef>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "rtl/datapath.hpp"

namespace lbist {

/// Which module port an I-path touches.
enum class IPathPort { Left, Right, Out };

/// A simple I-path between `reg` and `module`'s `port`.
struct SimpleIPath {
  std::size_t reg = 0;
  std::size_t module = 0;
  IPathPort port = IPathPort::Left;
};

/// All simple I-paths of the data path.
[[nodiscard]] std::vector<SimpleIPath> simple_ipaths(const Datapath& dp);

/// One way to test a module: TPGs on both input ports, SA on the output.
///
/// A TPG normally drives its port over a *simple* I-path (direct mux
/// connection).  With transparency enabled, a TPG may instead reach the
/// port through another module held in an identity mode plus the register
/// it writes (reg -> transparent module -> reg -> port); `left_through` /
/// `right_through` record that intermediate module, which must not be
/// under test in the same session.
struct BistEmbedding {
  std::size_t module = 0;
  std::size_t tpg_left = 0;
  std::size_t tpg_right = 0;
  /// SA register; nullopt when the module output is observed at a primary
  /// output/control pin instead of a register (no register cost).
  std::optional<std::size_t> sa;
  /// Module held transparent on the left/right TPG path, if any.
  std::optional<std::size_t> left_through;
  std::optional<std::size_t> right_through;
  /// Intermediate register of the transparent path (the one the identity
  /// module writes and the port reads); occupied for the whole session.
  std::optional<std::size_t> left_via;
  std::optional<std::size_t> right_via;

  /// True if the SA register doubles as one of the TPGs (CBILBO required).
  [[nodiscard]] bool needs_cbilbo() const {
    return sa.has_value() && (*sa == tpg_left || *sa == tpg_right);
  }
  [[nodiscard]] bool uses_transparency() const {
    return left_through.has_value() || right_through.has_value();
  }
};

/// Every BIST embedding of module `m` over simple I-paths only
/// (tpg_left != tpg_right always).  Empty result means the module cannot
/// be pseudo-randomly tested with the present connectivity (e.g. a single
/// register feeds both ports).
[[nodiscard]] std::vector<BistEmbedding> enumerate_embeddings(
    const Datapath& dp, std::size_t m);

/// Embeddings over simple I-paths plus single-hop transparent I-paths
/// (extension; see DESIGN.md).  The simple embeddings come first, so
/// cost-equal solutions prefer them.
[[nodiscard]] std::vector<BistEmbedding> enumerate_embeddings_extended(
    const Datapath& dp, std::size_t m);

namespace detail {

/// A TPG option for one port: the generator register, and the module held
/// transparent on the way (nullopt for a direct connection).
struct TpgOption {
  std::size_t reg = 0;
  std::optional<std::size_t> through;
  std::optional<std::size_t> via;
};

/// Direct (simple I-path) options of one port, in register order.
[[nodiscard]] std::vector<TpgOption> direct_options(
    const std::set<std::size_t>& sources);

/// Direct options of both ports of module `m`, then its single-hop
/// transparent extensions.
void extended_options(const Datapath& dp, std::size_t m,
                      std::vector<TpgOption>& left,
                      std::vector<TpgOption>& right);

/// Streams the cross product of TPG options (x dest registers) to `fn`;
/// stops when `fn` returns false.  Returns the number of embeddings
/// visited.
template <typename Fn>
std::size_t visit_embeddings_from_options(const Datapath& dp, std::size_t m,
                                          const std::vector<TpgOption>& left,
                                          const std::vector<TpgOption>& right,
                                          Fn& fn) {
  const DpModule& mod = dp.modules[m];
  std::size_t visited = 0;
  for (const TpgOption& tl : left) {
    for (const TpgOption& tr : right) {
      if (tl.reg == tr.reg) continue;  // need two independent generators
      // A module cannot be a transparent wire for its own test.
      if ((tl.through.has_value() && *tl.through == m) ||
          (tr.through.has_value() && *tr.through == m)) {
        continue;
      }
      // A via register is overwritten by the pattern stream every cycle:
      // it cannot simultaneously be the other port's generator, and two
      // distinct streams cannot share one via register.
      if (tl.via.has_value() && *tl.via == tr.reg) continue;
      if (tr.via.has_value() && *tr.via == tl.reg) continue;
      if (tl.via.has_value() && tr.via.has_value() && *tl.via == *tr.via) {
        continue;
      }
      BistEmbedding e;
      e.module = m;
      e.tpg_left = tl.reg;
      e.tpg_right = tr.reg;
      e.left_through = tl.through;
      e.right_through = tr.through;
      e.left_via = tl.via;
      e.right_via = tr.via;
      if (mod.dest_registers.empty()) {
        e.sa = std::nullopt;  // observed at a primary output/control pin
        ++visited;
        if (!fn(std::as_const(e))) return visited;
      } else {
        for (std::size_t sa : mod.dest_registers) {
          // A via register cannot compact while shuttling patterns.
          if ((tl.via.has_value() && *tl.via == sa) ||
              (tr.via.has_value() && *tr.via == sa)) {
            continue;
          }
          e.sa = sa;
          ++visited;
          if (!fn(std::as_const(e))) return visited;
        }
      }
    }
  }
  return visited;
}

}  // namespace detail

/// Streaming visitor over the embeddings of module `m`, in exactly the
/// order `enumerate_embeddings` would list them, without materializing the
/// list (the count is |left| x |right| x |dests| — quadratic-to-cubic in
/// register fan-in, gigabytes at 10k-op scale).  `fn(const BistEmbedding&)`
/// returns false to stop early.  Returns the number of embeddings visited.
template <typename Fn>
std::size_t for_each_embedding(const Datapath& dp, std::size_t m, Fn&& fn) {
  const DpModule& mod = dp.modules[m];
  return detail::visit_embeddings_from_options(
      dp, m, detail::direct_options(mod.left_sources),
      detail::direct_options(mod.right_sources), fn);
}

/// Streaming form of `enumerate_embeddings_extended` (same order).
template <typename Fn>
std::size_t for_each_embedding_extended(const Datapath& dp, std::size_t m,
                                        Fn&& fn) {
  std::vector<detail::TpgOption> left;
  std::vector<detail::TpgOption> right;
  detail::extended_options(dp, m, left, right);
  return detail::visit_embeddings_from_options(dp, m, left, right, fn);
}

/// An I-path through a module in an identity mode: data flows
/// `from_reg -> module(port) -> to_reg` unaltered when the other port is
/// held at the identity constant.
struct TransparentIPath {
  std::size_t from_reg = 0;
  std::size_t through_module = 0;
  IPathPort data_port = IPathPort::Left;
  std::size_t to_reg = 0;
};

/// True if the module kind set has an identity constant making one operand
/// transparent (add/sub/or/xor: 0, mul/div: 1, and: all-ones).
[[nodiscard]] bool has_identity_mode(const ModuleProto& proto);

/// Enumerates transparent (length-2) I-paths.
[[nodiscard]] std::vector<TransparentIPath> transparent_ipaths(
    const Datapath& dp);

}  // namespace lbist
