#include "rtl/ipath.hpp"

namespace lbist {

std::vector<SimpleIPath> simple_ipaths(const Datapath& dp) {
  std::vector<SimpleIPath> out;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    for (std::size_t r : mod.left_sources) {
      out.push_back(SimpleIPath{r, m, IPathPort::Left});
    }
    for (std::size_t r : mod.right_sources) {
      out.push_back(SimpleIPath{r, m, IPathPort::Right});
    }
    for (std::size_t r : mod.dest_registers) {
      out.push_back(SimpleIPath{r, m, IPathPort::Out});
    }
  }
  return out;
}

namespace detail {

std::vector<TpgOption> direct_options(const std::set<std::size_t>& sources) {
  std::vector<TpgOption> out;
  out.reserve(sources.size());
  for (std::size_t r : sources) {
    out.push_back(TpgOption{r, std::nullopt, std::nullopt});
  }
  return out;
}

void extended_options(const Datapath& dp, std::size_t m,
                      std::vector<TpgOption>& left,
                      std::vector<TpgOption>& right) {
  // The TPG option lists are O(port fan-in + transparent paths) — cheap to
  // build even at scale; only their cross product must not materialize.
  const DpModule& mod = dp.modules[m];
  left = direct_options(mod.left_sources);
  right = direct_options(mod.right_sources);
  // One-hop transparent extensions: from_reg -> t(identity) -> to_reg,
  // where to_reg already feeds the port.  Skip options whose generator is
  // already a direct source (no benefit, larger search).
  const auto paths = transparent_ipaths(dp);
  auto extend = [&](const std::set<std::size_t>& sources,
                    std::vector<TpgOption>& options) {
    for (const TransparentIPath& p : paths) {
      if (p.through_module == m) continue;
      if (sources.count(p.to_reg) == 0) continue;
      if (sources.count(p.from_reg) > 0) continue;
      options.push_back(TpgOption{p.from_reg, p.through_module, p.to_reg});
    }
  };
  extend(mod.left_sources, left);
  extend(mod.right_sources, right);
}

}  // namespace detail

std::vector<BistEmbedding> enumerate_embeddings(const Datapath& dp,
                                                std::size_t m) {
  std::vector<BistEmbedding> out;
  for_each_embedding(dp, m, [&](const BistEmbedding& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

std::vector<BistEmbedding> enumerate_embeddings_extended(const Datapath& dp,
                                                         std::size_t m) {
  std::vector<BistEmbedding> out;
  for_each_embedding_extended(dp, m, [&](const BistEmbedding& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

bool has_identity_mode(const ModuleProto& proto) {
  for (OpKind k : proto.supports) {
    switch (k) {
      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::And:
      case OpKind::Or:
      case OpKind::Xor:
        return true;  // 0, 1, or all-ones identity exists
      case OpKind::Lt:
      case OpKind::Gt:
        break;  // comparison outputs are 1-bit; no transparency
    }
  }
  return false;
}

std::vector<TransparentIPath> transparent_ipaths(const Datapath& dp) {
  std::vector<TransparentIPath> out;
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    const DpModule& mod = dp.modules[m];
    if (!has_identity_mode(mod.proto)) continue;
    for (std::size_t to : mod.dest_registers) {
      for (std::size_t from : mod.left_sources) {
        out.push_back(TransparentIPath{from, m, IPathPort::Left, to});
      }
      for (std::size_t from : mod.right_sources) {
        out.push_back(TransparentIPath{from, m, IPathPort::Right, to});
      }
    }
  }
  return out;
}

}  // namespace lbist
