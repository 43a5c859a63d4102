#pragma once
// Reference greedy BIST allocator for differential tests: the streaming
// scan that `BistAllocator::solve_greedy` ran before it became separable.
// For each module in order it visits every embedding of the
// |left| x |right| x |dests| cross product, prices each from the touched
// registers with `AreaModel::role_extra`, and keeps the first with the
// smallest (area, #CBILBO, #modified) delta, stopping a module at the
// first zero delta when the model is flag-monotone.  It is cubic in port
// fan-in but simple; the production solver must return the same
// embeddings, roles and area on every data path.

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "bist_reference_dp.hpp"

namespace lbist::reference {

namespace detail {

/// Objective change `cost_of(apply_embedding(state, e)) -
/// cost_of(state)`, computed from the (up to three) touched registers
/// without copying the state.
inline std::tuple<double, int, int> delta_of(const StateKey& state,
                                             const BistEmbedding& e,
                                             const AreaModel& model) {
  std::size_t touched[3];
  std::size_t count = 0;
  auto add_unique = [&](std::size_t reg) {
    for (std::size_t i = 0; i < count; ++i) {
      if (touched[i] == reg) return;
    }
    touched[count++] = reg;
  };
  add_unique(e.tpg_left);
  add_unique(e.tpg_right);
  if (e.sa.has_value()) add_unique(*e.sa);

  double area = 0.0;
  int cbilbos = 0;
  int modified = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t reg = touched[i];
    RoleFlags f = RoleFlags::decode(static_cast<std::uint8_t>(state[reg]));
    RoleFlags next = f;
    if (reg == e.tpg_left || reg == e.tpg_right) next.tpg = true;
    if (e.sa.has_value() && reg == *e.sa) {
      next.sa = true;
      if (e.needs_cbilbo()) {
        next.tpg = true;
        next.cbilbo = true;
      }
    }
    const BistRole before = f.role();
    const BistRole after = next.role();
    if (before == after) continue;
    area += model.role_extra(after) - model.role_extra(before);
    cbilbos += (after == BistRole::Cbilbo ? 1 : 0) -
               (before == BistRole::Cbilbo ? 1 : 0);
    modified += (after != BistRole::None ? 1 : 0) -
                (before != BistRole::None ? 1 : 0);
  }
  return {area, cbilbos, modified};
}

}  // namespace detail

/// The streaming greedy scan.
inline BistSolution solve_streaming_greedy(const Datapath& dp,
                                           const AreaModel& model,
                                           bool use_transparent_paths = false) {
  using namespace detail;
  const std::size_t nregs = dp.registers.size();
  StateKey state(nregs, '\0');

  // A zero marginal cost cannot be beaten when role flags only accumulate
  // and the model is flag-monotone (every delta component is then >= 0),
  // so the scan of a module may stop at the first such embedding.
  const bool can_cut = area_flag_monotone(model);
  constexpr std::tuple<double, int, int> kZero{0.0, 0, 0};

  BistSolution sol;
  sol.exact = false;
  sol.embeddings.assign(dp.modules.size(), std::nullopt);
  for (std::size_t m = 0; m < dp.modules.size(); ++m) {
    std::optional<BistEmbedding> best_emb;
    std::tuple<double, int, int> best_delta{0, 0, 0};
    auto scan = [&](const BistEmbedding& e) {
      const auto d = delta_of(state, e, model);
      if (!best_emb.has_value() || d < best_delta) {
        best_delta = d;
        best_emb = e;
      }
      return !(can_cut && best_delta == kZero);
    };
    if (use_transparent_paths) {
      for_each_embedding_extended(dp, m, scan);
    } else {
      for_each_embedding(dp, m, scan);
    }
    if (!best_emb.has_value()) {
      sol.untestable_modules.push_back(m);
      continue;
    }
    state = apply_embedding(state, *best_emb);
    sol.embeddings[m] = best_emb;
  }
  sol.roles = roles_of(state);
  sol.extra_area = std::get<0>(cost_of(state, model));
  return sol;
}

}  // namespace lbist::reference
