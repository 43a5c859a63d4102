#pragma once
// The pass pipeline: the DAC'95 phase sequence as an ordered list of
// Pass objects, plus whole-state snapshot/restore.
//
// Pipeline order (fixed — later passes consume earlier outputs):
//
//   sched          module binding + variable lifetimes
//   conflict_graph interval conflict graph over allocatable variables
//   binding        register binding (strategy per SynthesisOptions)
//   interconnect   mux-connectivity data path
//   bist           BIST resource allocation + headline metrics
//
// Snapshot format ("lowbist-ir-v1"): a single JSON object holding the
// canonical textual design (dfg/parse.hpp round-trips it exactly), the
// module spec, every option field that affects synthesis, the stage the
// state is at, and the completed passes' outputs under "ir".  See
// docs/passes.md for the schema and examples.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "passes/pass.hpp"

namespace lbist {

/// The fixed five-pass pipeline.  Immutable after construction; safe to
/// share across threads (passes are stateless).
class PassPipeline {
 public:
  PassPipeline();

  [[nodiscard]] const std::vector<std::unique_ptr<const Pass>>& passes()
      const {
    return passes_;
  }
  [[nodiscard]] std::size_t num_passes() const { return passes_.size(); }

  /// Index of the named pass; throws lbist::Error on unknown names.
  [[nodiscard]] std::size_t index_of(std::string_view name) const;

  /// Runs passes [state.completed, end) in order.
  void run(SynthState& state, std::size_t end) const;
  /// Runs every remaining pass.
  void run(SynthState& state) const { run(state, passes_.size()); }

  /// Freezes `state` into a snapshot: design, spec, options, stage, and
  /// the outputs of every completed pass.
  [[nodiscard]] Json snapshot(const SynthState& state) const;

  /// Restores a state from a snapshot() document.  The returned state
  /// owns its design; observability pointers are null (re-attach via
  /// options() if wanted).  Throws lbist::Error on malformed snapshots.
  [[nodiscard]] SynthState restore(const Json& snapshot) const;

  /// The canonical per-process instance (the Synthesizer façade and the
  /// CLI/server all share it).
  [[nodiscard]] static const PassPipeline& standard();

 private:
  std::vector<std::unique_ptr<const Pass>> passes_;
};

/// Serializes the synthesis-relevant option fields (binder, bist_binder,
/// interconnect, lifetime, area — never trace/events).
[[nodiscard]] Json options_to_json(const SynthesisOptions& opts);
/// Inverse of options_to_json; unknown binder names etc. throw.
[[nodiscard]] SynthesisOptions options_from_json(const Json& j);

/// Canonical key of every area-model field (the width, then each per-bit
/// cost printed exactly).  Shared by the pass fingerprints and the
/// synthesis cache key, so both change together when AreaModel grows.
[[nodiscard]] std::string area_key(const AreaModel& area);
/// Canonical key of the BIST-aware binder's ingredient switches.
[[nodiscard]] std::string bist_binder_key(const BistBinderOptions& bb);

/// Rebuilds a ModuleProto from its label() ("+" or "[-*/&|]").
[[nodiscard]] ModuleProto proto_from_label(std::string_view label);

}  // namespace lbist
