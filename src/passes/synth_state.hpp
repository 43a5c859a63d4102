#pragma once
// The pass pipeline's working state — a serializable IR snapshot.
//
// `SynthState` carries everything the synthesis passes read and write:
// the (borrowed) scheduled DFG, the pinned module prototypes, the pipeline
// options, and the accumulating `SynthesisResult`.  A state can be frozen
// at any pass boundary into a JSON snapshot (see passes/pipeline.hpp) and
// later restored — in another process, on another machine, by another
// build — and the remaining passes produce bit-identical output, because
// every pass is a deterministic function of the state.
//
// Ownership: on the live path (Synthesizer façade) the DFG and schedule
// are borrowed from the caller, exactly as before the refactor — no
// copies.  A state restored from a snapshot owns its DFG/schedule (parsed
// back from the snapshot's canonical textual design) via `owned_`.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/synthesizer.hpp"
#include "dfg/parse.hpp"
#include "graph/conflict.hpp"
#include "support/json.hpp"

namespace lbist {

/// Canonical binder name used in snapshots, checkpoints and sweep tables:
/// "traditional", "bist-aware", "ralloc", "syntest", "clique",
/// "loop-aware".
[[nodiscard]] const char* binder_kind_name(BinderKind kind);

/// Parses a canonical binder name; throws lbist::Error on unknown names.
[[nodiscard]] BinderKind binder_kind_from_name(std::string_view name);

/// Short binder name taken by the CLI's --binder and by batch/server
/// manifests: "trad", "bist", "ralloc", "syntest", "clique", "loop".
[[nodiscard]] const char* binder_short_name(BinderKind kind);

/// Parses a short binder name; throws lbist::Error("unknown binder: ...").
[[nodiscard]] BinderKind binder_from_short_name(std::string_view name);

/// Pipeline state threaded through the passes.  Move-only: it may borrow
/// the caller's DFG/schedule and holds the partially-built result.
class SynthState {
 public:
  /// Live path: borrows `dfg` and `sched` (caller keeps ownership; both
  /// must outlive the state).
  SynthState(const Dfg& dfg, const Schedule& sched,
             std::vector<ModuleProto> protos, SynthesisOptions opts)
      : dfg_(&dfg),
        sched_(&sched),
        protos_(std::move(protos)),
        opts_(opts) {}

  /// Restore path: takes ownership of a parsed design (which must carry a
  /// schedule).  Used by PassPipeline::restore.
  SynthState(std::unique_ptr<ParsedDfg> design,
             std::vector<ModuleProto> protos, SynthesisOptions opts);

  SynthState(SynthState&&) = default;
  SynthState& operator=(SynthState&&) = default;
  SynthState(const SynthState&) = delete;
  SynthState& operator=(const SynthState&) = delete;

  [[nodiscard]] const Dfg& dfg() const { return *dfg_; }
  [[nodiscard]] const Schedule& sched() const { return *sched_; }
  [[nodiscard]] const std::vector<ModuleProto>& protos() const {
    return protos_;
  }
  [[nodiscard]] const SynthesisOptions& options() const { return opts_; }
  /// Mutable options access: a restored state has null observability
  /// pointers; callers may re-attach a recorder/event sink before
  /// resuming (the pointers never affect what is synthesized).
  [[nodiscard]] SynthesisOptions& options() { return opts_; }

  /// Outputs accumulated by the passes (fields filled in pipeline order).
  SynthesisResult result;
  /// Conflict-graph pass output.  Not serialized: it is rebuilt
  /// deterministically from the lifetimes on restore.
  VarConflictGraph cg;
  bool has_cg = false;

  /// Number of pipeline passes completed so far (0 = fresh state).
  std::size_t completed = 0;

  /// Auxiliary post-pipeline analysis results keyed by name (e.g. the
  /// hybrid-BIST evaluation stores its report under "hybrid").  Never read
  /// by the five passes; carried through snapshot/restore when non-empty,
  /// so existing snapshots stay byte-identical.
  std::map<std::string, Json> aux;

 private:
  std::unique_ptr<ParsedDfg> owned_;  ///< set only on the restore path
  const Dfg* dfg_ = nullptr;
  const Schedule* sched_ = nullptr;
  std::vector<ModuleProto> protos_;
  SynthesisOptions opts_;
};

}  // namespace lbist
