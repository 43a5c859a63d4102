#include "passes/synth_state.hpp"

#include "support/check.hpp"

namespace lbist {

namespace {

/// Every binder's two names.
struct BinderNames {
  BinderKind kind;
  const char* name;        ///< canonical: snapshots, checkpoints, sweeps
  const char* short_name;  ///< CLI flags and batch/server manifests
};

constexpr BinderNames kBinderNames[] = {
    {BinderKind::Traditional, "traditional", "trad"},
    {BinderKind::BistAware, "bist-aware", "bist"},
    {BinderKind::Ralloc, "ralloc", "ralloc"},
    {BinderKind::Syntest, "syntest", "syntest"},
    {BinderKind::CliquePartition, "clique", "clique"},
    {BinderKind::LoopAware, "loop-aware", "loop"},
};

const BinderNames* names_of(BinderKind kind) {
  for (const BinderNames& row : kBinderNames) {
    if (row.kind == kind) return &row;
  }
  return nullptr;
}

}  // namespace

const char* binder_kind_name(BinderKind kind) {
  const BinderNames* row = names_of(kind);
  return row != nullptr ? row->name : "?";
}

const char* binder_short_name(BinderKind kind) {
  const BinderNames* row = names_of(kind);
  return row != nullptr ? row->short_name : "?";
}

BinderKind binder_kind_from_name(std::string_view name) {
  for (const BinderNames& row : kBinderNames) {
    if (name == row.name) return row.kind;
  }
  throw Error("unknown binder name: " + std::string(name));
}

BinderKind binder_from_short_name(std::string_view name) {
  for (const BinderNames& row : kBinderNames) {
    if (name == row.short_name) return row.kind;
  }
  throw Error("unknown binder: " + std::string(name));
}

SynthState::SynthState(std::unique_ptr<ParsedDfg> design,
                       std::vector<ModuleProto> protos, SynthesisOptions opts)
    : owned_(std::move(design)), protos_(std::move(protos)), opts_(opts) {
  LBIST_CHECK(owned_ != nullptr, "restored state needs a design");
  LBIST_CHECK(owned_->schedule.has_value(),
              "restored design carries no schedule");
  dfg_ = &owned_->dfg;
  sched_ = &*owned_->schedule;
}

}  // namespace lbist
