#pragma once
// Synthesis of one benchmark case, plain or traced, and the output checks
// every workload applies to what it synthesised.
//
// The traced path measures each layer from outside: it times the five
// `Pass::run` calls of `PassPipeline::standard()` one by one, feeds a
// counters-only `AlgorithmEvents` sink, and then times standalone calls to
// `perfect_elimination_order` on the conflict graph and to
// `BistAllocator::solve_greedy` on the data path.  Nothing inside the
// library is instrumented for it.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/synthesizer.hpp"
#include "obs/events.hpp"

namespace perfbench {

/// A scheduled design with its module prototypes (owns the DFG).
struct Design {
  std::string name;
  lbist::Dfg dfg;
  lbist::Schedule sched;
  std::vector<lbist::ModuleProto> protos;
};

/// One synthesis request: a design under one set of options.
struct Case {
  std::string name;  ///< design name + "/" + binder
  const Design* design = nullptr;
  lbist::SynthesisOptions opts;
  /// Paper Table I register count this case must reach; 0 = unchecked.
  int expect_registers = 0;
};

/// Synthesises through the public façade, with tracing off.
[[nodiscard]] lbist::SynthesisResult synthesize(const Case& c);

[[nodiscard]] DesignResult summarize(const Case& c,
                                     const lbist::SynthesisResult& r);

/// Output checks: `simulate_datapath` against the independent `evaluate_dfg`
/// interpreter on two seeded input vectors, and the expected register
/// count.  Returns "" when every check passed, else what failed.
[[nodiscard]] std::string check_result(const Case& c,
                                       const lbist::SynthesisResult& r,
                                       std::uint64_t seed);

/// Per-layer totals over the cases of one traced run.
class LayerTrace {
 public:
  /// Synthesises `c` pass by pass, timing each pass and the standalone
  /// layer calls; returns the result.  Records a failure in `why` when a
  /// standalone call contradicts the pipeline: a non-chordal conflict
  /// graph, a greedy solution cheaper than the allocator's, or a greedy
  /// fallback that differs from standalone `solve_greedy`.
  lbist::SynthesisResult run(const Case& c, std::string* why);

  /// Adds the per-layer metrics to `report`, with trace.overhead_pct
  /// against `untraced_ms`, the façade's time for the same cases.  Fails
  /// the report when the five pass times do not add up to the traced
  /// synthesis time within that overhead.
  void emit(Report& report, double untraced_ms) const;

 private:
  lbist::AlgorithmEvents events_{nullptr, /*keep_events=*/false};
  std::vector<double> pass_ms_;  ///< per pass, in pipeline order
  double synthesis_ms_ = 0.0;
  double peo_ms_ = 0.0;
  double greedy_ms_ = 0.0;
  double embedding_space_ = 0.0;
  std::uint64_t conflict_edges_ = 0;
  std::uint64_t vars_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t registers_ = 0;
  std::uint64_t cbilbos_ = 0;
  std::uint64_t modified_ = 0;
  std::uint64_t muxes_ = 0;
  std::uint64_t exact_ = 0;
};

}  // namespace perfbench
