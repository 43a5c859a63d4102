// Observability overhead: one full BIST-aware synthesis of paulin (the
// largest built-in benchmark) with the instrumentation in every state it
// can be in.  The contract under test (docs/observability.md): the
// disabled path — a null recorder/sink pointer, which is what every
// un-instrumented run uses — must be indistinguishable from the baseline
// (<2% median latency), because it costs one predictable branch per site.
//
//   BM_SynthBaseline        opts.trace/events left null (the default)
//   BM_SynthTraceDisabled   recorder attached but not enabled
//   BM_SynthTraceEnabled    spans recorded (the price of a flamegraph)
//   BM_SynthEventsCounters  counters-only event sink (what `serve` runs)
//   BM_SynthEventsKept      full event retention (--trace-events)
//
// Profiler arms (ours, stripped before google-benchmark sees argv):
//   --overhead-only   run only the profiler-overhead tier + BENCH_obs.json
//                     (the CI perf-gate mode: synthesis of a 10k-op random
//                     DFG with the sampling profiler off vs armed at
//                     199 Hz; the contract is <5% median overhead)
//   --profile-ops N   one N-op BIST-aware synthesis under the profiler;
//                     writes PROFILE_obs.folded + PROFILE_obs.json and
//                     prints the per-span sample shares (the source of the
//                     docs/performance.md per-pass table)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "service/metrics.hpp"

namespace {

using namespace lbist;

void run_once(benchmark::State& state, TraceRecorder* trace,
              AlgorithmEvents* events) {
  auto bench = make_paulin();
  const auto protos = parse_module_spec(bench.module_spec);
  SynthesisOptions opts;
  opts.binder = BinderKind::BistAware;
  opts.trace = trace;
  opts.events = events;
  for (auto _ : state) {
    auto result = Synthesizer(opts).run(bench.design.dfg,
                                        *bench.design.schedule, protos);
    benchmark::DoNotOptimize(result.bist.extra_area);
  }
}

void BM_SynthBaseline(benchmark::State& state) {
  run_once(state, nullptr, nullptr);
}
BENCHMARK(BM_SynthBaseline)->Unit(benchmark::kMicrosecond);

void BM_SynthTraceDisabled(benchmark::State& state) {
  TraceRecorder rec;  // attached but disabled: the always-compiled-in path
  run_once(state, &rec, nullptr);
}
BENCHMARK(BM_SynthTraceDisabled)->Unit(benchmark::kMicrosecond);

void BM_SynthTraceEnabled(benchmark::State& state) {
  TraceRecorder rec;
  rec.set_enabled(true);
  run_once(state, &rec, nullptr);
  state.counters["spans"] = static_cast<double>(rec.event_count());
}
BENCHMARK(BM_SynthTraceEnabled)->Unit(benchmark::kMicrosecond);

void BM_SynthEventsCounters(benchmark::State& state) {
  MetricsRegistry metrics;
  AlgorithmEvents events(&metrics, /*keep_events=*/false);
  run_once(state, nullptr, &events);
}
BENCHMARK(BM_SynthEventsCounters)->Unit(benchmark::kMicrosecond);

void BM_SynthEventsKept(benchmark::State& state) {
  AlgorithmEvents events(nullptr, /*keep_events=*/true);
  run_once(state, nullptr, &events);
}
BENCHMARK(BM_SynthEventsKept)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Profiler tier.  Same generator parameters as bench_scaling's large tier
// so the profiled workload is the one the CI perf gate already tracks.

RandomDfgOptions profiled_opts(int ops) {
  RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = ops / o.ops_per_step;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  return o;
}

double synth_ms(const RandomDfg& rd, const std::vector<ModuleProto>& protos) {
  SynthesisOptions so;
  so.binder = BinderKind::BistAware;
  so.lifetime.hold_outputs_to_end = false;
  const auto t0 = std::chrono::steady_clock::now();
  const SynthesisResult res = Synthesizer(so).run(rd.dfg, rd.schedule, protos);
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(res.bist.extra_area);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Profiler off vs armed at 199 Hz over the same 10k-op synthesis; the two
/// rows land in BENCH_obs.json for tools/check_bench.py, the measured
/// overhead rides along on the armed row.  The design must take a few
/// hundred milliseconds to synthesise, or timer noise swamps the overhead
/// and a slowdown hides inside the gate's margin.
void run_profiler_overhead(benchjson::BenchJson& bj) {
  constexpr int kOps = 10000;
  constexpr int kReps = 9;
  const RandomDfg rd = make_random_dfg(profiled_opts(kOps));
  const auto protos = minimal_module_spec(rd.dfg, rd.schedule);

  (void)synth_ms(rd, protos);  // warm caches/allocator before either arm
  std::vector<double> off_ms;
  for (int r = 0; r < kReps; ++r) off_ms.push_back(synth_ms(rd, protos));

  obs::Profiler::attach_current_thread();
  obs::Profiler::instance().start({});  // 199 Hz
  std::vector<double> on_ms;
  for (int r = 0; r < kReps; ++r) on_ms.push_back(synth_ms(rd, protos));
  obs::Profiler::instance().stop();
  const obs::ProfileReport rep = obs::Profiler::instance().collect();

  auto p50 = [](std::vector<double> v) {
    return benchjson::percentile((std::sort(v.begin(), v.end()), v), 0.50);
  };
  const double off = p50(off_ms);
  const double on = p50(on_ms);
  const double overhead_pct = off > 0 ? 100.0 * (on - off) / off : 0.0;
  std::printf("profiler overhead: off %.1f ms, 199 Hz %.1f ms (%+.1f%%), "
              "%llu samples\n",
              off, on, overhead_pct,
              static_cast<unsigned long long>(rep.samples));

  bj.add("synth_10000_profiler_off", "10k ops, profiler off",
         std::move(off_ms));
  bj.add("synth_10000_profiler_199hz", "10k ops, profiler 199 Hz",
         std::move(on_ms),
         Json::object()
             .set("overhead_pct", Json::number(overhead_pct))
             .set("profile_samples", Json::number(static_cast<std::int64_t>(
                                         rep.samples)))
             .set("profile_dropped", Json::number(static_cast<std::int64_t>(
                                         rep.dropped))));
}

/// One N-op synthesis under the profiler; exports the span-attributed
/// profile (PROFILE_obs.folded / PROFILE_obs.json) and prints the per-pass
/// sample shares.
int run_profile_capture(int ops) {
  const RandomDfg rd = make_random_dfg(profiled_opts(ops));
  const auto protos = minimal_module_spec(rd.dfg, rd.schedule);
  std::cerr << "profile capture: " << ops << " ops, "
            << rd.dfg.num_vars() << " vars, 199 Hz" << std::endl;

  obs::Profiler::attach_current_thread();
  obs::Profiler::instance().start({});
  const double ms = synth_ms(rd, protos);
  obs::Profiler::instance().stop();
  const obs::ProfileReport rep = obs::Profiler::instance().collect();

  std::ofstream folded("PROFILE_obs.folded");
  rep.write_folded(folded);
  std::ofstream json("PROFILE_obs.json");
  json << rep.to_json().dump() << "\n";

  std::printf("%d ops in %.1f ms, %llu samples (%llu dropped)\n", ops, ms,
              static_cast<unsigned long long>(rep.samples),
              static_cast<unsigned long long>(rep.dropped));
  std::printf("%-16s %10s %8s %10s %8s\n", "span", "self", "self%", "total",
              "total%");
  const double denom = rep.samples > 0 ? static_cast<double>(rep.samples) : 1;
  for (const auto& s : rep.spans) {
    std::printf("%-16s %10llu %7.1f%% %10llu %7.1f%%\n", s.name.c_str(),
                static_cast<unsigned long long>(s.self_samples),
                100.0 * static_cast<double>(s.self_samples) / denom,
                static_cast<unsigned long long>(s.total_samples),
                100.0 * static_cast<double>(s.total_samples) / denom);
  }
  std::printf("wrote PROFILE_obs.folded, PROFILE_obs.json\n");
  return rep.samples > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool overhead_only = false;
  int profile_ops = 0;
  std::vector<char*> fwd;
  fwd.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overhead-only") == 0) {
      overhead_only = true;
    } else if (std::strcmp(argv[i], "--profile-ops") == 0 && i + 1 < argc) {
      profile_ops = std::atoi(argv[++i]);
    } else {
      fwd.push_back(argv[i]);
    }
  }
  if (profile_ops > 0) return run_profile_capture(profile_ops);

  lbist::benchjson::BenchJson bj("obs");
  run_profiler_overhead(bj);
  bj.write();
  if (overhead_only) return 0;

  int fwd_argc = static_cast<int>(fwd.size());
  benchmark::Initialize(&fwd_argc, fwd.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
