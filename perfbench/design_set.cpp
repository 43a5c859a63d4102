// mid-exact and large-greedy: fixed sets of designs, each synthesised once
// per pass on one thread, through the public Synthesizer façade.
//
//   mid-exact     random 6x3, 8x4, 10x5, 12x6 (seed 7) and fir8/16/32
//                 (list-scheduled on 2*,2+), each under the traditional and
//                 the BIST-aware binder: 14 requests a pass, 1 pass.
//   large-greedy  random DFGs of 1k, 2k, 3k and 5k ops (seed 424242), the
//                 BIST-aware binder, outputs not held to the end: 4
//                 requests a pass, 3 passes.
//
// The generator parameters and seeds are bench/bench_scaling.cpp's
// size_opts and large_opts.  The designs and their order are fixed so that
// every run measures the same work; --seed draws the simulation stimulus.

#include <algorithm>
#include <memory>
#include <exception>

#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "sched/list_sched.hpp"
#include "synth.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lbist::BinderKind;
using lbist::OpKind;

lbist::RandomDfgOptions size_opts(int steps, int width) {
  lbist::RandomDfgOptions o;
  o.seed = 7;
  o.num_steps = steps;
  o.ops_per_step = width;
  o.num_inputs = width + 2;
  o.kinds = {OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Sub};
  return o;
}

lbist::RandomDfgOptions large_opts(int ops) {
  lbist::RandomDfgOptions o;
  o.seed = 424242;
  o.ops_per_step = 8;
  o.num_steps = ops / o.ops_per_step;
  o.num_inputs = 12;
  o.reuse_probability = 0.9;
  o.chain_probability = 0.3;
  return o;
}

std::unique_ptr<Design> random_design(std::string name,
                                      const lbist::RandomDfgOptions& o) {
  lbist::RandomDfg rd = lbist::make_random_dfg(o);
  auto d = std::make_unique<Design>(
      Design{std::move(name), std::move(rd.dfg), std::move(rd.schedule), {}});
  d->protos = lbist::minimal_module_spec(d->dfg, d->sched);
  return d;
}

struct DesignSet {
  std::vector<std::unique_ptr<Design>> designs;
  std::vector<Case> cases;
  int passes = 1;
};

DesignSet build_set(const std::string& workload) {
  DesignSet set;
  if (workload == "mid-exact") {
    for (auto [steps, width] : {std::pair{6, 3}, std::pair{8, 4},
                                std::pair{10, 5}, std::pair{12, 6}}) {
      set.designs.push_back(random_design(
          "random" + std::to_string(steps) + "x" + std::to_string(width),
          size_opts(steps, width)));
    }
    for (int taps : {8, 16, 32}) {
      lbist::Dfg fir = lbist::make_fir(taps);
      lbist::Schedule sched = lbist::list_schedule(
          fir, {{OpKind::Mul, 2}, {OpKind::Add, 2}});
      auto d = std::make_unique<Design>(Design{
          "fir" + std::to_string(taps), std::move(fir), std::move(sched), {}});
      d->protos = lbist::minimal_module_spec(d->dfg, d->sched);
      set.designs.push_back(std::move(d));
    }
    for (const auto& d : set.designs) {
      for (auto [binder, label] : {std::pair{BinderKind::Traditional, "trad"},
                                   std::pair{BinderKind::BistAware, "bist"}}) {
        Case c;
        c.name = d->name + "/" + label;
        c.design = d.get();
        c.opts.binder = binder;
        set.cases.push_back(std::move(c));
      }
    }
    set.passes = 1;
  } else {
    for (int ops : {1000, 2000, 3000, 5000}) {
      set.designs.push_back(
          random_design("random" + std::to_string(ops), large_opts(ops)));
      Case c;
      c.name = set.designs.back()->name + "/bist";
      c.design = set.designs.back().get();
      c.opts.binder = BinderKind::BistAware;
      c.opts.lifetime.hold_outputs_to_end = false;
      set.cases.push_back(std::move(c));
    }
    set.passes = 3;
  }
  return set;
}

/// One untraced pass: every case once, in order.  Fills `latencies_ms`
/// and `results` (nullptr entries for cases that threw).
struct PassOutcome {
  double wall_ms = 0.0;
  std::vector<double> latencies_ms;
  std::vector<std::unique_ptr<lbist::SynthesisResult>> results;
  std::vector<std::string> errors;
};

PassOutcome run_pass(const DesignSet& set) {
  PassOutcome out;
  const Clock::time_point start = Clock::now();
  for (const Case& c : set.cases) {
    const Clock::time_point t0 = Clock::now();
    try {
      out.results.push_back(
          std::make_unique<lbist::SynthesisResult>(synthesize(c)));
      out.errors.emplace_back();
    } catch (const std::exception& e) {
      out.results.push_back(nullptr);
      out.errors.push_back(c.name + ": " + e.what());
    }
    out.latencies_ms.push_back(ms_between(t0, Clock::now()));
  }
  out.wall_ms = ms_between(start, Clock::now());
  return out;
}

}  // namespace

void run_design_set(const Args& args, Report& report) {
  std::vector<double> setup_s;
  DesignSet set;
  while (more_setups(setup_s)) {
    const Clock::time_point t0 = Clock::now();
    set = build_set(args.workload);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // Warm-up: one untimed synthesis of the smallest case, so that one-time
  // initialisation is not charged to whichever request comes first.
  const Case& smallest = *std::min_element(
      set.cases.begin(), set.cases.end(), [](const Case& a, const Case& b) {
        return a.design->dfg.num_ops() < b.design->dfg.num_ops();
      });
  (void)synthesize(smallest);

  if (args.trace) {
    // Each case three times, back to back: untraced as a warm-up (and for
    // the output checks), traced, and untraced again for the comparison.
    // Both timed runs find the memory the first one faulted in, and drift
    // in the machine's speed stays out of trace.overhead_pct.
    LayerTrace trace;
    double untraced_ms = 0.0;
    for (const Case& c : set.cases) {
      ++report.attempted;
      std::string why;
      try {
        const lbist::SynthesisResult plain = synthesize(c);
        why = check_result(c, plain, args.seed);
        const lbist::SynthesisResult traced = trace.run(c, &why);
        const Clock::time_point t0 = Clock::now();
        (void)synthesize(c);
        untraced_ms += ms_between(t0, Clock::now());
        if (why.empty() && digest_line(summarize(c, traced)) !=
                               digest_line(summarize(c, plain))) {
          why = c.name + ": traced result differs from untraced";
        }
      } catch (const std::exception& e) {
        why = c.name + ": " + e.what();
      }
      if (!why.empty()) {
        ++report.failed;
        report.note("check " + why);
      }
    }
    trace.emit(report, untraced_ms);
    for (const MetricName& m : kServiceMetrics) {
      report.metric(m.name, 0.0, m.unit);
    }
    return;
  }

  // Untraced passes.  The first pass's results are checked and digested;
  // later passes must reproduce them exactly.
  std::vector<std::vector<double>> latencies;
  std::vector<DesignResult> results(set.cases.size());
  for (int p = 0; p < set.passes; ++p) {
    PassOutcome out = run_pass(set);
    report.note("pass " + std::to_string(p) + " " + number_text(out.wall_ms) +
                " ms");
    latencies.push_back(std::move(out.latencies_ms));
    for (std::size_t i = 0; i < set.cases.size(); ++i) {
      const Case& c = set.cases[i];
      ++report.attempted;
      if (!out.results[i]) {
        ++report.failed;
        report.note("error " + out.errors[i]);
        continue;
      }
      const DesignResult r = summarize(c, *out.results[i]);
      if (p == 0) {
        results[i] = r;
        const std::string why = check_result(c, *out.results[i], args.seed);
        if (!why.empty()) {
          ++report.failed;
          report.note("check " + why);
        }
      } else if (digest_line(r) != digest_line(results[i])) {
        ++report.failed;
        report.note("check " + c.name + ": pass " + std::to_string(p) +
                    " result differs from pass 0");
      }
    }
  }

  // wall_s: the requests run one after another, so the time to finish
  // each once is the sum of their per-request medians over the passes.
  double wall = 0.0;
  for (std::size_t i = 0; i < set.cases.size(); ++i) {
    std::vector<double> ms;
    for (const std::vector<double>& pass : latencies) ms.push_back(pass[i]);
    wall += median(ms);
    report.note("request " + set.cases[i].name + " " +
                number_text(median(ms)) + " ms");
  }
  emit_end_to_end(report, setup_s, wall / 1000.0, latencies, results);
}

}  // namespace perfbench
