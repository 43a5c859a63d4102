#include "synth.hpp"

#include <algorithm>
#include <cmath>

#include "bist/allocator.hpp"
#include "graph/chordal.hpp"
#include "passes/pipeline.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "support/hash.hpp"

namespace perfbench {

using lbist::BistAllocator;
using lbist::BistSolution;
using lbist::SynthesisResult;

SynthesisResult synthesize(const Case& c) {
  return lbist::Synthesizer(c.opts).run(c.design->dfg, c.design->sched,
                                        c.design->protos);
}

DesignResult summarize(const Case& c, const SynthesisResult& r) {
  DesignResult d;
  d.name = c.name;
  d.registers = r.num_registers();
  d.muxes = r.num_mux();
  d.functional_area = r.functional_area;
  d.bist_extra = r.bist.extra_area;
  d.exact = r.bist.exact;
  return d;
}

std::string check_result(const Case& c, const SynthesisResult& r,
                         std::uint64_t seed) {
  const lbist::Dfg& dfg = c.design->dfg;
  if (c.expect_registers != 0 && r.num_registers() != c.expect_registers) {
    return c.name + ": " + std::to_string(r.num_registers()) +
           " registers, paper Table I gives " +
           std::to_string(c.expect_registers);
  }
  const int width = c.opts.area.bit_width;
  const std::uint32_t mask =
      width >= 32 ? 0xffffffffu : (std::uint32_t{1} << width) - 1;
  const auto ctl = lbist::Controller::generate(
      dfg, c.design->sched, r.registers, r.datapath, r.lifetimes);
  std::uint64_t state = seed ^ lbist::fnv1a64(c.name);
  for (int vec = 0; vec < 2; ++vec) {
    lbist::IdMap<lbist::VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
    for (const lbist::Variable& v : dfg.vars()) {
      if (v.is_input()) {
        inputs[v.id] = static_cast<std::uint32_t>(next_random(state)) & mask;
      }
    }
    const auto sim = lbist::simulate_datapath(dfg, r.datapath, ctl, inputs,
                                              width);
    const auto ref = lbist::evaluate_dfg(dfg, inputs, width);
    for (const lbist::Variable& v : dfg.vars()) {
      if (sim.observed[v.id] != ref[v.id]) {
        return c.name + ": vector " + std::to_string(vec) + " variable " +
               v.name + " simulates to " +
               std::to_string(sim.observed[v.id]) + ", expected " +
               std::to_string(ref[v.id]);
      }
    }
    if (!sim.ok()) return c.name + ": simulator reported a mismatch";
  }
  return "";
}

SynthesisResult LayerTrace::run(const Case& c, std::string* why) {
  const Clock::time_point start = Clock::now();
  lbist::SynthesisOptions opts = c.opts;
  opts.events = &events_;
  lbist::SynthState state(c.design->dfg, c.design->sched, c.design->protos,
                          opts);
  const auto& passes = lbist::PassPipeline::standard().passes();
  pass_ms_.resize(passes.size());
  Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    passes[i]->run(state);
    state.completed = i + 1;
    const Clock::time_point t1 = Clock::now();
    pass_ms_[i] += ms_between(t0, t1);
    t0 = t1;
  }
  synthesis_ms_ += ms_between(start, t0);
  SynthesisResult& r = state.result;

  // Standalone layer calls on the pipeline's own intermediate results.
  const Clock::time_point p0 = Clock::now();
  const auto peo = lbist::perfect_elimination_order(state.cg.graph);
  peo_ms_ += ms_between(p0, Clock::now());
  if (!peo.has_value()) *why = c.name + ": conflict graph is not chordal";

  const Clock::time_point g0 = Clock::now();
  const BistSolution greedy =
      BistAllocator(c.opts.area).solve_greedy(r.datapath);
  greedy_ms_ += ms_between(g0, Clock::now());
  const bool allocator_arm = c.opts.binder != lbist::BinderKind::Ralloc &&
                             c.opts.binder != lbist::BinderKind::Syntest;
  if (allocator_arm && r.bist.extra_area > greedy.extra_area + 1e-9) {
    *why = c.name + ": allocator result " + number_text(r.bist.extra_area) +
           " is worse than standalone greedy " +
           number_text(greedy.extra_area);
  }
  if (allocator_arm && !r.bist.exact &&
      (r.bist.extra_area != greedy.extra_area ||
       r.bist.roles != greedy.roles)) {
    *why = c.name + ": greedy fallback differs from standalone greedy";
  }

  for (const lbist::DpModule& m : r.datapath.modules) {
    embedding_space_ += static_cast<double>(m.left_sources.size()) *
                        static_cast<double>(m.right_sources.size()) *
                        static_cast<double>(m.dest_registers.size());
  }
  conflict_edges_ += state.cg.graph.num_edges();
  vars_ += c.design->dfg.num_vars();
  ops_ += c.design->dfg.num_ops();
  registers_ += static_cast<std::uint64_t>(r.num_registers());
  muxes_ += static_cast<std::uint64_t>(r.num_mux());
  const lbist::RoleCounts counts = r.bist.counts();
  cbilbos_ += static_cast<std::uint64_t>(counts.cbilbo);
  modified_ += static_cast<std::uint64_t>(counts.modified());
  if (r.bist.exact) ++exact_;
  return std::move(state.result);
}

void LayerTrace::emit(Report& report, double untraced_ms) const {
  double passes_ms = 0.0;
  for (double ms : pass_ms_) passes_ms += ms;
  const double overhead_ms = synthesis_ms_ - untraced_ms;
  const double gap_ms = synthesis_ms_ - passes_ms;
  if (gap_ms < -1e-6 ||
      gap_ms > std::max(std::abs(overhead_ms), 0.01 * synthesis_ms_)) {
    report.fail("passes add up to " + number_text(passes_ms) +
                " ms of a traced synthesis time of " +
                number_text(synthesis_ms_) + " ms (overhead " +
                number_text(overhead_ms) + " ms)");
  }
  report.note("traced synthesis " + number_text(synthesis_ms_) +
              " ms, untraced " + number_text(untraced_ms) +
              " ms, passes " + number_text(passes_ms) + " ms");
  report.metric("trace.overhead_pct",
                untraced_ms > 0.0 ? 100.0 * overhead_ms / untraced_ms : 0.0,
                "%");
  const auto& passes = lbist::PassPipeline::standard().passes();
  std::vector<double> pass_ms = pass_ms_;  // empty when no case ran
  pass_ms.resize(passes.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    report.metric(std::string("passes.") + passes[i]->name() + ".ms",
                  pass_ms[i], "ms");
  }
  auto count = [&](const char* name, std::uint64_t v) {
    report.metric(name, static_cast<double>(v), "count");
  };
  count("dfg.vars", vars_);
  count("dfg.ops", ops_);
  count("graph.conflict_edges", conflict_edges_);
  report.metric("graph.peo.ms", peo_ms_, "ms");
  count("binding.registers", registers_);
  count("binding.cbilbo_checked", events_.count("cbilbo_checked"));
  count("binding.cbilbo_avoided", events_.count("cbilbo_avoided"));
  count("binding.case_overrides", events_.count("case_override"));
  count("interconnect.muxes", muxes_);
  count("interconnect.mux_inputs", events_.count("mux_input"));
  count("interconnect.port_flips", events_.count("port_flip"));
  report.metric("rtl.embedding_space", embedding_space_, "count");
  count("bist.exact_allocations", exact_);
  count("bist.greedy_fallbacks", events_.count("bist_greedy_fallback"));
  count("bist.cbilbos", cbilbos_);
  count("bist.modified_registers", modified_);
  report.metric("bist.greedy.ms", greedy_ms_, "ms");
}

}  // namespace perfbench
