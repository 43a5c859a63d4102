#pragma once
// Data paths of the paper benchmarks and of the mid-range designs (13-70
// registers, counting dedicated input registers) that the exact BIST
// allocator tests run on.  The random and FIR designs are the ones the
// `mid-exact` benchmark workload synthesises: random DFGs of seed 7 and
// FIR filters list-scheduled on 2 multipliers and 2 adders.

#include <vector>

#include "binding/module_spec.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random_dfg.hpp"
#include "sched/list_sched.hpp"

namespace lbist::testing {

/// Data path the pipeline builds for `dfg` under `binder`.
inline Datapath datapath_of(const Dfg& dfg, const Schedule& sched,
                            const std::vector<ModuleProto>& protos,
                            BinderKind binder) {
  SynthesisOptions opts;
  opts.binder = binder;
  return Synthesizer(opts).run(dfg, sched, protos).datapath;
}

inline Datapath paper_datapath(const Benchmark& bench, BinderKind binder) {
  return datapath_of(bench.design.dfg, *bench.design.schedule,
                     parse_module_spec(bench.module_spec), binder);
}

/// random<steps>x<width>, seed 7.
inline Datapath random_mid_datapath(int steps, int width, BinderKind binder) {
  RandomDfgOptions o;
  o.seed = 7;
  o.num_steps = steps;
  o.ops_per_step = width;
  o.num_inputs = width + 2;
  o.kinds = {OpKind::Add, OpKind::Mul, OpKind::And, OpKind::Sub};
  const RandomDfg rd = make_random_dfg(o);
  return datapath_of(rd.dfg, rd.schedule,
                     minimal_module_spec(rd.dfg, rd.schedule), binder);
}

/// fir<taps>, list-scheduled on 2 multipliers and 2 adders.
inline Datapath fir_datapath(int taps, BinderKind binder) {
  const Dfg fir = make_fir(taps);
  const Schedule sched =
      list_schedule(fir, {{OpKind::Mul, 2}, {OpKind::Add, 2}});
  return datapath_of(fir, sched, minimal_module_spec(fir, sched), binder);
}

}  // namespace lbist::testing
