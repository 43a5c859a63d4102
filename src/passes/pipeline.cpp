#include "passes/pipeline.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "baselines/ralloc.hpp"
#include "baselines/syntest.hpp"
#include "binding/clique_binder.hpp"
#include "binding/loop_binder.hpp"
#include "binding/traditional_binder.hpp"
#include "dfg/parse.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/version.hpp"

namespace lbist {

namespace {

// ---- Canonical fingerprint keys ------------------------------------------
//
// Every pass hashes a canonical string of its inputs with FNV-1a.  The
// strings are built from ids, flags and exactly-printed doubles, so two
// states fingerprint equal iff the pass would read identical inputs.

void append_num(std::string& out, long long v) {
  out += std::to_string(v);
  out += ',';
}

void append_double(std::string& out, double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
  out += ';';
}

/// Name-free structural encoding of the scheduled design: operation
/// kinds/operands/steps, variable roles, loop ties.  Renaming variables
/// or operations leaves this key unchanged (their results are id-based).
std::string structural_key(const Dfg& dfg, const Schedule& sched) {
  std::string key = "v:";
  for (const Variable& v : dfg.vars()) {
    key += v.is_output ? 'o' : '.';
    key += v.control_only ? 'c' : '.';
    key += v.port_resident ? 'p' : '.';
  }
  key += "|o:";
  for (const Operation& op : dfg.ops()) {
    append_num(key, static_cast<long long>(op.kind));
    append_num(key, op.lhs.value());
    append_num(key, op.rhs.value());
    append_num(key, op.result.value());
    append_num(key, sched.step(op.id));
  }
  key += "|t:";
  for (const auto& [carried, init] : dfg.loop_ties()) {
    append_num(key, carried.value());
    append_num(key, init.value());
  }
  return key;
}

std::string spec_key(const std::vector<ModuleProto>& protos) {
  std::string key;
  for (const ModuleProto& p : protos) {
    key += p.label();
    key += ';';
  }
  return key;
}

std::string lifetimes_key(const IdMap<VarId, LiveInterval>& lifetimes) {
  std::string key;
  for (const LiveInterval& lt : lifetimes) {
    append_num(key, lt.birth);
    append_num(key, lt.death);
  }
  return key;
}

std::string module_of_key(const ModuleBinding& mb, const Dfg& dfg) {
  std::string key;
  for (const Operation& op : dfg.ops()) {
    append_num(key, mb.module_of(op.id).value());
  }
  return key;
}

std::string registers_key(const RegisterBinding& rb) {
  std::string key;
  for (const std::vector<VarId>& reg : rb.regs) {
    for (VarId v : reg) append_num(key, v.value());
    key += '/';
  }
  return key;
}

}  // namespace

std::string area_key(const AreaModel& area) {
  std::string key = std::to_string(area.bit_width) + ";";
  append_double(key, area.reg_gates_per_bit);
  append_double(key, area.mux_gates_per_bit);
  append_double(key, area.tpg_extra_per_bit);
  append_double(key, area.sa_extra_per_bit);
  append_double(key, area.bilbo_extra_per_bit);
  append_double(key, area.cbilbo_extra_per_bit);
  append_double(key, area.add_gates_per_bit);
  append_double(key, area.sub_gates_per_bit);
  append_double(key, area.logic_gates_per_bit);
  append_double(key, area.cmp_gates_per_bit);
  append_double(key, area.mul_gates_per_bit2);
  append_double(key, area.div_gates_per_bit2);
  append_double(key, area.alu_extra_kind_factor);
  return key;
}

std::string bist_binder_key(const BistBinderOptions& bb) {
  std::string key;
  key += bb.sd_ordered_pves ? '1' : '0';
  key += bb.delta_sd_rule ? '1' : '0';
  key += bb.case_overrides ? '1' : '0';
  key += bb.avoid_cbilbo ? '1' : '0';
  return key;
}

namespace {

// ---- JSON helpers --------------------------------------------------------

Json index_set_json(const std::set<std::size_t>& s) {
  Json arr = Json::array();
  for (std::size_t i : s) arr.push_back(Json::number(i));
  return arr;
}

std::set<std::size_t> index_set_from_json(const Json& arr) {
  std::set<std::size_t> s;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const int v = arr.at(i).as_int();
    LBIST_CHECK(v >= 0, "negative index in snapshot set");
    s.insert(static_cast<std::size_t>(v));
  }
  return s;
}

std::size_t size_at(const Json& obj, const std::string& key) {
  const int v = obj.at(key).as_int();
  LBIST_CHECK(v >= 0, "negative index in snapshot: " + key);
  return static_cast<std::size_t>(v);
}

Json datapath_to_json(const Datapath& dp) {
  Json j = Json::object();
  j.set("name", Json::string(dp.name));
  Json regs = Json::array();
  for (const DpRegister& r : dp.registers) {
    Json reg = Json::object();
    reg.set("name", Json::string(r.name));
    Json vars = Json::array();
    for (VarId v : r.vars) vars.push_back(Json::number(v.value()));
    reg.set("vars", std::move(vars));
    reg.set("dedicated_input", Json::boolean(r.dedicated_input));
    reg.set("source_modules", index_set_json(r.source_modules));
    reg.set("external_source", Json::boolean(r.external_source));
    reg.set("drives_output", Json::boolean(r.drives_output));
    regs.push_back(std::move(reg));
  }
  j.set("registers", std::move(regs));
  Json mods = Json::array();
  for (const DpModule& m : dp.modules) {
    Json mod = Json::object();
    mod.set("name", Json::string(m.name));
    mod.set("proto", Json::string(m.proto.label()));
    Json insts = Json::array();
    for (OpId op : m.instances) insts.push_back(Json::number(op.value()));
    mod.set("instances", std::move(insts));
    mod.set("left_sources", index_set_json(m.left_sources));
    mod.set("right_sources", index_set_json(m.right_sources));
    mod.set("dest_registers", index_set_json(m.dest_registers));
    mod.set("drives_control", Json::boolean(m.drives_control));
    mods.push_back(std::move(mod));
  }
  j.set("modules", std::move(mods));
  j.set("num_allocated", Json::number(dp.num_allocated));
  Json routes = Json::array();
  for (const auto& [lhs, rhs] : dp.routes) {
    Json route = Json::array();
    route.push_back(Json::number(lhs.reg));
    route.push_back(Json::boolean(lhs.to_left));
    route.push_back(Json::number(rhs.reg));
    route.push_back(Json::boolean(rhs.to_left));
    routes.push_back(std::move(route));
  }
  j.set("routes", std::move(routes));
  return j;
}

Datapath datapath_from_json(const Json& j, const Dfg& dfg) {
  Datapath dp;
  dp.name = j.at("name").as_string();
  const Json& regs = j.at("registers");
  for (std::size_t i = 0; i < regs.size(); ++i) {
    const Json& reg = regs.at(i);
    DpRegister r;
    r.name = reg.at("name").as_string();
    const Json& vars = reg.at("vars");
    for (std::size_t k = 0; k < vars.size(); ++k) {
      const int v = vars.at(k).as_int();
      LBIST_CHECK(v >= 0 && static_cast<std::size_t>(v) < dfg.num_vars(),
                  "snapshot register references unknown variable");
      r.vars.push_back(VarId{static_cast<VarId::value_type>(v)});
    }
    r.dedicated_input = reg.at("dedicated_input").as_bool();
    r.source_modules = index_set_from_json(reg.at("source_modules"));
    r.external_source = reg.at("external_source").as_bool();
    r.drives_output = reg.at("drives_output").as_bool();
    dp.registers.push_back(std::move(r));
  }
  const Json& mods = j.at("modules");
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const Json& mod = mods.at(i);
    DpModule m;
    m.name = mod.at("name").as_string();
    m.proto = proto_from_label(mod.at("proto").as_string());
    const Json& insts = mod.at("instances");
    for (std::size_t k = 0; k < insts.size(); ++k) {
      const int op = insts.at(k).as_int();
      LBIST_CHECK(op >= 0 && static_cast<std::size_t>(op) < dfg.num_ops(),
                  "snapshot module references unknown operation");
      m.instances.push_back(OpId{static_cast<OpId::value_type>(op)});
    }
    m.left_sources = index_set_from_json(mod.at("left_sources"));
    m.right_sources = index_set_from_json(mod.at("right_sources"));
    m.dest_registers = index_set_from_json(mod.at("dest_registers"));
    m.drives_control = mod.at("drives_control").as_bool();
    dp.modules.push_back(std::move(m));
  }
  dp.num_allocated = size_at(j, "num_allocated");
  const Json& routes = j.at("routes");
  LBIST_CHECK(routes.size() == dfg.num_ops(),
              "snapshot route count does not match the design");
  dp.routes.assign(dfg.num_ops(), {});
  for (std::size_t i = 0; i < routes.size(); ++i) {
    const Json& route = routes.at(i);
    LBIST_CHECK(route.size() == 4, "snapshot route is not a 4-tuple");
    auto& [lhs, rhs] = dp.routes[OpId{static_cast<OpId::value_type>(i)}];
    lhs.reg = static_cast<std::size_t>(route.at(0).as_int());
    lhs.to_left = route.at(1).as_bool();
    rhs.reg = static_cast<std::size_t>(route.at(2).as_int());
    rhs.to_left = route.at(3).as_bool();
  }
  return dp;
}

Json embedding_to_json(const BistEmbedding& e) {
  Json j = Json::object();
  j.set("module", Json::number(e.module));
  j.set("tpg_left", Json::number(e.tpg_left));
  j.set("tpg_right", Json::number(e.tpg_right));
  if (e.sa) j.set("sa", Json::number(*e.sa));
  if (e.left_through) j.set("left_through", Json::number(*e.left_through));
  if (e.right_through) j.set("right_through", Json::number(*e.right_through));
  if (e.left_via) j.set("left_via", Json::number(*e.left_via));
  if (e.right_via) j.set("right_via", Json::number(*e.right_via));
  return j;
}

BistEmbedding embedding_from_json(const Json& j) {
  BistEmbedding e;
  e.module = size_at(j, "module");
  e.tpg_left = size_at(j, "tpg_left");
  e.tpg_right = size_at(j, "tpg_right");
  if (j.contains("sa")) e.sa = size_at(j, "sa");
  if (j.contains("left_through")) e.left_through = size_at(j, "left_through");
  if (j.contains("right_through")) {
    e.right_through = size_at(j, "right_through");
  }
  if (j.contains("left_via")) e.left_via = size_at(j, "left_via");
  if (j.contains("right_via")) e.right_via = size_at(j, "right_via");
  return e;
}

Json bist_to_json(const BistSolution& bist) {
  Json j = Json::object();
  Json roles = Json::array();
  for (BistRole r : bist.roles) {
    roles.push_back(Json::number(static_cast<int>(r)));
  }
  j.set("roles", std::move(roles));
  Json embs = Json::array();
  for (const std::optional<BistEmbedding>& e : bist.embeddings) {
    embs.push_back(e ? embedding_to_json(*e) : Json::null());
  }
  j.set("embeddings", std::move(embs));
  Json untestable = Json::array();
  for (std::size_t m : bist.untestable_modules) {
    untestable.push_back(Json::number(m));
  }
  j.set("untestable_modules", std::move(untestable));
  j.set("extra_area", Json::number(bist.extra_area));
  j.set("exact", Json::boolean(bist.exact));
  return j;
}

BistSolution bist_from_json(const Json& j) {
  BistSolution bist;
  const Json& roles = j.at("roles");
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const int r = roles.at(i).as_int();
    LBIST_CHECK(r >= 0 && r <= 4, "snapshot BIST role out of range");
    bist.roles.push_back(static_cast<BistRole>(r));
  }
  const Json& embs = j.at("embeddings");
  for (std::size_t i = 0; i < embs.size(); ++i) {
    const Json& e = embs.at(i);
    if (e.is_null()) {
      bist.embeddings.push_back(std::nullopt);
    } else {
      bist.embeddings.push_back(embedding_from_json(e));
    }
  }
  const Json& untestable = j.at("untestable_modules");
  for (std::size_t i = 0; i < untestable.size(); ++i) {
    const int m = untestable.at(i).as_int();
    LBIST_CHECK(m >= 0, "negative module index in snapshot");
    bist.untestable_modules.push_back(static_cast<std::size_t>(m));
  }
  bist.extra_area = j.at("extra_area").as_number();
  bist.exact = j.at("exact").as_bool();
  return bist;
}

// ---- The five passes -----------------------------------------------------
//
// The run() bodies are the former Synthesizer::run phases, verbatim: same
// call sequence, same trace span names and args, same event feeds, so the
// façade produces byte-identical results, traces and event streams.
//
// The span names (sched/conflict_graph/binding/interconnect/bist) are a
// stable external contract, not decoration: the sampling profiler
// attributes samples to the innermost span, check_profile.py --expect-span
// gates CI on them, and committed profiles in docs/performance.md slice by
// them.  Renaming one is a breaking change to every profile consumer.

class SchedPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "sched"; }

  void run(SynthState& state) const override {
    // "sched" covers the schedule-derived analyses: module binding,
    // lifetimes (the schedule itself arrives precomputed).
    auto span = trace_span(state.options().trace, "sched");
    if (span.active()) span.arg("design", state.dfg().name());
    state.result.modules =
        ModuleBinding::bind(state.dfg(), state.sched(), state.protos());
    state.result.lifetimes = compute_lifetimes(state.dfg(), state.sched(),
                                               state.options().lifetime);
  }

  void serialize(const SynthState& state, Json& ir) const override {
    Json module_of = Json::array();
    for (const Operation& op : state.dfg().ops()) {
      module_of.push_back(
          Json::number(state.result.modules.module_of(op.id).value()));
    }
    ir.set("module_of", std::move(module_of));
    Json lifetimes = Json::array();
    for (const LiveInterval& lt : state.result.lifetimes) {
      Json interval = Json::array();
      interval.push_back(Json::number(lt.birth));
      interval.push_back(Json::number(lt.death));
      lifetimes.push_back(std::move(interval));
    }
    ir.set("lifetimes", std::move(lifetimes));
  }

  void deserialize(const Json& ir, SynthState& state) const override {
    const Dfg& dfg = state.dfg();
    const Json& module_of = ir.at("module_of");
    LBIST_CHECK(module_of.size() == dfg.num_ops(),
                "snapshot module_of does not match the design");
    IdMap<OpId, ModuleId> assignment(dfg.num_ops());
    for (std::size_t i = 0; i < module_of.size(); ++i) {
      assignment[OpId{static_cast<OpId::value_type>(i)}] =
          ModuleId{static_cast<ModuleId::value_type>(module_of.at(i).as_int())};
    }
    state.result.modules = ModuleBinding::restore(dfg, state.sched(),
                                                  state.protos(), assignment);
    const Json& lifetimes = ir.at("lifetimes");
    LBIST_CHECK(lifetimes.size() == dfg.num_vars(),
                "snapshot lifetimes do not match the design");
    state.result.lifetimes.assign(dfg.num_vars(), {});
    for (std::size_t i = 0; i < lifetimes.size(); ++i) {
      const Json& interval = lifetimes.at(i);
      LBIST_CHECK(interval.size() == 2, "snapshot lifetime is not a pair");
      LiveInterval lt;
      lt.birth = interval.at(0).as_int();
      lt.death = interval.at(1).as_int();
      state.result.lifetimes[VarId{static_cast<VarId::value_type>(i)}] = lt;
    }
  }

  [[nodiscard]] std::uint64_t input_fingerprint(
      const SynthState& state) const override {
    std::string key = "sched|";
    key += structural_key(state.dfg(), state.sched());
    key += "|spec=" + spec_key(state.protos());
    key += "|lt=";
    key += state.options().lifetime.hold_outputs_to_end ? '1' : '0';
    return fnv1a64(key);
  }
};

class ConflictGraphPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "conflict_graph"; }

  void run(SynthState& state) const override {
    auto span = trace_span(state.options().trace, "conflict_graph");
    state.cg = build_conflict_graph(state.dfg(), state.result.lifetimes);
    state.has_cg = true;
  }

  void serialize(const SynthState&, Json&) const override {
    // Nothing: the conflict graph is a deterministic function of the
    // lifetimes and the variable roles, both already in the snapshot.
  }

  void deserialize(const Json&, SynthState& state) const override {
    state.cg = build_conflict_graph(state.dfg(), state.result.lifetimes);
    state.has_cg = true;
  }

  [[nodiscard]] std::uint64_t input_fingerprint(
      const SynthState& state) const override {
    std::string key = "cg|";
    key += lifetimes_key(state.result.lifetimes);
    key += "|a:";
    for (const Variable& v : state.dfg().vars()) {
      key += v.allocatable() ? '1' : '0';
    }
    return fnv1a64(key);
  }
};

class BindingPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "binding"; }

  void run(SynthState& state) const override {
    LBIST_CHECK(state.has_cg, "binding pass needs the conflict graph");
    const SynthesisOptions& opts = state.options();
    SynthesisResult& result = state.result;
    auto span = trace_span(opts.trace, "binding");
    switch (opts.binder) {
      case BinderKind::Traditional:
        result.registers = bind_registers_traditional(state.dfg(), state.cg,
                                                      result.lifetimes);
        break;
      case BinderKind::BistAware:
        result.registers =
            bind_registers_bist_aware(state.dfg(), state.cg, result.modules,
                                      opts.bist_binder, nullptr, opts.events);
        break;
      case BinderKind::Ralloc:
        result.registers =
            bind_registers_ralloc(state.dfg(), state.cg, result.modules);
        break;
      case BinderKind::Syntest:
        result.registers =
            bind_registers_syntest(state.dfg(), state.cg, result.modules);
        break;
      case BinderKind::CliquePartition:
        result.registers =
            bind_registers_clique(state.dfg(), state.cg, result.modules);
        break;
      case BinderKind::LoopAware:
        result.registers =
            bind_registers_loop_aware(state.dfg(), result.lifetimes);
        break;
    }
    result.registers.validate(state.dfg(), result.lifetimes);
    if (span.active()) {
      span.arg("registers",
               static_cast<std::uint64_t>(result.registers.num_regs()));
    }
  }

  void serialize(const SynthState& state, Json& ir) const override {
    Json regs = Json::array();
    for (const std::vector<VarId>& reg : state.result.registers.regs) {
      Json vars = Json::array();
      for (VarId v : reg) vars.push_back(Json::number(v.value()));
      regs.push_back(std::move(vars));
    }
    ir.set("registers", std::move(regs));
  }

  void deserialize(const Json& ir, SynthState& state) const override {
    const Dfg& dfg = state.dfg();
    RegisterBinding rb;
    rb.reg_of.assign(dfg.num_vars(), RegId::invalid());
    const Json& regs = ir.at("registers");
    for (std::size_t r = 0; r < regs.size(); ++r) {
      const Json& vars = regs.at(r);
      std::vector<VarId> reg;
      for (std::size_t k = 0; k < vars.size(); ++k) {
        const int v = vars.at(k).as_int();
        LBIST_CHECK(v >= 0 && static_cast<std::size_t>(v) < dfg.num_vars(),
                    "snapshot binding references unknown variable");
        const VarId var{static_cast<VarId::value_type>(v)};
        reg.push_back(var);
        rb.reg_of[var] = RegId{static_cast<RegId::value_type>(r)};
      }
      rb.regs.push_back(std::move(reg));
    }
    rb.validate(dfg, state.result.lifetimes);
    state.result.registers = std::move(rb);
  }

  [[nodiscard]] std::uint64_t input_fingerprint(
      const SynthState& state) const override {
    const SynthesisOptions& opts = state.options();
    std::string key = "bind|";
    append_num(key, static_cast<long long>(opts.binder));
    key += bist_binder_key(opts.bist_binder);
    key += '|';
    key += structural_key(state.dfg(), state.sched());
    key += "|lt:" + lifetimes_key(state.result.lifetimes);
    key += "|mo:" + module_of_key(state.result.modules, state.dfg());
    return fnv1a64(key);
  }
};

class InterconnectPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "interconnect"; }

  void run(SynthState& state) const override {
    const SynthesisOptions& opts = state.options();
    auto span = trace_span(opts.trace, "interconnect");
    state.result.datapath =
        build_datapath(state.dfg(), state.result.modules,
                       state.result.registers, opts.interconnect, "",
                       opts.events);
    if (span.active()) {
      span.arg("muxes",
               static_cast<std::uint64_t>(state.result.datapath.mux_count()));
    }
  }

  void serialize(const SynthState& state, Json& ir) const override {
    ir.set("datapath", datapath_to_json(state.result.datapath));
  }

  void deserialize(const Json& ir, SynthState& state) const override {
    state.result.datapath =
        datapath_from_json(ir.at("datapath"), state.dfg());
  }

  [[nodiscard]] std::uint64_t input_fingerprint(
      const SynthState& state) const override {
    // The data path embeds names (design, port-resident inputs, module
    // labels), so the full textual design participates here.
    std::string key = "ic|";
    key += state.options().interconnect.weight_by_sd ? '1' : '0';
    key += '|';
    key += print_dfg(state.dfg(), &state.sched());
    key += "|spec=" + spec_key(state.protos());
    key += "|mo:" + module_of_key(state.result.modules, state.dfg());
    key += "|rb:" + registers_key(state.result.registers);
    return fnv1a64(key);
  }
};

class BistPass final : public Pass {
 public:
  [[nodiscard]] const char* name() const override { return "bist"; }

  void run(SynthState& state) const override {
    const SynthesisOptions& opts = state.options();
    SynthesisResult& result = state.result;
    {
      auto span = trace_span(opts.trace, "bist");
      switch (opts.binder) {
        case BinderKind::Ralloc:
          result.bist = ralloc_bist_labelling(result.datapath, opts.area);
          break;
        case BinderKind::Syntest:
          result.bist = syntest_bist_labelling(result.datapath, opts.area);
          break;
        default: {
          BistAllocator allocator(opts.area);
          allocator.events = opts.events;
          BistDpStats dp_stats;
          result.bist = allocator.solve(result.datapath, &dp_stats);
          if (span.active()) {
            span.arg("dp_transitions", dp_stats.transitions);
            span.arg("dp_peak_frontier",
                     std::uint64_t{dp_stats.peak_frontier});
            span.arg("dp_live_max", std::uint64_t{dp_stats.live_max});
            if (dp_stats.fallback != nullptr) {
              span.arg("fallback", dp_stats.fallback);
            }
          }
          break;
        }
      }
      if (span.active()) {
        span.arg("extra_area", result.bist.extra_area);
        span.arg_bool("exact", result.bist.exact);
      }
    }
    result.functional_area = opts.area.functional_area(result.datapath);
    result.overhead_percent =
        result.bist.overhead_percent(result.datapath, opts.area);
  }

  void serialize(const SynthState& state, Json& ir) const override {
    ir.set("bist", bist_to_json(state.result.bist));
    ir.set("functional_area", Json::number(state.result.functional_area));
    ir.set("overhead_percent", Json::number(state.result.overhead_percent));
  }

  void deserialize(const Json& ir, SynthState& state) const override {
    state.result.bist = bist_from_json(ir.at("bist"));
    LBIST_CHECK(state.result.bist.roles.size() ==
                    state.result.datapath.registers.size(),
                "snapshot BIST roles do not match the data path");
    state.result.functional_area = ir.at("functional_area").as_number();
    state.result.overhead_percent = ir.at("overhead_percent").as_number();
  }

  [[nodiscard]] std::uint64_t input_fingerprint(
      const SynthState& state) const override {
    const SynthesisOptions& opts = state.options();
    // Which labelling runs depends only on the binder *class*.
    const int cls = opts.binder == BinderKind::Ralloc    ? 0
                    : opts.binder == BinderKind::Syntest ? 1
                                                         : 2;
    std::string key = "bist|";
    append_num(key, cls);
    key += area_key(opts.area);
    key += '|';
    key += datapath_to_json(state.result.datapath).dump_compact();
    return fnv1a64(key);
  }
};

}  // namespace

// ---- PassPipeline --------------------------------------------------------

PassPipeline::PassPipeline() {
  passes_.push_back(std::make_unique<SchedPass>());
  passes_.push_back(std::make_unique<ConflictGraphPass>());
  passes_.push_back(std::make_unique<BindingPass>());
  passes_.push_back(std::make_unique<InterconnectPass>());
  passes_.push_back(std::make_unique<BistPass>());
}

std::size_t PassPipeline::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (name == passes_[i]->name()) return i;
  }
  throw Error("unknown pass: " + std::string(name));
}

void PassPipeline::run(SynthState& state, std::size_t end) const {
  LBIST_CHECK(end <= passes_.size(), "pass index out of range");
  for (std::size_t i = state.completed; i < end; ++i) {
    passes_[i]->run(state);
    state.completed = i + 1;
  }
}

Json PassPipeline::snapshot(const SynthState& state) const {
  LBIST_CHECK(state.completed <= passes_.size(),
              "state completed more passes than the pipeline has");
  Json snap = Json::object();
  snap.set("format", Json::string("lowbist-ir-v1"));
  snap.set("writer", build_info_json());
  snap.set("stage",
           Json::string(state.completed == 0
                            ? "none"
                            : passes_[state.completed - 1]->name()));
  snap.set("design", Json::string(print_dfg(state.dfg(), &state.sched())));
  Json modules = Json::array();
  for (const ModuleProto& p : state.protos()) {
    modules.push_back(Json::string(p.label()));
  }
  snap.set("modules", std::move(modules));
  snap.set("options", options_to_json(state.options()));
  Json ir = Json::object();
  for (std::size_t i = 0; i < state.completed; ++i) {
    passes_[i]->serialize(state, ir);
  }
  snap.set("ir", std::move(ir));
  if (!state.aux.empty()) {
    Json aux = Json::object();
    for (const auto& [key, value] : state.aux) aux.set(key, value);
    snap.set("aux", std::move(aux));
  }
  return snap;
}

SynthState PassPipeline::restore(const Json& snap) const {
  const Json* format = snap.find("format");
  LBIST_CHECK(format != nullptr && format->is_string() &&
                  format->as_string() == "lowbist-ir-v1",
              "not a lowbist IR snapshot (format tag missing or unknown)");
  auto parsed = std::make_unique<ParsedDfg>(parse_dfg(snap.at("design").as_string()));
  std::vector<ModuleProto> protos;
  const Json& modules = snap.at("modules");
  for (std::size_t i = 0; i < modules.size(); ++i) {
    protos.push_back(proto_from_label(modules.at(i).as_string()));
  }
  SynthState state(std::move(parsed), std::move(protos),
                   options_from_json(snap.at("options")));
  const std::string& stage = snap.at("stage").as_string();
  if (stage != "none") {
    const std::size_t last = index_of(stage);
    const Json& ir = snap.at("ir");
    for (std::size_t i = 0; i <= last; ++i) {
      passes_[i]->deserialize(ir, state);
      state.completed = i + 1;
    }
  }
  if (const Json* aux = snap.find("aux")) {
    for (const std::string& key : aux->keys()) {
      state.aux[key] = aux->at(key);
    }
  }
  return state;
}

const PassPipeline& PassPipeline::standard() {
  static const PassPipeline pipeline;
  return pipeline;
}

// ---- Options / spec serialization ----------------------------------------

Json options_to_json(const SynthesisOptions& opts) {
  Json j = Json::object();
  j.set("binder", Json::string(binder_kind_name(opts.binder)));
  Json bb = Json::object();
  bb.set("sd_ordered_pves", Json::boolean(opts.bist_binder.sd_ordered_pves));
  bb.set("delta_sd_rule", Json::boolean(opts.bist_binder.delta_sd_rule));
  bb.set("case_overrides", Json::boolean(opts.bist_binder.case_overrides));
  bb.set("avoid_cbilbo", Json::boolean(opts.bist_binder.avoid_cbilbo));
  j.set("bist_binder", std::move(bb));
  Json ic = Json::object();
  ic.set("weight_by_sd", Json::boolean(opts.interconnect.weight_by_sd));
  j.set("interconnect", std::move(ic));
  Json lt = Json::object();
  lt.set("hold_outputs_to_end",
         Json::boolean(opts.lifetime.hold_outputs_to_end));
  j.set("lifetime", std::move(lt));
  Json area = Json::object();
  area.set("bit_width", Json::number(opts.area.bit_width));
  area.set("reg_gates_per_bit", Json::number(opts.area.reg_gates_per_bit));
  area.set("mux_gates_per_bit", Json::number(opts.area.mux_gates_per_bit));
  area.set("tpg_extra_per_bit", Json::number(opts.area.tpg_extra_per_bit));
  area.set("sa_extra_per_bit", Json::number(opts.area.sa_extra_per_bit));
  area.set("bilbo_extra_per_bit",
           Json::number(opts.area.bilbo_extra_per_bit));
  area.set("cbilbo_extra_per_bit",
           Json::number(opts.area.cbilbo_extra_per_bit));
  area.set("add_gates_per_bit", Json::number(opts.area.add_gates_per_bit));
  area.set("sub_gates_per_bit", Json::number(opts.area.sub_gates_per_bit));
  area.set("logic_gates_per_bit",
           Json::number(opts.area.logic_gates_per_bit));
  area.set("cmp_gates_per_bit", Json::number(opts.area.cmp_gates_per_bit));
  area.set("mul_gates_per_bit2", Json::number(opts.area.mul_gates_per_bit2));
  area.set("div_gates_per_bit2", Json::number(opts.area.div_gates_per_bit2));
  area.set("alu_extra_kind_factor",
           Json::number(opts.area.alu_extra_kind_factor));
  j.set("area", std::move(area));
  return j;
}

SynthesisOptions options_from_json(const Json& j) {
  SynthesisOptions opts;
  opts.binder = binder_kind_from_name(j.at("binder").as_string());
  const Json& bb = j.at("bist_binder");
  opts.bist_binder.sd_ordered_pves = bb.at("sd_ordered_pves").as_bool();
  opts.bist_binder.delta_sd_rule = bb.at("delta_sd_rule").as_bool();
  opts.bist_binder.case_overrides = bb.at("case_overrides").as_bool();
  opts.bist_binder.avoid_cbilbo = bb.at("avoid_cbilbo").as_bool();
  opts.interconnect.weight_by_sd =
      j.at("interconnect").at("weight_by_sd").as_bool();
  opts.lifetime.hold_outputs_to_end =
      j.at("lifetime").at("hold_outputs_to_end").as_bool();
  const Json& area = j.at("area");
  opts.area.bit_width = area.at("bit_width").as_int();
  opts.area.reg_gates_per_bit = area.at("reg_gates_per_bit").as_number();
  opts.area.mux_gates_per_bit = area.at("mux_gates_per_bit").as_number();
  opts.area.tpg_extra_per_bit = area.at("tpg_extra_per_bit").as_number();
  opts.area.sa_extra_per_bit = area.at("sa_extra_per_bit").as_number();
  opts.area.bilbo_extra_per_bit = area.at("bilbo_extra_per_bit").as_number();
  opts.area.cbilbo_extra_per_bit =
      area.at("cbilbo_extra_per_bit").as_number();
  opts.area.add_gates_per_bit = area.at("add_gates_per_bit").as_number();
  opts.area.sub_gates_per_bit = area.at("sub_gates_per_bit").as_number();
  opts.area.logic_gates_per_bit = area.at("logic_gates_per_bit").as_number();
  opts.area.cmp_gates_per_bit = area.at("cmp_gates_per_bit").as_number();
  opts.area.mul_gates_per_bit2 = area.at("mul_gates_per_bit2").as_number();
  opts.area.div_gates_per_bit2 = area.at("div_gates_per_bit2").as_number();
  opts.area.alu_extra_kind_factor =
      area.at("alu_extra_kind_factor").as_number();
  return opts;
}

ModuleProto proto_from_label(std::string_view label) {
  LBIST_CHECK(!label.empty(), "empty module label");
  ModuleProto p;
  if (label.front() == '[') {
    LBIST_CHECK(label.size() >= 3 && label.back() == ']',
                "malformed ALU label: " + std::string(label));
    for (std::size_t i = 1; i + 1 < label.size(); ++i) {
      p.supports.push_back(kind_from_symbol(label.substr(i, 1)));
    }
  } else {
    p.supports.push_back(kind_from_symbol(label));
  }
  return p;
}

}  // namespace lbist
