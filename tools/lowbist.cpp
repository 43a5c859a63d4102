// lowbist — command-line front end to the library.
//
//   lowbist synth <design.dfg> [options]
//       Synthesize one data path and print the design + BIST report.
//   lowbist synth --resume-from <snap.json|-> [options]
//       Continue from an IR snapshot written by --dump-ir; the snapshot's
//       recorded synthesis options (binder, width, ...) win over the flags.
//   lowbist compare <design.dfg> [--modules SPEC] [--width N] [--json]
//       Traditional vs BIST-aware side by side (the Table I experiment).
//   lowbist tables [--width N]
//       Print the paper's Tables I-II on the built-in benchmarks.
//   lowbist bench <name>
//       Print a built-in benchmark (ex1, ex2, tseng, tseng1, tseng2,
//       paulin, paulin-loop) in the textual DFG format.
//   lowbist schedule <design.dfg> [--fu "2*"]... [--latency N]
//       Schedule an unannotated design (resource-constrained list
//       scheduling, or force-directed when --latency is given) and print
//       it back with @step annotations.
//   lowbist optimize <design.dfg>
//       Common-subexpression elimination + dead-code removal.
//   lowbist batch <jobs.jsonl|-> [-j N] [--metrics out.json] [--cache N]
//       Run a JSONL job manifest over a thread pool with a synthesis cache;
//       one JSON result line per job in completion order (docs/service.md).
//   lowbist serve [--port P] [-j N] [--shards N] [--cache N] ...
//       Long-running synthesis server on 127.0.0.1 speaking newline-
//       delimited JSON with the batch job schema (docs/server.md).
//   lowbist client <host:port> <jobs.jsonl|->
//       Send a job manifest to a running server, print one line per job.
//   lowbist fuzz [--seed N] [--cases N] [-j N] ...  |  --replay <file>
//       Differential fuzzing against the simulation/Lemma-2/area/report
//       oracles, or re-judging one corpus reproducer (docs/fuzzing.md).
//   lowbist explore <design.dfg> [--modules "S1;S2"] [--binder K[,K]] ...
//       Design-space sweep with a Pareto filter; --pareto bist grades
//       area x coverage x test length (docs/hybrid-bist.md).
//   lowbist metrics <dump.json|-> [--prom]
//       Pretty-print a MetricsRegistry dump, or convert it to Prometheus.
//   lowbist version [--json]
//       Print the build identity.
//
// Options (each command takes only the ones its usage line lists; any
// other flag is a usage error, exit 2):
//   --modules SPEC     module assignment, e.g. "1+,2*" or "1+,3[-*/&|]"
//                      (default: minimal spec derived from the schedule)
//   --binder KIND      trad | bist | ralloc | syntest | clique | loop
//   --width N          datapath bit width for the area model (default 4)
//   --patterns N       BIST patterns per module for the test plan (250)
//   --coverage T       pick the pattern budget by target coverage (0-1)
//                      instead of --patterns
//   --dot / --verilog / --ctrl-verilog / --bist-verilog / --testbench /
//   --vcd              emit Graphviz, structural Verilog, the controller
//                      FSM, the self-testing RTL, a self-checking testbench
//                      or a VCD of one functional run
//   --plan / --selftest  print the fault-simulated test plan / chip-level
//                      self-test coverage
//   --json             machine-readable report instead of text
//   --decisions        print the BIST-aware binder's decision log
//   --dump-ir STAGE    stop after STAGE (sched, conflict_graph, binding,
//                      interconnect, bist) and print the IR snapshot
//   --ir-out FILE      write the --dump-ir snapshot to FILE
//   --checkpoint FILE  (explore) JSONL checkpoint of finished points
//   --trace FILE       Chrome trace_event JSON of the pipeline's spans
//   --trace-events FILE  algorithm decision events as JSONL
//   --profile FILE     span-attributed sampling profile: folded stacks to
//                      FILE, JSON report to FILE.json
//   --profile-hz N     profiler sampling rate per thread (default 199)
//   --slow-ms N        (serve) log requests slower than N ms
// A value flag's value may not start with "--".

#include <algorithm>
#include <climits>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "binding/bist_aware_binder.hpp"
#include "bist/selftest.hpp"
#include "bist/test_length.hpp"
#include "bist/test_plan.hpp"
#include "bist/verilog_bist.hpp"
#include "core/compare.hpp"
#include "core/explorer.hpp"
#include "core/report.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/optimize.hpp"
#include "fuzz/fuzz.hpp"
#include "graph/conflict.hpp"
#include "hybrid/pareto.hpp"
#include "obs/events.hpp"
#include "obs/profiler.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "passes/pipeline.hpp"
#include "rtl/controller.hpp"
#include "rtl/simulate.hpp"
#include "rtl/testbench.hpp"
#include "rtl/vcd.hpp"
#include "rtl/verilog.hpp"
#include "rtl/verilog_controller.hpp"
#include "sched/force_directed.hpp"
#include "sched/list_sched.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "service/batch.hpp"
#include "service/metrics.hpp"
#include "service/thread_pool.hpp"
#include "support/table.hpp"
#include "support/version.hpp"

namespace {

using namespace lbist;

/// Everything the flags set.  Defaults are the documented ones.
struct CliOptions {
  std::vector<std::string> args;  ///< positional arguments
  std::optional<std::string> modules;
  std::optional<std::string> binder;
  int width = 4;
  int patterns = 250;
  bool dot = false;
  bool verilog = false;
  bool plan = false;
  bool selftest = false;
  bool testbench = false;
  bool bist_verilog = false;
  bool json = false;
  bool vcd = false;
  bool ctrl_verilog = false;
  std::optional<double> coverage_target;
  bool decisions = false;
  std::optional<std::string> dump_ir;      // synth: stop after this pass
  std::optional<std::string> ir_out;       // synth: snapshot destination
  std::optional<std::string> resume_from;  // synth: snapshot to restore
  std::optional<std::string> checkpoint;   // explore: JSONL sweep checkpoint
  std::optional<std::string> pareto;       // explore: objective set ("bist")
  std::optional<std::string> trace_path;
  std::optional<std::string> trace_events_path;
  std::optional<std::string> profile_path;
  int profile_hz = 199;
  int slow_ms = 0;
  bool prom = false;
  std::vector<std::string> fu;
  std::optional<int> latency;
  int jobs = 1;
  int cache_capacity = 256;
  std::optional<std::string> metrics_path;
  int port = 0;
  int max_queue = 64;
  int deadline_ms = 0;
  int shards = 1;
  std::optional<std::string> cache_dir;
  int cache_budget_mb = 256;
  // fuzz
  std::uint64_t fuzz_seed = 1;
  int fuzz_cases = 1000;
  bool fuzz_fixed_width = false;
  bool fuzz_no_minimize = false;
  bool fuzz_large_shapes = false;
  int fuzz_max_reports = 10;
  int fuzz_progress = 0;
  std::optional<std::string> fuzz_out;
  std::optional<std::string> fuzz_replay;
  bool fuzz_inject_binding_bug = false;  // hidden mutation self-test
};

/// One row of the command table.
struct Command {
  const char* name;
  int min_args;
  int max_args;
  const char* args;    ///< positional synopsis, for the arity error
  const char* flags;   ///< space-separated flags the handler reads
  bool observed;       ///< also takes --trace/--trace-events/--profile[-hz]
  const char* usage;   ///< usage lines (after "lowbist ")
  int (*run)(const CliOptions&);
};

constexpr const char* kObservabilityFlags =
    "--trace --trace-events --profile --profile-hz";

const std::vector<Command>& commands();

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage:\n";
  for (const Command& cmd : commands()) std::cerr << cmd.usage;
  std::cerr <<
      "\n"
      "observability (synth, batch, serve, explore):\n"
      "  --trace FILE         Chrome trace_event JSON of pipeline spans\n"
      "  --trace-events FILE  algorithm decision events as JSONL\n"
      "  --profile FILE       span-attributed sampling profile: folded\n"
      "                       stacks to FILE, JSON report to FILE.json\n"
      "  --profile-hz N       sampling rate per thread (default 199)\n";
  std::exit(error.empty() ? 0 : 2);
}

// ---- The flag table -------------------------------------------------------

/// One occurrence of a flag being applied: its spelling (for messages) and
/// its value.
struct FlagArg {
  std::string_view flag;
  std::string value;

  [[noreturn]] void fail(const std::string& need) const {
    usage("flag " + std::string(flag) + " needs " + need);
  }

  /// The whole value through `parse` (a std::sto* call), or a usage error.
  template <typename Parse>
  auto parsed(Parse parse, const char* kind) const {
    try {
      std::size_t used = 0;
      const auto v = parse(value, &used);
      if (used == value.size()) return v;
    } catch (const std::exception&) {
    }
    fail(std::string(kind) + ", got: " + value);
  }

  [[nodiscard]] int integer() const {
    return parsed([](auto& s, auto* u) { return std::stoi(s, u); },
                  "an integer");
  }
};

/// One row of the flag table.  A switch sets `on`; a value flag stores
/// into `text` or `number` (which must lie in [lo, hi], else "flag F needs
/// <need>"), or runs `apply`.
struct Flag {
  const char* name;
  bool CliOptions::*on = nullptr;
  std::optional<std::string> CliOptions::*text = nullptr;
  int CliOptions::*number = nullptr;
  int lo = INT_MIN;
  int hi = INT_MAX;
  const char* need = nullptr;
  void (*apply)(CliOptions&, const FlagArg&) = nullptr;
  const char* alias = nullptr;  ///< second spelling
};

using O = CliOptions;

const Flag kFlags[] = {
    {.name = "--modules", .text = &O::modules},
    {.name = "--binder", .text = &O::binder},
    {.name = "--width", .number = &O::width},
    {.name = "--patterns", .number = &O::patterns},
    {.name = "--coverage",
     .apply = [](O& o, const FlagArg& a) {
       o.coverage_target = a.parsed(
           [](auto& s, auto* u) { return std::stod(s, u); }, "a number");
     }},
    {.name = "--dot", .on = &O::dot},
    {.name = "--verilog", .on = &O::verilog},
    {.name = "--plan", .on = &O::plan},
    {.name = "--selftest", .on = &O::selftest},
    {.name = "--testbench", .on = &O::testbench},
    {.name = "--bist-verilog", .on = &O::bist_verilog},
    {.name = "--json", .on = &O::json},
    {.name = "--vcd", .on = &O::vcd},
    {.name = "--ctrl-verilog", .on = &O::ctrl_verilog},
    {.name = "--decisions", .on = &O::decisions},
    {.name = "--dump-ir", .text = &O::dump_ir},
    {.name = "--ir-out", .text = &O::ir_out},
    {.name = "--resume-from", .text = &O::resume_from},
    {.name = "--checkpoint", .text = &O::checkpoint},
    {.name = "--pareto", .text = &O::pareto},
    {.name = "--fu",
     .apply = [](O& o, const FlagArg& a) { o.fu.push_back(a.value); }},
    {.name = "--latency",
     .apply = [](O& o, const FlagArg& a) { o.latency = a.integer(); }},
    {.name = "--trace", .text = &O::trace_path},
    {.name = "--trace-events", .text = &O::trace_events_path},
    {.name = "--profile", .text = &O::profile_path},
    {.name = "--profile-hz", .number = &O::profile_hz, .lo = 1, .hi = 10000,
     .need = "1..10000"},
    {.name = "--slow-ms", .number = &O::slow_ms, .lo = 0,
     .need = "a non-negative threshold"},
    {.name = "--prom", .on = &O::prom},
    {.name = "-j", .number = &O::jobs, .alias = "--jobs"},
    {.name = "--cache", .number = &O::cache_capacity, .lo = 1,
     .need = "a positive capacity"},
    {.name = "--metrics", .text = &O::metrics_path},
    {.name = "--port", .number = &O::port, .lo = 0, .hi = 65535,
     .need = "0..65535"},
    {.name = "--max-queue", .number = &O::max_queue, .lo = 1,
     .need = "a positive bound"},
    {.name = "--deadline-ms", .number = &O::deadline_ms, .lo = 0,
     .need = "a non-negative value"},
    {.name = "--shards", .number = &O::shards, .lo = 1,
     .need = "a positive count"},
    {.name = "--cache-dir", .text = &O::cache_dir},
    {.name = "--cache-budget-mb", .number = &O::cache_budget_mb, .lo = 1,
     .need = "a positive size"},
    {.name = "--seed",
     .apply = [](O& o, const FlagArg& a) {
       o.fuzz_seed = a.parsed(
           [](auto& s, auto* u) { return std::stoull(s, u); },
           "an unsigned integer");
     }},
    {.name = "--cases", .number = &O::fuzz_cases, .lo = 1,
     .need = "a positive count"},
    {.name = "--fixed-width", .on = &O::fuzz_fixed_width},
    {.name = "--no-minimize", .on = &O::fuzz_no_minimize},
    {.name = "--large-shapes", .on = &O::fuzz_large_shapes},
    {.name = "--max-reports", .number = &O::fuzz_max_reports, .lo = 0,
     .need = "a non-negative count"},
    {.name = "--progress", .number = &O::fuzz_progress, .lo = 0,
     .need = "a non-negative interval"},
    {.name = "--out", .text = &O::fuzz_out},
    {.name = "--replay", .text = &O::fuzz_replay},
    // Intentionally undocumented: the fuzzing self-test (CI asserts the
    // harness catches and minimizes a deliberately broken binding).
    {.name = "--inject-binding-bug", .on = &O::fuzz_inject_binding_bug},
};

const Flag* find_flag(std::string_view spelling) {
  for (const Flag& f : kFlags) {
    if (spelling == f.name || (f.alias != nullptr && spelling == f.alias)) {
      return &f;
    }
  }
  return nullptr;
}

/// Whether the space-separated `list` names `flag`.
bool lists(std::string_view list, std::string_view flag) {
  while (!list.empty()) {
    const std::size_t sp = list.find(' ');
    if (list.substr(0, sp) == flag) return true;
    if (sp == std::string_view::npos) break;
    list.remove_prefix(sp + 1);
  }
  return false;
}

bool accepts(const Command& cmd, const Flag& flag) {
  return lists(cmd.flags, flag.name) ||
         (cmd.observed && lists(kObservabilityFlags, flag.name));
}

/// Positionals first ("-" counts as one: stdin), then flags.
CliOptions parse_args(const Command& cmd, int argc, char** argv) {
  CliOptions opts;
  int i = 2;
  auto positional = [](std::string_view a) {
    return a == "-" || a.substr(0, 1) != "-";
  };
  while (i < argc && static_cast<int>(opts.args.size()) < cmd.max_args &&
         positional(argv[i])) {
    opts.args.emplace_back(argv[i++]);
  }
  while (i < argc) {
    const std::string_view spelling = argv[i++];
    if (spelling == "--help" || spelling == "-h") usage();
    const Flag* flag = find_flag(spelling);
    if (flag == nullptr) {
      usage((positional(spelling) ? "unexpected argument: "
                                   : "unknown flag: ") +
            std::string(spelling));
    }
    if (!accepts(cmd, *flag)) {
      usage(std::string(cmd.name) + " does not take " + std::string(spelling));
    }
    if (flag->on != nullptr) {
      opts.*flag->on = true;
      continue;
    }
    if (i >= argc || std::string_view(argv[i]).substr(0, 2) == "--") {
      usage("missing value for " + std::string(spelling));
    }
    const FlagArg arg{spelling, argv[i++]};
    if (flag->text != nullptr) {
      opts.*flag->text = arg.value;
    } else if (flag->number != nullptr) {
      const int n = arg.integer();
      if (n < flag->lo || n > flag->hi) arg.fail(flag->need);
      opts.*flag->number = n;
    } else {
      flag->apply(opts, arg);
    }
  }
  if (static_cast<int>(opts.args.size()) < cmd.min_args) {
    usage(std::string(cmd.name) + " needs " + cmd.args);
  }
  return opts;
}

// ---- Shared helpers -------------------------------------------------------

/// --profile: arms the span-attributed sampling profiler around one
/// command; write() (after the command returns) disarms it and emits the
/// folded stacks to FILE plus the JSON report to FILE.json.
class ProfileScope {
 public:
  explicit ProfileScope(const CliOptions& cli) : cli_(cli) {
    if (!cli_.profile_path.has_value()) return;
    // Pools created later (batch workers, server shards + workers, explorer
    // pools) attach their threads through the thread-start hook; the main
    // thread attaches here.
    ThreadPool::set_thread_start_hook(
        [] { obs::Profiler::attach_current_thread(); });
    obs::Profiler::attach_current_thread();
    obs::ProfilerOptions po;
    po.hz = cli_.profile_hz;
    obs::Profiler::instance().start(po);
    active_ = true;
  }

  void write() {
    if (!active_) return;
    active_ = false;
    obs::Profiler& prof = obs::Profiler::instance();
    prof.stop();
    const obs::ProfileReport rep = prof.collect();
    std::ofstream folded(*cli_.profile_path);
    if (!folded) throw Error("cannot write profile: " + *cli_.profile_path);
    rep.write_folded(folded);
    const std::string jpath = *cli_.profile_path + ".json";
    std::ofstream jout(jpath);
    if (!jout) throw Error("cannot write profile: " + jpath);
    jout << rep.to_json().dump() << "\n";
    std::cerr << "profile: " << rep.samples << " samples @ " << rep.hz
              << " Hz across " << rep.threads << " threads (" << rep.dropped
              << " dropped) -> " << *cli_.profile_path << "\n";
  }

 private:
  const CliOptions& cli_;
  bool active_ = false;
};

/// Opens `path` for writing or throws "cannot write <what>: <path>".
std::ofstream open_output(const std::string& path, const char* what) {
  std::ofstream out(path);
  if (!out) throw Error(std::string("cannot write ") + what + ": " + path);
  return out;
}

/// Writes a metrics dump stamped with the writing build, so archived
/// metrics stay attributable (prometheus conversion ignores the key).
void write_metrics(const std::string& path, const MetricsRegistry& metrics) {
  open_output(path, "metrics")
      << metrics.to_json().set("build", build_info_json()).dump() << "\n";
}

/// Observability sinks requested via --trace / --trace-events.  Built
/// up-front, threaded through the command, flushed with write() at the end.
struct ObsSinks {
  std::unique_ptr<TraceRecorder> trace;
  std::unique_ptr<AlgorithmEvents> events;

  static ObsSinks from_cli(const CliOptions& cli,
                           MetricsRegistry* metrics = nullptr) {
    ObsSinks obs;
    if (cli.trace_path.has_value()) {
      obs.trace = std::make_unique<TraceRecorder>();
      obs.trace->set_enabled(true);
    }
    if (cli.trace_events_path.has_value()) {
      obs.events =
          std::make_unique<AlgorithmEvents>(metrics, /*keep_events=*/true);
    }
    return obs;
  }

  void write(const CliOptions& cli) const {
    if (trace != nullptr) {
      std::ofstream out = open_output(*cli.trace_path, "trace");
      trace->write_chrome(out);
    }
    if (events != nullptr) {
      std::ofstream out = open_output(*cli.trace_events_path, "events");
      events->write_jsonl(out);
    }
  }
};

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open " + what + ": " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Reads a manifest (or snapshot, or metrics dump) from a path, or from
/// stdin when the path is "-".
std::string read_manifest(const std::string& path) {
  if (path != "-") return read_file(path, "manifest");
  std::ostringstream buf;
  buf << std::cin.rdbuf();
  return buf.str();
}

ParsedDfg load_design(const std::string& path) {
  return parse_dfg(read_file(path, "file"));
}

ParsedDfg load_scheduled(const std::string& path) {
  ParsedDfg design = load_design(path);
  if (!design.schedule.has_value()) {
    throw Error("design has no @step annotations; schedule it first");
  }
  return design;
}

/// The library's short-name parser, with its error as a usage error.
BinderKind binder_arg(const std::string& name) {
  try {
    return binder_from_short_name(name);
  } catch (const Error& e) {
    usage(e.what());
  }
}

std::vector<std::string> split_list(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// --binder K[,K]: replaces the sweep's default binders when given.
void apply_binder_list(const CliOptions& cli,
                       std::vector<BinderKind>* binders) {
  if (!cli.binder.has_value()) return;
  binders->clear();
  for (const std::string& name : split_list(*cli.binder, ',')) {
    binders->push_back(binder_arg(name));
  }
  if (binders->empty()) usage("--binder gave no binders");
}

/// The minimal one-of-each module spec of a scheduled design ("1+,1*").
std::string default_spec(const ParsedDfg& design) {
  std::string spec;
  for (const auto& p : minimal_module_spec(design.dfg, *design.schedule)) {
    if (!spec.empty()) spec += ",";
    spec += "1" + p.label();
  }
  return spec;
}

/// --modules "S1;S2;...", or the default spec alone.
std::vector<std::string> module_specs(const CliOptions& cli,
                                      const ParsedDfg& design) {
  if (!cli.modules.has_value()) return {default_spec(design)};
  std::vector<std::string> specs = split_list(*cli.modules, ';');
  if (specs.empty()) usage("--modules gave no specs");
  return specs;
}

/// Adds one "<count><symbol>" functional-unit budget such as "2*".
void add_fu_budget(const std::string& part, const char* expects,
                   ResourceLimits* limits) {
  const std::string digits = part.substr(0, part.size() - 1);
  std::size_t used = 0;
  int count = 0;
  try {
    count = std::stoi(digits, &used);
  } catch (const std::exception&) {
  }
  LBIST_CHECK(part.size() >= 2 && used == digits.size(),
              std::string("--fu expects ") + expects);
  (*limits)[kind_from_symbol(part.substr(part.size() - 1))] = count;
}

// ---- Commands -------------------------------------------------------------

int cmd_synth(const CliOptions& cli) {
  if (cli.args.empty() && !cli.resume_from.has_value()) {
    usage("synth needs a design file or --resume-from");
  }
  ObsSinks obs = ObsSinks::from_cli(cli);
  const PassPipeline& pipeline = PassPipeline::standard();

  // Build the synthesis state: restored from an IR snapshot, or fresh from
  // the design file.
  std::optional<ParsedDfg> design;  // keeps the live path's DFG alive
  std::optional<SynthState> state;
  if (cli.resume_from.has_value()) {
    if (!cli.args.empty()) {
      usage("--resume-from replaces the design file argument");
    }
    // The snapshot's recorded options win over --binder/--width: resumed
    // passes must agree with the ones that produced the snapshot.
    const Json snap = Json::parse(read_manifest(*cli.resume_from));
    state.emplace(pipeline.restore(snap));
  } else {
    design.emplace(load_scheduled(cli.args[0]));
    auto protos = cli.modules.has_value()
                      ? parse_module_spec(*cli.modules)
                      : minimal_module_spec(design->dfg, *design->schedule);
    SynthesisOptions fresh;
    fresh.binder = binder_arg(cli.binder.value_or("bist"));
    fresh.area.bit_width = cli.width;
    state.emplace(design->dfg, *design->schedule, std::move(protos), fresh);
  }
  state->options().trace = obs.trace.get();
  state->options().events = obs.events.get();

  const Dfg& dfg = state->dfg();
  const Schedule& sched = state->sched();
  const SynthesisOptions opts = state->options();
  // Every emitter works at the width the data path was synthesized at.
  const int width = opts.area.bit_width;

  if (cli.decisions && opts.binder == BinderKind::BistAware) {
    auto lt = compute_lifetimes(dfg, sched, opts.lifetime);
    auto cg = build_conflict_graph(dfg, lt);
    auto mb = ModuleBinding::bind(dfg, sched, state->protos());
    std::vector<std::string> trace;
    (void)bind_registers_bist_aware(dfg, cg, mb, opts.bist_binder, &trace);
    std::cout << "--- binder trace ---\n";
    for (const auto& line : trace) std::cout << "  " << line << "\n";
  }

  if (cli.dump_ir.has_value()) {
    // Stop after the named pass and emit the snapshot instead of a report.
    const std::size_t end = pipeline.index_of(*cli.dump_ir) + 1;
    LBIST_CHECK(state->completed <= end,
                "snapshot is already past stage " + *cli.dump_ir);
    pipeline.run(*state, end);
    const std::string text = pipeline.snapshot(*state).dump() + "\n";
    if (cli.ir_out.has_value()) {
      open_output(*cli.ir_out, "snapshot") << text;
    } else {
      std::cout << text;
    }
    obs.write(cli);
    return 0;
  }

  pipeline.run(*state);
  const SynthesisResult result = std::move(state->result);
  auto rtl_span = trace_span(obs.trace.get(), "rtl");
  if (cli.json) {
    std::cout << report_json(dfg, result).dump() << "\n";
  } else {
    std::cout << result.describe(dfg);
  }
  int patterns = cli.patterns;
  if (cli.coverage_target.has_value()) {
    auto budgets =
        find_test_lengths(result.datapath, width, *cli.coverage_target);
    patterns = budgets.recommended_patterns;
    std::cout << "pattern budget for " << 100.0 * *cli.coverage_target
              << "% coverage: " << patterns
              << (budgets.all_targets_met ? "" : " (some modules cannot reach the target)")
              << "\n";
  }
  if (cli.plan) {
    TestPlan plan =
        build_test_plan(result.datapath, result.bist, patterns, width);
    std::cout << plan.describe(result.datapath);
  }
  if (cli.selftest) {
    auto st = run_self_test(result.datapath, result.bist, patterns, width);
    std::cout << "chip-level self-test: " << st.faults_detected << "/"
              << st.faults_injected << " port faults detected ("
              << fmt_double(100.0 * st.coverage(), 1) << "%)\n";
  }
  if (cli.bist_verilog) {
    auto st = run_self_test(result.datapath, result.bist, patterns, width);
    std::cout << emit_bist_verilog(result.datapath, result.bist, st, patterns,
                                   width);
  }
  if (cli.dot) std::cout << result.datapath.to_dot();
  if (cli.verilog) std::cout << emit_verilog(result.datapath, width);
  if (cli.ctrl_verilog || cli.vcd || cli.testbench) {
    const Controller ctl = Controller::generate(
        dfg, sched, result.registers, result.datapath, result.lifetimes);
    if (cli.ctrl_verilog) {
      std::cout << emit_controller_verilog(result.datapath, ctl);
    }
    if (cli.vcd || cli.testbench) {
      // Deterministic example stimulus: input i gets value i+1.
      IdMap<VarId, std::uint32_t> inputs(dfg.num_vars(), 0);
      std::uint32_t next = 1;
      for (const auto& v : dfg.vars()) {
        if (v.is_input()) inputs[v.id] = next++;
      }
      auto sim = simulate_datapath(dfg, result.datapath, ctl, inputs, width);
      if (cli.vcd) std::cout << emit_vcd(result.datapath, sim, width);
      if (cli.testbench) {
        LBIST_CHECK(sim.ok(), "internal error: simulation mismatch");
        std::cout << emit_testbench(dfg, result.datapath, ctl, inputs, sim,
                                    width);
      }
    }
  }
  rtl_span.finish();
  obs.write(cli);
  return 0;
}

int cmd_compare(const CliOptions& cli) {
  const std::string& path = cli.args[0];
  ParsedDfg design = load_scheduled(path);
  std::string spec = cli.modules.has_value() ? *cli.modules
                                             : default_spec(design);
  Benchmark bench{path, std::move(design), std::move(spec)};

  AreaModel model;
  model.bit_width = cli.width;
  ComparisonRow row = compare_benchmark(bench, model);
  if (cli.json) {
    std::cout << comparison_json(row).dump() << "\n";
    return 0;
  }
  TextTable t({"arm", "# Reg", "# Mux", "BIST resources", "% BIST area"});
  t.add_row({"traditional", std::to_string(row.traditional.num_registers()),
             std::to_string(row.traditional.num_mux()),
             row.traditional.bist.counts().to_string(),
             fmt_double(row.traditional.overhead_percent)});
  t.add_row({"bist-aware", std::to_string(row.testable.num_registers()),
             std::to_string(row.testable.num_mux()),
             row.testable.bist.counts().to_string(),
             fmt_double(row.testable.overhead_percent)});
  std::cout << t;
  std::cout << "reduction in BIST area: "
            << fmt_double(row.reduction_percent()) << "%\n";
  return 0;
}

int cmd_tables(const CliOptions& cli) {
  AreaModel model;
  model.bit_width = cli.width;
  auto rows = compare_paper_benchmarks(model);
  TextTable t({"DFG", "modules", "#Reg", "#Mux(T)", "%BIST(T)", "#Mux(ours)",
               "%BIST(ours)", "%reduction"});
  t.set_title("Table I reproduction");
  for (const auto& r : rows) {
    t.add_row({r.name, r.module_spec,
               std::to_string(r.testable.num_registers()),
               std::to_string(r.traditional.num_mux()),
               fmt_double(r.traditional.overhead_percent),
               std::to_string(r.testable.num_mux()),
               fmt_double(r.testable.overhead_percent),
               fmt_double(r.reduction_percent())});
  }
  std::cout << t << "\n";
  TextTable t2({"DFG", "traditional", "testable"});
  t2.set_title("Table II reproduction (minimal-area BIST solutions)");
  for (const auto& r : rows) {
    t2.add_row({r.name, r.traditional.bist.counts().to_string(),
                r.testable.bist.counts().to_string()});
  }
  std::cout << t2;
  return 0;
}

int cmd_bench(const CliOptions& cli) {
  const Benchmark bench = [&] {
    try {
      return builtin_benchmark(cli.args[0]);
    } catch (const Error& e) {
      usage(e.what());
    }
  }();
  std::cout << "# module spec: " << bench.module_spec << "\n"
            << print_dfg(bench.design.dfg, &*bench.design.schedule);
  return 0;
}

int cmd_schedule(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.args[0]);
  if (design.schedule.has_value()) {
    std::cout << print_dfg(design.dfg, &*design.schedule);
    return 0;
  }
  Schedule sched = [&] {
    if (cli.latency.has_value()) {
      return force_directed_schedule(design.dfg, *cli.latency);
    }
    ResourceLimits limits;
    for (const std::string& fu : cli.fu) {
      add_fu_budget(fu, "e.g. \"2*\"", &limits);
    }
    return list_schedule(design.dfg, limits);
  }();
  std::cout << print_dfg(design.dfg, &sched);
  return 0;
}

int cmd_optimize(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.args[0]);
  auto cse = eliminate_common_subexpressions(design.dfg);
  auto clean = remove_dead_code(cse.dfg);
  for (const auto& name : cse.removed_ops) {
    std::cerr << "# merged duplicate: " << name << "\n";
  }
  for (const auto& name : clean.removed_ops) {
    std::cerr << "# removed dead op: " << name << "\n";
  }
  std::cout << print_dfg(clean.dfg);
  return 0;
}

int cmd_batch(const CliOptions& cli) {
  const std::string& path = cli.args[0];
  const auto entries = parse_manifest(read_manifest(path));
  if (entries.empty()) throw Error("manifest has no jobs: " + path);

  MetricsRegistry metrics;
  ObsSinks obs = ObsSinks::from_cli(cli, &metrics);
  // The decision counters (binding.*, cbilbo.*, ...) belong in the batch
  // metrics dump whether or not the event stream is exported; without
  // --trace-events the sink stays counters-only and never grows.
  AlgorithmEvents counters_only(&metrics, /*keep_events=*/false);
  BatchOptions opts;
  opts.jobs = cli.jobs;
  opts.cache_capacity = static_cast<std::size_t>(cli.cache_capacity);
  opts.metrics = &metrics;
  opts.trace = obs.trace.get();
  opts.events = obs.events != nullptr ? obs.events.get() : &counters_only;
  const BatchSummary summary = run_batch(entries, opts, std::cout);
  obs.write(cli);

  if (cli.metrics_path.has_value()) write_metrics(*cli.metrics_path, metrics);
  std::cerr << "batch: " << summary.ok << "/" << summary.total << " ok, "
            << summary.errors << " errors, " << summary.cache_hits
            << " cache hits\n";
  return summary.ok > 0 || summary.total == 0 ? 0 : 1;
}

int cmd_serve(const CliOptions& cli) {
  std::unique_ptr<TraceRecorder> trace;
  if (cli.trace_path.has_value()) {
    trace = std::make_unique<TraceRecorder>();
    trace->set_enabled(true);
  }
  ServerOptions opts;
  opts.port = static_cast<std::uint16_t>(cli.port);
  opts.jobs = cli.jobs;
  opts.cache_capacity = static_cast<std::size_t>(cli.cache_capacity);
  opts.max_queue = static_cast<std::size_t>(cli.max_queue);
  opts.deadline_ms = cli.deadline_ms;
  opts.shards = cli.shards;
  opts.cache_dir = cli.cache_dir.value_or("");
  opts.cache_budget_bytes =
      static_cast<std::uint64_t>(cli.cache_budget_mb) << 20;
  opts.handle_signals = true;
  opts.log = &std::cerr;
  opts.trace = trace.get();
  // The server exports the trace itself as part of wait()'s graceful
  // drain, so a SIGTERM'd serve writes the file before the final shutdown
  // log instead of depending on this frame still running afterwards.
  if (cli.trace_path.has_value()) opts.trace_path = *cli.trace_path;
  opts.slow_request_ms = cli.slow_ms;
  // The server always counts decision events; keep the event objects only
  // when the user asked for the JSONL export.
  opts.keep_events = cli.trace_events_path.has_value();
  Server server(std::move(opts));
  server.start();
  server.wait();  // until SIGINT/SIGTERM; drains in-flight requests
  if (cli.metrics_path.has_value()) {
    open_output(*cli.metrics_path, "metrics")
        << server.metrics().to_json().dump() << "\n";
  }
  if (cli.trace_events_path.has_value()) {
    std::ofstream out = open_output(*cli.trace_events_path, "events");
    server.events().write_jsonl(out);
  }
  return 0;
}

int cmd_client(const CliOptions& cli) {
  std::string host;
  std::uint16_t port = 0;
  parse_host_port(cli.args[0], &host, &port);
  const std::string manifest = read_manifest(cli.args[1]);
  const ClientSummary summary = run_client(host, port, manifest, std::cout);
  std::cerr << "client: " << summary.responses << " responses, " << summary.ok
            << " ok, " << summary.errors << " errors\n";
  return summary.ok > 0 || summary.responses == 0 ? 0 : 1;
}

int cmd_fuzz(const CliOptions& cli) {
  if (cli.fuzz_replay.has_value()) {
    const CorpusEntry entry =
        parse_corpus(read_file(*cli.fuzz_replay, "corpus file"));
    const OracleVerdict verdict =
        replay_corpus_entry(entry, cli.fuzz_inject_binding_bug);
    if (verdict.ok()) {
      std::cout << "replay: all oracles clean (" << entry.design.dfg.num_ops()
                << " ops, width " << entry.width << ")\n";
      if (entry.oracle != "none") {
        std::cout << "note: recorded failure '" << entry.oracle
                  << "' did NOT reproduce\n";
      }
      return 0;
    }
    for (const auto& f : verdict.failures) {
      std::cout << "replay: " << f.oracle << " FAILED: " << f.detail << "\n";
    }
    return 1;
  }

  FuzzOptions fo;
  fo.seed = cli.fuzz_seed;
  fo.cases = cli.fuzz_cases;
  fo.jobs = cli.jobs;
  fo.width = cli.width;
  fo.vary_width = !cli.fuzz_fixed_width;
  fo.minimize = !cli.fuzz_no_minimize;
  fo.large_shapes = cli.fuzz_large_shapes;
  fo.max_reports = cli.fuzz_max_reports;
  fo.progress_interval = cli.fuzz_progress;
  fo.inject_binding_bug = cli.fuzz_inject_binding_bug;
  if (cli.fuzz_out.has_value()) fo.corpus_dir = *cli.fuzz_out;

  const FuzzSummary summary = run_fuzz(fo, &std::cerr);
  // The build record ties a campaign digest (and its reproducers, which
  // carry the same record as a `#! build` directive) to the binary that
  // produced it.
  std::cout << "fuzz: " << summary.cases << " cases, " << summary.failures
            << " failing, digest 0x" << std::hex << summary.digest
            << std::dec << " [" << build_info_line() << "]\n";
  for (const auto& r : summary.reports) {
    std::cout << "  case " << r.case_index << " seed " << r.case_seed << ": "
              << r.oracle << " (" << r.original_ops << " -> "
              << r.minimized_ops << " ops)"
              << (r.corpus_path.empty() ? "" : " " + r.corpus_path) << "\n";
  }
  return summary.ok() ? 0 : 1;
}

/// `explore --pareto bist`: the hybrid-BIST sweep grading every
/// (module spec, binder, test configuration) point on BIST area, gate-level
/// fault coverage and total test length at once (docs/hybrid-bist.md).
int cmd_explore_hybrid(const CliOptions& cli, const ParsedDfg& design) {
  if (*cli.pareto != "bist") {
    usage("--pareto supports only 'bist', got: " + *cli.pareto);
  }
  if (!design.schedule.has_value()) {
    throw Error(
        "--pareto bist needs a scheduled design (@step annotations)");
  }
  if (!cli.fu.empty()) {
    throw Error("--pareto bist sweeps module specs, not --fu budgets");
  }
  MetricsRegistry metrics;
  ObsSinks obs = ObsSinks::from_cli(cli, &metrics);

  HybridSweepOptions opts;
  opts.area.bit_width = cli.width;
  opts.patterns = cli.patterns;
  opts.jobs = cli.jobs;
  opts.trace = obs.trace.get();
  opts.metrics = cli.metrics_path.has_value() ? &metrics : nullptr;
  apply_binder_list(cli, &opts.binders);

  const std::vector<HybridPoint> points = explore_hybrid(
      design.dfg, *design.schedule, module_specs(cli, design), opts);

  if (cli.json) {
    Json out = hybrid_points_json(points);
    out.set("design", Json::string(design.dfg.name()))
        .set("width", Json::number(cli.width))
        .set("patterns", Json::number(cli.patterns));
    std::cout << out.dump() << "\n";
  } else {
    std::cout << describe_hybrid_points(points);
  }
  if (cli.metrics_path.has_value()) write_metrics(*cli.metrics_path, metrics);
  obs.write(cli);
  return 0;
}

int cmd_explore(const CliOptions& cli) {
  ParsedDfg design = load_design(cli.args[0]);
  if (cli.pareto.has_value()) return cmd_explore_hybrid(cli, design);
  ObsSinks obs = ObsSinks::from_cli(cli);
  ExplorerOptions opts;
  opts.area.bit_width = cli.width;
  opts.jobs = cli.jobs;
  opts.trace = obs.trace.get();
  opts.events = obs.events.get();
  if (cli.checkpoint.has_value()) opts.checkpoint = *cli.checkpoint;
  apply_binder_list(cli, &opts.binders);

  std::vector<DesignPoint> points;
  if (design.schedule.has_value()) {
    if (!cli.fu.empty()) {
      throw Error(
          "--fu sweeps unscheduled designs; this one has @step annotations"
          " (use --modules \"S1;S2;...\")");
    }
    points = explore_module_specs(design.dfg, *design.schedule,
                                  module_specs(cli, design), opts);
  } else {
    std::vector<ResourceLimits> budgets;
    for (const std::string& fu : cli.fu) {
      ResourceLimits limits;
      for (const std::string& part : split_list(fu, ',')) {
        add_fu_budget(part, "e.g. \"2*\" or \"1+,2*\"", &limits);
      }
      budgets.push_back(std::move(limits));
    }
    if (budgets.empty()) {
      // Default sweep: 1..3 units of every operation kind the design uses.
      std::set<OpKind> used;
      for (const auto& op : design.dfg.ops()) used.insert(op.kind);
      for (int n = 1; n <= 3; ++n) {
        ResourceLimits limits;
        for (OpKind kind : used) limits[kind] = n;
        budgets.push_back(std::move(limits));
      }
    }
    points = explore_resource_budgets(design.dfg, budgets, opts);
  }

  if (cli.json) {
    const auto front = pareto_front(points);
    Json arr = Json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DesignPoint& p = points[i];
      const bool on_front =
          std::find(front.begin(), front.end(), i) != front.end();
      arr.push_back(Json::object()
                        .set("label", Json::string(p.label))
                        .set("binder",
                             Json::string(binder_short_name(p.binder)))
                        .set("latency", Json::number(p.latency))
                        .set("registers", Json::number(p.num_registers))
                        .set("mux", Json::number(p.num_mux))
                        .set("functional_area", Json::number(p.functional_area))
                        .set("bist_extra", Json::number(p.bist_extra))
                        .set("overhead_percent",
                             Json::number(p.overhead_percent))
                        .set("total_area", Json::number(p.total_area()))
                        .set("pareto", Json::boolean(on_front)));
    }
    std::cout << arr.dump() << "\n";
  } else {
    std::cout << describe_points(points);
  }
  obs.write(cli);
  return 0;
}

int cmd_metrics(const CliOptions& cli) {
  const Json dump = Json::parse(read_manifest(cli.args[0]));
  if (cli.prom) {
    std::cout << prometheus_exposition(dump);
  } else {
    std::cout << dump.dump() << "\n";
  }
  return 0;
}

int cmd_version(const CliOptions& cli) {
  if (cli.json) {
    std::cout << build_info_json().dump() << "\n";
  } else {
    std::cout << build_info_string();
  }
  return 0;
}

// ---- The command table ----------------------------------------------------

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"synth", 0, 1, "<design.dfg>",
       "--modules --binder --width --patterns --coverage --dot --verilog "
       "--plan --selftest --testbench --bist-verilog --json --vcd "
       "--ctrl-verilog --decisions --dump-ir --ir-out --resume-from",
       true,
       "  lowbist synth <design.dfg> [--modules SPEC] [--binder KIND]\n"
       "                [--width N] [--patterns N | --coverage T] [--json]\n"
       "                [--plan] [--selftest] [--dot] [--verilog]\n"
       "                [--ctrl-verilog] [--bist-verilog] [--testbench]\n"
       "                [--vcd] [--decisions] [--dump-ir STAGE]\n"
       "                [--ir-out FILE]\n"
       "  lowbist synth --resume-from <snap.json|-> [same options]\n",
       cmd_synth},
      {"compare", 1, 1, "<design.dfg>", "--modules --width --json", false,
       "  lowbist compare <design.dfg> [--modules SPEC] [--width N] [--json]\n",
       cmd_compare},
      {"tables", 0, 0, "", "--width", false,
       "  lowbist tables [--width N]\n", cmd_tables},
      {"bench", 1, 1, "<name>", "", false,
       "  lowbist bench <ex1|ex2|tseng|tseng1|tseng2|paulin|paulin-loop>\n",
       cmd_bench},
      {"schedule", 1, 1, "<design.dfg>", "--fu --latency", false,
       "  lowbist schedule <design.dfg> [--fu \"2*\"]... [--latency N]\n",
       cmd_schedule},
      {"optimize", 1, 1, "<design.dfg>", "", false,
       "  lowbist optimize <design.dfg>\n", cmd_optimize},
      {"batch", 1, 1, "<jobs.jsonl|->", "-j --cache --metrics", true,
       "  lowbist batch <jobs.jsonl|-> [-j N] [--metrics out.json]\n"
       "                [--cache N]            (\"-\" reads stdin)\n",
       cmd_batch},
      {"serve", 0, 0, "",
       "--port -j --shards --cache --max-queue --deadline-ms --slow-ms "
       "--cache-dir --cache-budget-mb --metrics",
       true,
       "  lowbist serve [--port P] [-j N] [--shards N] [--cache N]\n"
       "                [--max-queue N] [--deadline-ms N] [--slow-ms N]\n"
       "                [--cache-dir DIR] [--cache-budget-mb N]\n"
       "                [--metrics FILE]\n",
       cmd_serve},
      {"client", 2, 2, "<host:port> <jobs.jsonl|->", "", false,
       "  lowbist client <host:port> <jobs.jsonl|->\n", cmd_client},
      {"fuzz", 0, 0, "",
       "--seed --cases -j --width --fixed-width --out --no-minimize "
       "--max-reports --progress --large-shapes --replay "
       "--inject-binding-bug",
       false,
       "  lowbist fuzz [--seed N] [--cases N] [-j N] [--width N]\n"
       "               [--fixed-width] [--out DIR] [--no-minimize]\n"
       "               [--max-reports N] [--progress N] [--large-shapes]\n"
       "  lowbist fuzz --replay <file.corpus>\n",
       cmd_fuzz},
      {"explore", 1, 1, "<design.dfg>",
       "--modules --fu --binder -j --width --json --checkpoint --pareto "
       "--patterns --metrics",
       true,
       "  lowbist explore <design.dfg> [--modules \"S1;S2\"] [--fu \"1+,1*\"]...\n"
       "                  [--binder KIND[,KIND]] [-j N] [--width N] [--json]\n"
       "                  [--checkpoint FILE]\n"
       "  lowbist explore <design.dfg> --pareto bist [--patterns N]\n"
       "                  [--binder KIND[,KIND]] [-j N] [--width N] [--json]\n"
       "                  [--metrics FILE]   hybrid-BIST sweep: area x\n"
       "                  coverage x test-length (docs/hybrid-bist.md)\n",
       cmd_explore},
      {"metrics", 1, 1, "<dump.json|->", "--prom", false,
       "  lowbist metrics <dump.json|-> [--prom]\n", cmd_metrics},
      {"version", 0, 0, "", "--json", false, "  lowbist version [--json]\n",
       cmd_version},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string_view name = argv[1];
  const auto& table = commands();
  const auto cmd =
      std::find_if(table.begin(), table.end(),
                   [&](const Command& c) { return name == c.name; });
  if (cmd == table.end()) usage("unknown command: " + std::string(name));
  try {
    const CliOptions cli = parse_args(*cmd, argc, argv);
    ProfileScope profile(cli);
    const int rc = cmd->run(cli);
    profile.write();
    return rc;
  } catch (const lbist::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
