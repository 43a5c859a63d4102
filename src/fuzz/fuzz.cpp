#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <ostream>
#include <vector>

#include "fuzz/minimize.hpp"
#include "service/thread_pool.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/version.hpp"

namespace lbist {
namespace {

/// Cheap deterministic knob stream derived from the case seed.
class KnobStream {
 public:
  explicit KnobStream(std::uint64_t seed) : state_(seed) {}

  /// Uniform draw in [0, n).
  std::uint64_t next(std::uint64_t n) {
    state_ = digest_mix(state_, 0x2545f4914f6cdd1dull);
    return state_ % n;
  }

 private:
  std::uint64_t state_;
};

const std::vector<std::vector<OpKind>>& op_mixes() {
  // Index 0 is the Lemma-2 setting (all commutative); the others stress
  // non-commutative port assignment, logic-heavy and division datapaths.
  static const std::vector<std::vector<OpKind>> mixes = {
      {OpKind::Add, OpKind::Mul, OpKind::And},
      {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::And},
      {OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Add},
      {OpKind::Sub, OpKind::Div, OpKind::Add},
      {OpKind::Add, OpKind::Mul, OpKind::Sub, OpKind::Lt},
  };
  return mixes;
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == ':' || c == '/' || c == ' ') c = '-';
  }
  return s;
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t master_seed, int index, int base_width,
                        bool vary_width, bool large_shapes) {
  const std::uint64_t case_seed =
      digest_mix(master_seed, static_cast<std::uint64_t>(index));
  KnobStream knobs(case_seed);

  RandomDfgOptions gen;
  gen.seed = case_seed;
  gen.kinds = op_mixes()[knobs.next(op_mixes().size())];

  switch (knobs.next(large_shapes ? 6 : 5)) {
    case 0:  // small layered — the Lemma-2 sweet spot
      gen.num_steps = 2 + static_cast<int>(knobs.next(3));
      gen.ops_per_step = 1 + static_cast<int>(knobs.next(2));
      gen.num_inputs = 2 + static_cast<int>(knobs.next(3));
      break;
    case 1:  // medium layered — the paper-benchmark shape
      gen.num_steps = 4 + static_cast<int>(knobs.next(4));
      gen.ops_per_step = 2 + static_cast<int>(knobs.next(2));
      gen.num_inputs = 3 + static_cast<int>(knobs.next(4));
      break;
    case 2:  // chain — long dependence chains, skinny conflict graphs
      gen.num_steps = 5 + static_cast<int>(knobs.next(5));
      gen.ops_per_step = 1;
      gen.num_inputs = 2 + static_cast<int>(knobs.next(2));
      gen.chain_probability = 0.85;
      gen.reuse_probability = 0.8;
      break;
    case 3:  // wide — high register pressure per step
      gen.num_steps = 2 + static_cast<int>(knobs.next(3));
      gen.ops_per_step = 3 + static_cast<int>(knobs.next(2));
      gen.num_inputs = 4 + static_cast<int>(knobs.next(3));
      break;
    case 4:  // loop-tied — exercises the loop-aware binder arm
      gen.num_steps = 3 + static_cast<int>(knobs.next(4));
      gen.ops_per_step = 1 + static_cast<int>(knobs.next(3));
      gen.num_inputs = 3 + static_cast<int>(knobs.next(3));
      gen.loop_ties = 1 + static_cast<int>(knobs.next(2));
      break;
    default:  // large layered — ≥1k ops, the scaling stress shape
      gen.num_steps = 125 + static_cast<int>(knobs.next(126));
      gen.ops_per_step = 8;
      gen.num_inputs = 12;
      gen.reuse_probability = 0.9;
      gen.chain_probability = 0.3;
      break;
  }
  gen.reuse_probability =
      std::max(gen.reuse_probability,
               0.3 + 0.1 * static_cast<double>(knobs.next(6)));

  int width = base_width;
  if (vary_width) {
    static constexpr int kWidths[] = {2, 4, 8, 16};
    width = kWidths[knobs.next(4)];
  }

  FuzzCase fc{gen, make_random_dfg(gen), width, case_seed};
  return fc;
}

OracleOptions oracle_options_for(const FuzzCase& fuzz_case,
                                 const FuzzOptions& opts) {
  OracleOptions oo;
  oo.width = fuzz_case.width;
  oo.stimulus_seed = fuzz_case.case_seed;
  oo.lemma2_budget = opts.lemma2_budget;
  oo.inject_binding_bug = opts.inject_binding_bug;
  return oo;
}

OracleVerdict replay_corpus_entry(const CorpusEntry& entry,
                                  bool inject_binding_bug) {
  LBIST_CHECK(entry.design.schedule.has_value(),
              "corpus entry has no schedule");
  OracleOptions oo;
  oo.width = entry.width;
  oo.stimulus_seed = entry.seed == 0 ? 1 : entry.seed;
  oo.inject_binding_bug = inject_binding_bug;
  return run_oracles(entry.design.dfg, *entry.design.schedule, oo);
}

namespace {

struct CaseOutcome {
  OracleVerdict verdict;
  std::size_t num_ops = 0;
};

/// Minimizes one failing case and renders its corpus reproducer.
FuzzFailureReport build_report(int index, const FuzzCase& fc,
                               const OracleVerdict& verdict,
                               const FuzzOptions& opts) {
  FuzzFailureReport report;
  report.case_index = index;
  report.case_seed = fc.case_seed;
  report.oracle = verdict.failures.front().oracle;
  report.detail = verdict.failures.front().detail;
  report.original_ops = fc.design.dfg.num_ops();
  report.minimized_ops = report.original_ops;

  CorpusEntry entry;
  entry.seed = fc.case_seed;
  entry.width = fc.width;
  entry.oracle = report.oracle;
  entry.build = build_info_line();

  const OracleOptions oo = oracle_options_for(fc, opts);
  if (opts.minimize) {
    const std::string oracle = report.oracle;
    auto still_fails = [&](const Dfg& d, const Schedule& s) {
      return run_oracles(d, s, oo).failed(oracle);
    };
    auto min = minimize_dfg(fc.design.dfg, fc.design.schedule, still_fails);
    report.minimized_ops = min.final_ops;
    entry.note = "minimized from " + std::to_string(min.initial_ops) +
                 " ops (" + std::to_string(min.predicate_calls) +
                 " oracle calls)";
    entry.design = ParsedDfg{std::move(min.dfg), std::move(min.schedule)};
  } else {
    entry.design = ParsedDfg{fc.design.dfg, fc.design.schedule};
  }
  report.corpus_text = dump_corpus(entry);

  if (!opts.corpus_dir.empty()) {
    std::filesystem::create_directories(opts.corpus_dir);
    const std::string path = opts.corpus_dir + "/case-" +
                             std::to_string(fc.case_seed) + "-" +
                             sanitize(report.oracle) + ".corpus";
    std::ofstream out(path);
    LBIST_CHECK(out.good(), "cannot write corpus file: " + path);
    out << report.corpus_text;
    report.corpus_path = path;
  }
  return report;
}

}  // namespace

FuzzSummary run_fuzz(const FuzzOptions& opts, std::ostream* log) {
  LBIST_CHECK(opts.cases >= 1, "fuzz needs at least one case");
  FuzzSummary summary;
  summary.digest = digest_mix(opts.seed, 0x66757a7aull);  // "fuzz"

  ThreadPool pool(ThreadPool::resolve_jobs(opts.jobs));
  std::vector<std::future<CaseOutcome>> outcomes;
  outcomes.reserve(static_cast<std::size_t>(opts.cases));
  for (int i = 0; i < opts.cases; ++i) {
    outcomes.push_back(pool.submit([i, &opts]() -> CaseOutcome {
      const FuzzCase fc = make_fuzz_case(opts.seed, i, opts.width,
                                         opts.vary_width, opts.large_shapes);
      CaseOutcome outcome;
      outcome.num_ops = fc.design.dfg.num_ops();
      outcome.verdict = run_oracles(fc.design.dfg, fc.design.schedule,
                                    oracle_options_for(fc, opts));
      return outcome;
    }));
  }

  std::vector<int> failing_cases;
  for (int i = 0; i < opts.cases; ++i) {
    // Collect in submission order: the digest fold is independent of how
    // the pool interleaved the workers.
    const CaseOutcome outcome = outcomes[static_cast<std::size_t>(i)].get();
    summary.digest = digest_mix(summary.digest, outcome.verdict.digest);
    ++summary.cases;
    if (!outcome.verdict.ok()) {
      ++summary.failures;
      failing_cases.push_back(i);
    }
    if (log != nullptr && opts.progress_interval > 0 &&
        (i + 1) % opts.progress_interval == 0) {
      *log << "fuzz: " << (i + 1) << "/" << opts.cases << " cases, "
           << summary.failures << " failing\n";
    }
  }

  // Minimize and report the first few failures (deterministic order).
  for (int index : failing_cases) {
    if (static_cast<int>(summary.reports.size()) >= opts.max_reports) break;
    const FuzzCase fc = make_fuzz_case(opts.seed, index, opts.width,
                                       opts.vary_width, opts.large_shapes);
    const OracleVerdict verdict =
        run_oracles(fc.design.dfg, fc.design.schedule,
                    oracle_options_for(fc, opts));
    if (verdict.ok()) continue;  // cannot happen for a deterministic oracle
    FuzzFailureReport report = build_report(index, fc, verdict, opts);
    if (log != nullptr) {
      *log << "fuzz: case " << index << " (seed " << report.case_seed
           << ") fails " << report.oracle << " [" << report.detail << "], "
           << report.original_ops << " -> " << report.minimized_ops
           << " ops";
      if (!report.corpus_path.empty()) *log << " -> " << report.corpus_path;
      *log << "\n";
    }
    summary.reports.push_back(std::move(report));
  }
  return summary;
}

}  // namespace lbist
