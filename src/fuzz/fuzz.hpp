#pragma once
// Differential fuzzing driver (`lowbist fuzz`).
//
// Draws seeded random scheduled DFGs from a family of shapes (layered,
// chain-heavy, wide, loop-tied — see make_fuzz_case), fans the oracle runs
// out over the service ThreadPool, and folds every case's observation
// digest into one run digest.  Runs are deterministic per master seed:
// case i is generated from digest_mix(seed, i) and the digest is folded
// in case order, so `-j 8` and `-j 1` produce identical summaries.
//
// Failing cases are shrunk with the delta-debugging minimizer and written
// as replayable corpus files (fuzz/corpus.hpp) that `lowbist fuzz
// --replay <file>` re-judges with the same oracles.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "dfg/random_dfg.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracle.hpp"

namespace lbist {

/// Fuzzing-run configuration.
struct FuzzOptions {
  /// Master seed; case i derives from digest_mix(seed, i).
  std::uint64_t seed = 1;
  int cases = 1000;
  int jobs = 1;            ///< oracle-thread count (<1 = hardware)
  int width = 4;           ///< base datapath width (cases also vary width)
  bool vary_width = true;  ///< draw per-case widths from {2,4,8,16}
  bool minimize = true;    ///< shrink failing cases to minimal reproducers
  int max_reports = 10;    ///< detailed (minimized) reports to produce
  std::string corpus_dir;  ///< write reproducers here; empty = don't write
  double lemma2_budget = 50000;
  /// Mix in a sixth shape family of ≥1k-op layered DFGs (scaling stress
  /// for the bitset graphs and the incremental-ΔSD binder).  Off by
  /// default: the family redraws every case's knobs, so enabling it
  /// changes the run digest.
  bool large_shapes = false;
  /// Hidden mutation self-test: break the traditional binding on purpose.
  bool inject_binding_bug = false;
  /// Emit a progress line to the log every this many cases (0 = off).
  int progress_interval = 0;
};

/// One fully-specified generated case.
struct FuzzCase {
  RandomDfgOptions gen;  ///< exact generator knobs (replayable)
  RandomDfg design;
  int width = 4;
  std::uint64_t case_seed = 0;
};

/// Detailed report for one failing case.
struct FuzzFailureReport {
  int case_index = 0;
  std::uint64_t case_seed = 0;
  std::string oracle;  ///< first failing oracle
  std::string detail;
  std::size_t original_ops = 0;
  std::size_t minimized_ops = 0;
  std::string corpus_text;  ///< minimized reproducer, corpus format
  std::string corpus_path;  ///< file written under corpus_dir, if any
};

/// Whole-run outcome.
struct FuzzSummary {
  int cases = 0;
  int failures = 0;  ///< number of failing cases (not individual oracles)
  std::uint64_t digest = 0;
  std::vector<FuzzFailureReport> reports;  ///< first max_reports failures

  [[nodiscard]] bool ok() const { return failures == 0; }
};

/// Deterministically derives case `index` of a run seeded with
/// `master_seed`: shape family, op mix, width and generator seed all come
/// from the mixed per-case seed.  `large_shapes` widens the family pool
/// with the ≥1k-op scaling shape (see FuzzOptions::large_shapes).
[[nodiscard]] FuzzCase make_fuzz_case(std::uint64_t master_seed, int index,
                                      int base_width, bool vary_width,
                                      bool large_shapes = false);

/// Oracle configuration used for a given case under these run options.
[[nodiscard]] OracleOptions oracle_options_for(const FuzzCase& fuzz_case,
                                               const FuzzOptions& opts);

/// Runs the whole campaign.  `log` (may be null) receives progress lines
/// and failure summaries.
[[nodiscard]] FuzzSummary run_fuzz(const FuzzOptions& opts,
                                   std::ostream* log = nullptr);

/// Re-judges a corpus entry with the standard oracles at its recorded
/// width.  Used by `lowbist fuzz --replay` and the corpus tests.
[[nodiscard]] OracleVerdict replay_corpus_entry(
    const CorpusEntry& entry, bool inject_binding_bug = false);

}  // namespace lbist
