#pragma once
// Shared pieces of the lbbench workload driver: command-line arguments,
// sample statistics, the per-design result digest, and the metric report
// whose last line is the one-object JSON result run.py relays.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
};

/// splitmix64 step: the benchmark's own seeded stream (request draws,
/// shuffles, stimulus vectors).
[[nodiscard]] std::uint64_t next_random(std::uint64_t& state);

[[nodiscard]] double median(std::vector<double> v);

/// The request-latency tail: the highest percentile (by nearest rank) with
/// at least ten samples beyond it, i.e. the value with exactly ten larger-
/// ranked samples.  Only percentiles from p50 up count as a tail; a sample
/// of fewer than 20 has none, and its tail is its largest value (p100).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v);

/// One synthesised design's result, as folded into the workload digest.
struct DesignResult {
  std::string name;
  int registers = 0;
  int muxes = 0;
  double functional_area = 0.0;
  double bist_extra = 0.0;
  bool exact = false;
};

/// "name regs=R muxes=M func=F extra=E exact=0|1" — one stable line per
/// design; the digest is FNV-1a over these lines in name order.
[[nodiscard]] std::string digest_line(const DesignResult& r);
[[nodiscard]] std::uint64_t digest_of(std::vector<DesignResult> results);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Set-up timing.  A run sets its workload up at least kSetupRepeats times
/// and for at least kSetupMinSeconds in total; `setup_s` holds the time of
/// each set-up.  setup_s is the median, over consecutive batches of at
/// least kSetupBatchSeconds, of each batch's mean set-up time.  The host's
/// speed drifts in phases of tens to hundreds of milliseconds; batch means
/// keep the median of a sub-millisecond set-up from flipping between a fast
/// and a slow phase.
inline constexpr std::size_t kSetupRepeats = 5;
inline constexpr double kSetupMinSeconds = 1.0;
inline constexpr double kSetupBatchSeconds = 0.1;

[[nodiscard]] bool more_setups(const std::vector<double>& setup_s);

class Report;

/// Adds a workload's end-to-end metrics to `report`:
///   setup_s                batched median of `setup_s` (see above)
///   wall_s                 `wall_s`, the time to finish every request once
///   req_p50_ms             median of every request latency
///   req_tail_ms            tail_of() each pass's latencies, median over passes
///   peak_rss_mb            peak_rss_mb(), read now
///   bist_extra_gates       Σ bist_extra over `designs`
///   functional_area_gates  Σ functional_area over `designs`
/// and, as notes, one digest line per design, the digest, the tail's
/// percentile and sample count, exact_share and error_share.
void emit_end_to_end(Report& report, const std::vector<double>& setup_s,
                     double wall_s,
                     const std::vector<std::vector<double>>& pass_latencies_ms,
                     const std::vector<DesignResult>& designs);

/// Collects metrics and the run verdict, then prints the human summary and
/// the final JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Printed with the summary but not part of the JSON result.
  void note(const std::string& line) { notes_.push_back(line); }
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const {
    return failures_.empty() && failed == 0;
  }
  /// Prints notes, metrics and failures, then the JSON line.  Returns the
  /// process exit code: 0 when every check passed.
  int print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
};

/// Shortest round-trip decimal form of `v`.
[[nodiscard]] std::string number_text(double v);

}  // namespace perfbench
