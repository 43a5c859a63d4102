#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "support/hash.hpp"

namespace perfbench {

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 20) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

bool more_setups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < kSetupRepeats || total < kSetupMinSeconds;
}

std::string digest_line(const DesignResult& r) {
  return r.name + " regs=" + std::to_string(r.registers) +
         " muxes=" + std::to_string(r.muxes) +
         " func=" + number_text(r.functional_area) +
         " extra=" + number_text(r.bist_extra) +
         " exact=" + (r.exact ? "1" : "0");
}

std::uint64_t digest_of(std::vector<DesignResult> results) {
  std::sort(results.begin(), results.end(),
            [](const DesignResult& a, const DesignResult& b) {
              return a.name < b.name;
            });
  std::string text;
  for (const DesignResult& r : results) text += digest_line(r) + "\n";
  return lbist::fnv1a64(text);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number_text(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void emit_end_to_end(Report& report, const std::vector<double>& setup_s,
                     double wall_s,
                     const std::vector<std::vector<double>>& pass_latencies_ms,
                     const std::vector<DesignResult>& designs) {
  double extra = 0.0;
  double func = 0.0;
  std::size_t exact = 0;
  for (const DesignResult& d : designs) {
    extra += d.bist_extra;
    func += d.functional_area;
    if (d.exact) ++exact;
    report.note("design " + digest_line(d));
  }
  std::vector<double> all;
  std::vector<double> tails;
  Tail tail;
  for (const std::vector<double>& pass : pass_latencies_ms) {
    all.insert(all.end(), pass.begin(), pass.end());
    tail = tail_of(pass);
    tails.push_back(tail.value);
  }
  std::vector<double> batches;
  double batch_s = 0.0;
  std::size_t batch_n = 0;
  for (double s : setup_s) {
    batch_s += s;
    ++batch_n;
    if (batch_s >= kSetupBatchSeconds) {
      batches.push_back(batch_s / static_cast<double>(batch_n));
      batch_s = 0.0;
      batch_n = 0;
    }
  }
  if (batches.empty()) batches.push_back(batch_s / static_cast<double>(batch_n));
  const auto [lo, hi] = std::minmax_element(setup_s.begin(), setup_s.end());
  const double error_share =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(digest_of(designs)));
  report.note("digest " + std::string(digest));
  report.note("setup_s is the median of " + std::to_string(batches.size()) +
              " batch means over " + std::to_string(setup_s.size()) +
              " set-ups (min " + number_text(*lo) + " s, max " +
              number_text(*hi) + " s)");
  report.note("req_tail_ms is p" + number_text(tail.percentile) + " of " +
              std::to_string(tail.samples) + " requests a pass, median of " +
              std::to_string(tails.size()) + " passes");
  report.note("metric exact_share " +
              number_text(static_cast<double>(exact) /
                          static_cast<double>(designs.size())) +
              " ratio");
  report.note("metric error_share " + number_text(error_share) + " ratio");
  report.metric("setup_s", median(batches), "s");
  report.metric("wall_s", wall_s, "s");
  report.metric("req_p50_ms", median(all), "ms");
  report.metric("req_tail_ms", median(tails), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("bist_extra_gates", extra, "gates");
  report.metric("functional_area_gates", func, "gates");
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

int Report::print() const {
  for (const std::string& n : notes_) std::cout << n << "\n";
  for (const Entry& m : metrics_) {
    std::cout << "metric " << m.name << " " << number_text(m.value) << " "
              << m.unit << "\n";
  }
  for (const std::string& f : failures_) std::cout << "FAILED " << f << "\n";
  std::cout << "{\"correct\": " << (correct() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << number_text(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct() ? 0 : 1;
}

}  // namespace perfbench
