#include "service/metrics.hpp"

#include <chrono>

#include "support/hash.hpp"

namespace lbist {

namespace {

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double idx = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

void Histogram::record(double sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(sample);
  } else {
    // Algorithm R: replace a uniformly random slot with probability
    // capacity/count, keeping the reservoir a uniform sample of the stream.
    const std::uint64_t slot = splitmix64(rng_state_) % count_;
    if (slot < capacity_) reservoir_[slot] = sample;
  }
}

Histogram::Summary Histogram::summarize() const {
  Summary s;
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.count = count_;
    if (count_ == 0) return s;
    s.min = min_;
    s.max = max_;
    s.mean = sum_ / static_cast<double>(count_);
    samples = reservoir_;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 0.50);
  s.p95 = percentile(samples, 0.95);
  s.p99 = percentile(samples, 0.99);
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Json MetricsRegistry::to_json() const {
  // Collect every instrument's value in one tight pass under the registry
  // lock before any JSON is built, so a dump never mixes a counter read at
  // time T with a histogram summarized milliseconds later (writers kept
  // mutating between the per-section loops of the old implementation).
  std::vector<std::pair<std::string, std::uint64_t>> counter_vals;
  std::vector<std::pair<std::string, double>> gauge_vals;
  std::vector<std::pair<std::string, Histogram::Summary>> hist_vals;
  double snapshot_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counter_vals.reserve(counters_.size());
    gauge_vals.reserve(gauges_.size());
    hist_vals.reserve(histograms_.size());
    snapshot_ms = static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    for (const auto& [name, c] : counters_) {
      counter_vals.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : gauges_) {
      gauge_vals.emplace_back(name, g->value());
    }
    for (const auto& [name, h] : histograms_) {
      hist_vals.emplace_back(name, h->summarize());
    }
  }

  Json counters = Json::object();
  for (const auto& [name, v] : counter_vals) {
    counters.set(name, Json::number(static_cast<double>(v)));
  }
  Json gauges = Json::object();
  for (const auto& [name, v] : gauge_vals) {
    gauges.set(name, Json::number(v));
  }
  Json histograms = Json::object();
  for (const auto& [name, s] : hist_vals) {
    histograms.set(name,
                   Json::object()
                       .set("count", Json::number(static_cast<double>(s.count)))
                       .set("min", Json::number(s.min))
                       .set("max", Json::number(s.max))
                       .set("mean", Json::number(s.mean))
                       .set("p50", Json::number(s.p50))
                       .set("p95", Json::number(s.p95))
                       .set("p99", Json::number(s.p99)));
  }
  return Json::object()
      .set("snapshot_unix_ms", Json::number(snapshot_ms))
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("histograms", std::move(histograms));
}

}  // namespace lbist
