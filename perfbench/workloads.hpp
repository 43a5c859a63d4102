#pragma once
// The three workloads.  Each fills `report` with the end-to-end metrics
// (trace off) or the per-layer metrics (trace on), plus the request tally
// and any failed check.

#include "common.hpp"

namespace perfbench {

/// mid-exact and large-greedy: fixed design sets synthesised one after
/// another on one thread.
void run_design_set(const Args& args, Report& report);

/// serve-small: an in-process server driven over loopback.
void run_serve_small(const Args& args, Report& report);

/// Per-layer metrics of the service and server layers, in report order.
/// Only serve-small exercises these layers; the design-set workloads
/// report them as 0.
struct MetricName {
  const char* name;
  const char* unit;
};
inline constexpr MetricName kServiceMetrics[] = {
    {"service.cache_hits", "count"},     {"service.cache_misses", "count"},
    {"service.cache_evictions", "count"}, {"service.cache_hit_ratio", "ratio"},
    {"service.run_entry_p50_ms", "ms"},  {"service.queue_p50_ms", "ms"},
    {"service.queue_p99_ms", "ms"},      {"service.request_p50_ms", "ms"},
    {"server.loop_iter_p99_ms", "ms"},   {"server.dirty_wakeups", "count"},
    {"server.requests_rejected", "count"}, {"server.overhead_p50_ms", "ms"},
};

}  // namespace perfbench
