// Batch-synthesis service tests: thread pool (including exception
// propagation under stress), LRU synthesis cache, manifest parsing, batch
// execution (error isolation, parallel/serial equivalence, cache hits),
// metrics summaries and the parallel explorer's determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "binding/module_spec.hpp"
#include "core/explorer.hpp"
#include "core/synthesizer.hpp"
#include "dfg/benchmarks.hpp"
#include "service/batch.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/thread_pool.hpp"

namespace lbist {
namespace {

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsAllTasksAndReturnsResults) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, ExceptionsPropagateThroughFuturesWithoutKillingWorkers) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 60; ++i) {
    futures.push_back(pool.submit([i, &completed]() -> int {
      if (i % 3 == 0) throw Error("task " + std::to_string(i) + " failed");
      completed.fetch_add(1);
      return i;
    }));
  }
  int ok = 0;
  int failed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const Error&) {
      ++failed;
    }
  }
  EXPECT_EQ(ok, 40);
  EXPECT_EQ(failed, 20);
  EXPECT_EQ(completed.load(), 40);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, ResolveJobsMapsNonPositiveToHardware) {
  EXPECT_EQ(ThreadPool::resolve_jobs(3), 3);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1);
  EXPECT_GE(ThreadPool::resolve_jobs(-1), 1);
}

// ---- LruCache ------------------------------------------------------------

TEST(LruCache, HitMissAccounting) {
  LruCache<int> cache(4);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", 1);
  auto hit = cache.get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_TRUE(cache.get("a").has_value());  // refresh a; b is now LRU
  cache.put("c", 3);                        // evicts b
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(LruCache, PutRefreshesExistingKeyWithoutGrowth) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("a", 2);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(*cache.get("a"), 2);
}

TEST(CacheKey, DistinguishesOptionsAndMatchesIdenticalRequests) {
  auto bench = make_ex1();
  const auto protos = parse_module_spec("1+,1*");
  SynthesisOptions a;
  const std::string k1 = synthesis_cache_key(
      bench.design.dfg, *bench.design.schedule, protos, a, 250);
  const std::string k2 = synthesis_cache_key(
      bench.design.dfg, *bench.design.schedule, protos, a, 250);
  EXPECT_EQ(k1, k2);
  SynthesisOptions b;
  b.binder = BinderKind::Traditional;
  EXPECT_NE(k1, synthesis_cache_key(bench.design.dfg, *bench.design.schedule,
                                    protos, b, 250));
  SynthesisOptions c;
  c.area.bit_width = 8;
  EXPECT_NE(k1, synthesis_cache_key(bench.design.dfg, *bench.design.schedule,
                                    protos, c, 250));
  EXPECT_NE(k1, synthesis_cache_key(bench.design.dfg, *bench.design.schedule,
                                    protos, a, 100));
}

// Many threads hammering one small cache with interleaved get/put across a
// hot key set larger than the capacity, so evictions, refreshes and misses
// all race.  Run under TSan in the sanitizer CI job; the stats invariants
// below hold regardless of interleaving.
TEST(LruCache, ConcurrentStressKeepsStatsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr std::size_t kCapacity = 16;
  LruCache<int> cache(kCapacity);
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> hits_seen{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key_id = (t * 37 + i) % 48;  // 48 hot keys > 16 slots
        const std::string key = "k" + std::to_string(key_id);
        if (i % 3 == 0) {
          cache.put(key, key_id);
        } else {
          gets.fetch_add(1);
          if (auto v = cache.get(key)) {
            hits_seen.fetch_add(1);
            EXPECT_EQ(*v, key_id);  // values never cross keys
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, gets.load());
  EXPECT_EQ(stats.hits, hits_seen.load());
  EXPECT_LE(stats.size, kCapacity);
  EXPECT_EQ(stats.capacity, kCapacity);
  EXPECT_GT(stats.evictions, 0u);  // 48 keys through 16 slots must evict
}

// Same shape against the real SynthesisCache value type (Json results are
// deep structures, so this exercises copy-out under contention too).
TEST(LruCache, ConcurrentSynthesisCacheStress) {
  SynthesisCache cache(8);
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        const int key_id = (t + i) % 24;
        const std::string key = "req" + std::to_string(key_id);
        if (i % 2 == 0) {
          cache.put(key, Json::object()
                             .set("id", Json::number(key_id))
                             .set("payload", Json::string(
                                      std::string(64, 'x'))));
        } else if (auto v = cache.get(key)) {
          EXPECT_EQ(v->at("id").as_int(), key_id);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto stats = cache.stats();
  EXPECT_LE(stats.size, 8u);
  EXPECT_EQ(stats.capacity, 8u);
}

TEST(CacheKey, Fnv1a64IsStable) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

// The batch/server "key" field, and with it every on-disk cache entry, is
// the FNV-1a of the canonical request key: its bytes must not drift.
TEST(CacheKey, BuiltinEx1KeyIsPinned) {
  const ManifestEntry entry = decode_manifest_line(1, R"({"bench":"ex1"})");
  SynthesisCache cache(4);
  MetricsRegistry metrics;
  const JobOutcome out = run_entry(entry, 0, cache, metrics);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.line.at("result").at("key").as_string(), "a27b72fd588bfa19");
}

// ---- Metrics -------------------------------------------------------------

TEST(Metrics, HistogramSummaries) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency");
  for (int i = 1; i <= 100; ++i) h.record(i);
  const auto s = h.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.p50, 50.5, 1.0);
  EXPECT_NEAR(s.p95, 95.05, 1.0);
  EXPECT_NEAR(s.p99, 99.01, 1.0);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(Metrics, RegistryJsonShape) {
  MetricsRegistry reg;
  reg.counter("jobs").inc(3);
  reg.gauge("depth").set(2.5);
  reg.histogram("ms").record(1.0);
  const Json j = reg.to_json();
  EXPECT_EQ(j.at("counters").at("jobs").as_int(), 3);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("depth").as_number(), 2.5);
  EXPECT_EQ(j.at("histograms").at("ms").at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("histograms").at("ms").at("p99").as_number(), 1.0);
  // Round-trips through the parser.
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("counters").at("jobs").as_int(), 3);
}

TEST(Metrics, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  reg.counter("n").inc();
  reg.counter("n").inc();
  EXPECT_EQ(reg.counter("n").value(), 2u);
}

// ---- Manifest parsing ----------------------------------------------------

TEST(Manifest, ParsesJobsSkipsBlanksAndComments) {
  const auto entries = parse_manifest(
      "# comment\n"
      "\n"
      "{\"bench\": \"ex1\", \"binder\": \"trad\", \"width\": 8}\n"
      "{\"design\": \"foo.dfg\", \"modules\": \"1+,1*\", \"patterns\": 10}\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].ok());
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[0].job.bench, "ex1");
  EXPECT_EQ(entries[0].job.binder, "trad");
  EXPECT_EQ(entries[0].job.width, 8);
  EXPECT_TRUE(entries[1].ok());
  EXPECT_EQ(entries[1].job.design_path, "foo.dfg");
  EXPECT_EQ(entries[1].job.patterns, 10);
}

TEST(Manifest, MalformedLinesBecomeErrorEntriesWithLineNumbers) {
  const auto entries = parse_manifest(
      "{\"bench\": \"ex1\"}\n"
      "{oops\n"
      "{\"bench\": \"ex1\", \"design\": \"also.dfg\"}\n"
      "{\"bench\": \"ex1\", \"bogus\": 1}\n"
      "{\"width\": 4}\n");
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_TRUE(entries[0].ok());
  EXPECT_FALSE(entries[1].ok());
  EXPECT_NE(entries[1].error.find("manifest line 2"), std::string::npos);
  EXPECT_FALSE(entries[2].ok());  // two design sources
  EXPECT_FALSE(entries[3].ok());  // unknown field
  EXPECT_NE(entries[3].error.find("bogus"), std::string::npos);
  EXPECT_FALSE(entries[4].ok());  // no design source
}

// ---- Batch execution -----------------------------------------------------

std::string duplicate_heavy_manifest() {
  std::string m;
  for (int rep = 0; rep < 3; ++rep) {
    for (const char* bench : {"ex1", "ex2", "tseng", "paulin"}) {
      for (const char* binder : {"trad", "bist"}) {
        m += std::string("{\"bench\": \"") + bench + "\", \"binder\": \"" +
             binder + "\"}\n";
      }
    }
  }
  return m;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(Batch, ParallelOutputMatchesSerialJobForJob) {
  const auto entries = parse_manifest(duplicate_heavy_manifest());
  ASSERT_EQ(entries.size(), 24u);

  std::ostringstream serial_out;
  BatchOptions serial;
  serial.jobs = 1;
  const auto s1 = run_batch(entries, serial, serial_out);

  std::ostringstream parallel_out;
  BatchOptions parallel;
  parallel.jobs = 4;
  const auto s4 = run_batch(entries, parallel, parallel_out);

  EXPECT_EQ(s1.ok, 24);
  EXPECT_EQ(s4.ok, 24);
  EXPECT_EQ(sorted_lines(serial_out.str()), sorted_lines(parallel_out.str()));
}

TEST(Batch, DuplicateJobsHitTheCache) {
  const auto entries = parse_manifest(duplicate_heavy_manifest());
  std::ostringstream out;
  BatchOptions opts;
  opts.jobs = 2;
  const auto summary = run_batch(entries, opts, out);
  EXPECT_EQ(summary.ok, 24);
  // 8 distinct (bench, binder) requests, 24 jobs: at least the serial
  // repeats hit (concurrent duplicate misses are allowed, so >= 8 hits is
  // the conservative bound with 24 - 8 = 16 the serial expectation).
  EXPECT_GE(summary.cache_hits, 8u);
  EXPECT_LE(summary.cache_misses, 16u);
}

TEST(Batch, BadJobsDoNotKillTheBatch) {
  const auto entries = parse_manifest(
      "{\"bench\": \"ex1\"}\n"
      "{\"bench\": \"doesnotexist\"}\n"
      "not json at all\n"
      "{\"design\": \"/nonexistent/path.dfg\"}\n"
      "{\"text\": \"dfg t\\ninput a b\\nop add1 + a b -> c @1\\noutput c\\n\"}"
      "\n");
  ASSERT_EQ(entries.size(), 5u);
  std::ostringstream out;
  BatchOptions opts;
  opts.jobs = 2;
  const auto summary = run_batch(entries, opts, out);
  EXPECT_EQ(summary.total, 5);
  EXPECT_EQ(summary.ok, 2);
  EXPECT_EQ(summary.errors, 3);
  const auto lines = sorted_lines(out.str());
  EXPECT_EQ(lines.size(), 5u);
  for (const auto& line : lines) {
    const Json j = Json::parse(line);
    EXPECT_TRUE(j.contains("job"));
    EXPECT_TRUE(j.at("status").as_string() == "ok" ||
                j.at("status").as_string() == "error");
    if (j.at("status").as_string() == "error") {
      EXPECT_FALSE(j.at("error").as_string().empty());
    } else {
      EXPECT_GT(j.at("result").at("registers").as_int(), 0);
    }
  }
}

TEST(Batch, UnscheduledInlineDesignsAreAutoScheduled) {
  const auto entries = parse_manifest(
      "{\"text\": \"dfg u\\ninput a b c\\nop m1 * a b -> t\\n"
      "op a1 + t c -> r\\noutput r\\n\"}\n");
  std::ostringstream out;
  const auto summary = run_batch(entries, BatchOptions{}, out);
  EXPECT_EQ(summary.ok, 1);
  const Json j = Json::parse(sorted_lines(out.str()).at(0));
  EXPECT_EQ(j.at("result").at("latency").as_int(), 2);
}

TEST(Batch, ExternalCacheStaysWarmAcrossBatches) {
  const auto entries = parse_manifest("{\"bench\": \"ex1\"}\n");
  SynthesisCache cache(16);
  BatchOptions opts;
  opts.cache = &cache;
  std::ostringstream out1;
  const auto cold = run_batch(entries, opts, out1);
  EXPECT_EQ(cold.cache_hits, 0u);
  std::ostringstream out2;
  const auto warm = run_batch(entries, opts, out2);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(out1.str(), out2.str());
}

// ---- Parallel explorer determinism ---------------------------------------

void expect_points_equal(const std::vector<DesignPoint>& a,
                         const std::vector<DesignPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << "point " << i;
    EXPECT_EQ(a[i].binder, b[i].binder) << "point " << i;
    EXPECT_EQ(a[i].latency, b[i].latency) << "point " << i;
    EXPECT_EQ(a[i].num_registers, b[i].num_registers) << "point " << i;
    EXPECT_EQ(a[i].num_mux, b[i].num_mux) << "point " << i;
    EXPECT_DOUBLE_EQ(a[i].functional_area, b[i].functional_area)
        << "point " << i;
    EXPECT_DOUBLE_EQ(a[i].bist_extra, b[i].bist_extra) << "point " << i;
    EXPECT_DOUBLE_EQ(a[i].overhead_percent, b[i].overhead_percent)
        << "point " << i;
  }
}

TEST(ParallelExplorer, ModuleSpecSweepMatchesSerialPointForPoint) {
  auto bench = make_tseng1();
  const std::vector<std::string> specs = {"2+,1*,1-,1&,1|,1/",
                                          "1+,3[-*/&|]"};
  ExplorerOptions serial;
  const auto expected = explore_module_specs(
      bench.design.dfg, *bench.design.schedule, specs, serial);
  ExplorerOptions parallel;
  parallel.jobs = 4;
  const auto actual = explore_module_specs(
      bench.design.dfg, *bench.design.schedule, specs, parallel);
  expect_points_equal(expected, actual);
}

TEST(ParallelExplorer, ResourceBudgetSweepMatchesSerialPointForPoint) {
  Dfg fir = make_fir(6);
  const std::vector<ResourceLimits> budgets = {
      {{OpKind::Mul, 1}, {OpKind::Add, 1}},
      {{OpKind::Mul, 2}, {OpKind::Add, 1}},
      {{OpKind::Mul, 3}, {OpKind::Add, 2}}};
  ExplorerOptions serial;
  const auto expected = explore_resource_budgets(fir, budgets, serial);
  ExplorerOptions parallel;
  parallel.jobs = 4;
  const auto actual = explore_resource_budgets(fir, budgets, parallel);
  expect_points_equal(expected, actual);
}

TEST(ParallelExplorer, TaskExceptionPropagates) {
  auto bench = make_ex1();
  ExplorerOptions opts;
  opts.jobs = 2;
  EXPECT_THROW(explore_module_specs(bench.design.dfg, *bench.design.schedule,
                                    {"1+,1*", "not a spec"}, opts),
               Error);
}

}  // namespace
}  // namespace lbist
