// serve-small: an in-process lowbist Server on loopback (1 shard, 3
// workers), driven by one client thread over 4 closed-loop connections:
// each connection sends its next request only after the reply to the last.
//
// The requests are seeded Zipf draws from a fixed pool of small distinct
// jobs: the paper five x binders {trad, bist, clique, ralloc, syntest} x
// widths {4, 8, 16}, plus kRandomJobs random inline designs no larger than
// random 5x3.  The pool is larger than the server's LRU capacity, so both
// hits and misses occur.  --seed draws the stream and the simulation
// stimulus; the pool itself is the same in every run.
//
// Checks: every pool design is synthesised in-process and simulated; the
// paper five hit their Table I register counts on the trad and bist arms;
// every response is byte-equal to in-process run_entry on the same line.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "dfg/benchmarks.hpp"
#include "dfg/parse.hpp"
#include "dfg/random_dfg.hpp"
#include "server/server.hpp"
#include "synth.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using lbist::BinderKind;
using lbist::Json;

constexpr std::uint64_t kPoolSeed = 0x5e7e5a11;
constexpr std::size_t kRandomJobs = 300;
constexpr std::size_t kCacheCapacity = 128;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSegments = 8;         // distinct request segments
constexpr std::size_t kStreamLength = 2000;  // requests per segment (a pass)
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kMinPasses = 3;
constexpr int kIdleTimeoutMs = 30000;

struct Binder {
  const char* label;
  BinderKind kind;
};
constexpr Binder kBinders[] = {{"trad", BinderKind::Traditional},
                               {"bist", BinderKind::BistAware},
                               {"clique", BinderKind::CliquePartition},
                               {"ralloc", BinderKind::Ralloc},
                               {"syntest", BinderKind::Syntest}};
constexpr int kWidths[] = {4, 8, 16};

/// Paper Table I: name in the request, minimum register count.
struct PaperDesign {
  const char* bench;
  int registers;
};
constexpr PaperDesign kPaperFive[] = {
    {"ex1", 3}, {"ex2", 5}, {"tseng1", 5}, {"tseng2", 5}, {"paulin", 4}};

struct PoolJob {
  std::string line;  ///< the request, a batch manifest line
  Case c;            ///< the same job for in-process synthesis
};

struct Pool {
  std::vector<std::unique_ptr<Design>> designs;
  std::vector<PoolJob> jobs;
};

Json request(const std::string& name, const char* binder, int width) {
  return Json::object()
      .set("name", Json::string(name))
      .set("binder", Json::string(binder))
      .set("width", Json::number(width));
}

Case make_case(const std::string& name, const Design* d, BinderKind kind,
               int width) {
  Case c;
  c.name = name;
  c.design = d;
  c.opts.binder = kind;
  c.opts.area.bit_width = width;
  return c;
}

Pool build_pool() {
  Pool pool;
  const std::vector<lbist::Benchmark> paper = lbist::paper_benchmarks();
  if (paper.size() != std::size(kPaperFive)) {
    throw std::runtime_error("expected the five paper benchmarks");
  }
  for (std::size_t b = 0; b < paper.size(); ++b) {
    const lbist::Benchmark& bm = paper[b];
    std::string lower = bm.name;
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    if (lower != kPaperFive[b].bench) {
      throw std::runtime_error("unexpected paper benchmark " + bm.name);
    }
    pool.designs.push_back(std::make_unique<Design>(
        Design{bm.name, bm.design.dfg, *bm.design.schedule,
               lbist::parse_module_spec(bm.module_spec)}));
    for (const Binder& binder : kBinders) {
      for (int width : kWidths) {
        const std::string name = std::string(kPaperFive[b].bench) + "/" +
                                 binder.label + "/w" + std::to_string(width);
        Json req = request(name, binder.label, width);
        req.set("bench", Json::string(kPaperFive[b].bench));
        PoolJob job{req.dump_compact(),
                    make_case(name, pool.designs.back().get(), binder.kind,
                              width)};
        if (binder.kind == BinderKind::Traditional ||
            binder.kind == BinderKind::BistAware) {
          job.c.expect_registers = kPaperFive[b].registers;
        }
        pool.jobs.push_back(std::move(job));
      }
    }
  }
  std::uint64_t state = kPoolSeed;
  for (std::size_t i = 0; i < kRandomJobs; ++i) {
    lbist::RandomDfgOptions o;
    o.seed = next_random(state);
    o.num_steps = 2 + static_cast<int>(next_random(state) % 4);     // 2..5
    o.ops_per_step = 1 + static_cast<int>(next_random(state) % 3);  // 1..3
    o.num_inputs = o.ops_per_step + 2;
    const lbist::RandomDfg rd = lbist::make_random_dfg(o);
    const std::string text = lbist::print_dfg(rd.dfg, &rd.schedule);
    // Synthesise in-process exactly what the server parses.
    lbist::ParsedDfg parsed = lbist::parse_dfg(text);
    auto d = std::make_unique<Design>(Design{"r" + std::to_string(i),
                                             std::move(parsed.dfg),
                                             std::move(*parsed.schedule),
                                             {}});
    d->protos = lbist::minimal_module_spec(d->dfg, d->sched);
    const Binder& binder =
        kBinders[next_random(state) % std::size(kBinders)];
    const int width = kWidths[next_random(state) % std::size(kWidths)];
    const std::string name = d->name + "/" + binder.label + "/w" +
                             std::to_string(width);
    Json req = request(name, binder.label, width);
    req.set("text", Json::string(text));
    pool.jobs.push_back(
        PoolJob{req.dump_compact(), make_case(name, d.get(), binder.kind,
                                              width)});
    pool.designs.push_back(std::move(d));
  }
  return pool;
}

/// The request stream: kSegments segments of pool indices drawn
/// Zipf(kZipfExponent) by `seed` over a fixed popularity ranking of the pool
/// (shuffled by kPoolSeed, so the same jobs are popular in every run).  A
/// pass drives one segment; request j of a segment goes out on connection
/// j % kConnections as that connection's (j / kConnections)-th line.
using Segment = std::vector<std::size_t>;

std::vector<Segment> build_stream(std::size_t pool_size, std::uint64_t seed) {
  std::vector<std::size_t> rank(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) rank[i] = i;
  std::uint64_t shuffle = kPoolSeed;
  for (std::size_t i = pool_size; i > 1; --i) {
    std::swap(rank[i - 1], rank[next_random(shuffle) % i]);
  }
  std::uint64_t state = seed;
  std::vector<double> cdf(pool_size);
  double total = 0.0;
  for (std::size_t i = 0; i < pool_size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  std::vector<Segment> stream(kSegments, Segment(kStreamLength));
  for (Segment& segment : stream) {
    for (std::size_t& job : segment) {
      const double u = static_cast<double>(next_random(state) >> 11) *
                       0x1.0p-53 * total;
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      job = rank[std::min<std::size_t>(
          static_cast<std::size_t>(it - cdf.begin()), pool_size - 1)];
    }
  }
  return stream;
}

struct Setup {
  Pool pool;
  std::vector<Segment> stream;
  std::unique_ptr<lbist::Server> server;
};

Setup build_setup(std::uint64_t seed) {
  Setup s;
  s.pool = build_pool();
  s.stream = build_stream(s.pool.jobs.size(), seed);
  lbist::ServerOptions opts;
  opts.jobs = 3;
  opts.shards = 1;
  opts.cache_capacity = kCacheCapacity;
  s.server = std::make_unique<lbist::Server>(opts);
  s.server->start();
  return s;
}

/// A connected loopback socket, closed on destruction.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Line assembly buffer for this connection's responses.
  std::string inbox;
  std::size_t next = 0;  ///< this connection's next line number (0-based)
  Clock::time_point sent_at;

 private:
  int fd_;
};

struct PassResult {
  double wall_ms = 0.0;
  std::vector<double> latency_ms;      ///< per request
  std::vector<std::string> responses;  ///< per request, without newline
  std::string error;                   ///< set when the pass broke off
};

/// Drives one segment over fresh connections, closed loop.
PassResult drive(std::uint16_t port, const Pool& pool, const Segment& stream) {
  PassResult out;
  out.latency_ms.assign(stream.size(), 0.0);
  out.responses.assign(stream.size(), std::string());
  const Clock::time_point start = Clock::now();
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  auto request_of = [&](std::size_t c, std::size_t k) {
    return k * kConnections + c;
  };
  auto send_next = [&](std::size_t c) {
    Connection& conn = *conns[c];
    const std::size_t j = request_of(c, conn.next);
    if (j >= stream.size()) return false;
    conn.sent_at = Clock::now();
    conn.send_line(pool.jobs[stream[j]].line);
    return true;
  };
  std::size_t outstanding = 0;
  try {
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns.push_back(std::make_unique<Connection>(port));
      fds.push_back(pollfd{conns.back()->fd(), POLLIN, 0});
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (send_next(c)) ++outstanding;
    }
    char buf[65536];
    while (outstanding > 0) {
      const int ready = ::poll(fds.data(), fds.size(), kIdleTimeoutMs);
      if (ready <= 0) throw std::runtime_error("server stopped answering");
      for (std::size_t c = 0; c < kConnections; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& conn = *conns[c];
        const ssize_t n = ::recv(conn.fd(), buf, sizeof buf, 0);
        if (n <= 0) throw std::runtime_error("server closed a connection");
        conn.inbox.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = conn.inbox.find('\n')) != std::string::npos) {
          const std::size_t j = request_of(c, conn.next);
          out.latency_ms[j] = ms_between(conn.sent_at, Clock::now());
          out.responses[j] = conn.inbox.substr(0, nl);
          conn.inbox.erase(0, nl + 1);
          ++conn.next;
          --outstanding;
          if (send_next(c)) ++outstanding;
        }
      }
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_ms = ms_between(start, Clock::now());
  return out;
}

/// In-process run_entry over the stream, segment by segment in request
/// order, with a cache of the server's capacity: the expected response of
/// every request and the time each run_entry call took.
struct Replay {
  std::vector<std::vector<std::string>> expected;  ///< per segment
  std::vector<double> latency_ms;
};

Replay replay(const Pool& pool, const std::vector<Segment>& stream) {
  Replay r;
  lbist::SynthesisCache cache(kCacheCapacity);
  lbist::MetricsRegistry metrics;
  for (const Segment& segment : stream) {
    r.expected.emplace_back();
    for (std::size_t j = 0; j < segment.size(); ++j) {
      const std::size_t k = j / kConnections;
      const Clock::time_point t0 = Clock::now();
      const lbist::ManifestEntry entry = lbist::decode_manifest_line(
          static_cast<int>(k + 1), pool.jobs[segment[j]].line);
      const lbist::JobOutcome outcome =
          lbist::run_entry(entry, k, cache, metrics);
      r.latency_ms.push_back(ms_between(t0, Clock::now()));
      r.expected.back().push_back(outcome.line.dump_compact());
    }
  }
  return r;
}

/// The service's own result fields must match the in-process synthesis.
std::string compare_with_service(const DesignResult& mine,
                                 const std::string& response) {
  const Json line = Json::parse(response);
  if (line.at("status").as_string() != "ok") {
    return mine.name + ": service answered " + response;
  }
  const Json& res = line.at("result");
  if (res.at("registers").as_int() != mine.registers ||
      res.at("muxes").as_int() != mine.muxes ||
      res.at("functional_area").as_number() != mine.functional_area ||
      res.at("bist_extra").as_number() != mine.bist_extra) {
    return mine.name + ": in-process synthesis differs from the service "
                       "result " + res.dump_compact();
  }
  return "";
}

double histogram_field(const Json& dump, const std::string& name,
                       const char* field) {
  const Json* h = dump.at("histograms").find(name);
  return h == nullptr ? 0.0 : h->at(field).as_number();
}

double counter(const Json& dump, const std::string& name) {
  const Json* c = dump.at("counters").find(name);
  return c == nullptr ? 0.0 : c->as_number();
}

}  // namespace

void run_serve_small(const Args& args, Report& report) {
  std::vector<double> setup_s;
  Setup setup;
  while (more_setups(setup_s)) {
    setup.server.reset();  // stop the previous set-up's server first
    const Clock::time_point t0 = Clock::now();
    setup = build_setup(args.seed);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const Pool& pool = setup.pool;

  // Expected response of every request: in-process run_entry on the line.
  const Replay rep = replay(pool, setup.stream);

  // Timed passes, cycling through the segments, for --seconds and at least
  // kMinPasses.  Each pass's responses are byte-checked after its clock
  // stops.
  std::vector<double> wall_ms;
  std::vector<std::vector<double>> latencies;
  const Clock::time_point begin = Clock::now();
  while (wall_ms.size() < kMinPasses ||
         ms_between(begin, Clock::now()) < 1000.0 * args.seconds) {
    const std::size_t seg = wall_ms.size() % kSegments;
    const Segment& stream = setup.stream[seg];
    const std::vector<std::string>& expected = rep.expected[seg];
    PassResult pass = drive(setup.server->port(), pool, stream);
    wall_ms.push_back(pass.wall_ms);
    latencies.push_back(std::move(pass.latency_ms));
    for (std::size_t j = 0; j < stream.size(); ++j) {
      ++report.attempted;
      if (pass.responses[j] != expected[j]) {
        ++report.failed;
        if (report.failed <= 5) {
          report.note("check request " + std::to_string(j) + " (" +
                      pool.jobs[stream[j]].c.name + "): server sent '" +
                      pass.responses[j] + "', run_entry gives '" +
                      expected[j] + "'");
        }
      }
    }
    if (!pass.error.empty()) {
      report.fail("pass " + std::to_string(wall_ms.size() - 1) + ": " +
                  pass.error);
      break;
    }
  }
  const Json server_dump = setup.server->metrics().to_json();
  const auto cache_stats = setup.server->cache().stats();
  setup.server->stop();

  // Correctness pass over the distinct pool.  With --trace 1 each job is
  // then synthesised traced and untraced again, back to back, as in the
  // design-set workloads.
  std::vector<const std::string*> first_response(pool.jobs.size(), nullptr);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    for (std::size_t j = 0; j < kStreamLength; ++j) {
      const std::size_t job = setup.stream[seg][j];
      if (first_response[job] == nullptr) {
        first_response[job] = &rep.expected[seg][j];
      }
    }
  }
  std::vector<DesignResult> results;
  LayerTrace trace;
  double untraced_ms = 0.0;
  for (std::size_t i = 0; i < pool.jobs.size(); ++i) {
    const Case& c = pool.jobs[i].c;
    ++report.attempted;
    std::string why;
    try {
      const lbist::SynthesisResult r = synthesize(c);
      results.push_back(summarize(c, r));
      why = check_result(c, r, args.seed);
      if (why.empty() && first_response[i] != nullptr) {
        why = compare_with_service(results.back(), *first_response[i]);
      }
      if (args.trace) {
        const lbist::SynthesisResult traced = trace.run(c, &why);
        const Clock::time_point t0 = Clock::now();
        (void)synthesize(c);
        untraced_ms += ms_between(t0, Clock::now());
        if (why.empty() &&
            digest_line(summarize(c, traced)) != digest_line(results.back())) {
          why = c.name + ": traced result differs from untraced";
        }
      }
    } catch (const std::exception& e) {
      why = c.name + ": " + e.what();
    }
    if (!why.empty()) {
      ++report.failed;
      report.note("check " + why);
    }
  }

  if (args.trace) {
    trace.emit(report, untraced_ms);
    const double lookups =
        static_cast<double>(cache_stats.hits + cache_stats.misses);
    std::vector<double> all;
    for (const auto& pass : latencies) {
      all.insert(all.end(), pass.begin(), pass.end());
    }
    const double client_p50 = median(all);
    const double request_p50 =
        histogram_field(server_dump, "request_ms", "p50");
    const double values[] = {
        static_cast<double>(cache_stats.hits),
        static_cast<double>(cache_stats.misses),
        static_cast<double>(cache_stats.evictions),
        lookups > 0.0 ? static_cast<double>(cache_stats.hits) / lookups : 0.0,
        median(rep.latency_ms),
        histogram_field(server_dump, "queue_ms", "p50"),
        histogram_field(server_dump, "queue_ms", "p99"),
        request_p50,
        histogram_field(server_dump, "shard.loop_iter_ms|shard=0", "p99"),
        counter(server_dump, "shard.dirty_wakeups|shard=0"),
        counter(server_dump, "requests_rejected"),
        client_p50 - request_p50,
    };
    static_assert(std::size(values) == std::size(kServiceMetrics));
    for (std::size_t i = 0; i < std::size(values); ++i) {
      report.metric(kServiceMetrics[i].name, values[i],
                    kServiceMetrics[i].unit);
    }
    return;
  }

  report.note("passes " + std::to_string(wall_ms.size()) + " of " +
              std::to_string(kStreamLength) + " requests");
  emit_end_to_end(report, setup_s, median(wall_ms) / 1000.0, latencies,
                  results);
}

}  // namespace perfbench
