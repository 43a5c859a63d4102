#pragma once
// BIST test-resource allocation — the BITS stand-in (see DESIGN.md §2).
//
// Given a data path, choose one BIST embedding per module (TPG pair + SA)
// so that the total extra area of converting registers to test registers is
// minimal.  Modules need not be tested in the same session, so a register
// may be TPG for one module and SA for another (a BILBO, role TpgSa); only
// a register that is TPG and SA *for the same module* must be a CBILBO.
//
// `solve` is an exact dynamic program over a path decomposition of the
// module-register incidence graph.  Modules are visited in a greedy
// vertex-separation order (next: the module that opens the fewest new
// registers minus the registers it is the last user of), and a register is
// live from its first to its last module in that order.  A DP state is the
// role flags of the live registers only (3 bits each, packed into words)
// plus the objective tuple accumulated over every register; once a
// register's last module is done its flags leave the key, so states that
// differ only on registers no later module touches merge, keeping the
// smaller tuple.  A greedy completion seeds a branch-and-bound incumbent:
// role flags only accumulate and the area model is (normally) monotone in
// them, so a state's area is an admissible bound and strictly-worse states
// are cut.  Work is bounded by `transition_budget` (DP transitions
// generated); past it — or past `exact_max_regs` registers — `solve`
// returns the greedy solution instead.  Objective is lexicographic:
// minimal extra area, then fewest CBILBOs, then fewest modified registers;
// among equal solutions the embedding sequence that is lexicographically
// smallest in module order wins.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bist/area_model.hpp"
#include "bist/roles.hpp"
#include "rtl/datapath.hpp"
#include "rtl/ipath.hpp"

namespace lbist {

class AlgorithmEvents;  // obs/events.hpp

/// Per-role counts of a solution (the columns of Tables II and III).
struct RoleCounts {
  int tpg = 0;
  int sa = 0;
  int tpg_sa = 0;  ///< BILBOs
  int cbilbo = 0;

  [[nodiscard]] int modified() const { return tpg + sa + tpg_sa + cbilbo; }
  [[nodiscard]] std::string to_string() const;
};

/// A complete BIST resource allocation.
struct BistSolution {
  /// Final role of every register (index space of Datapath::registers).
  std::vector<BistRole> roles;
  /// Chosen embedding per module, in module order; nullopt for untestable
  /// modules.
  std::vector<std::optional<BistEmbedding>> embeddings;
  /// Modules with no feasible embedding (e.g. one register feeds both
  /// input ports).
  std::vector<std::size_t> untestable_modules;
  /// Total extra gates of the register conversions.
  double extra_area = 0.0;
  /// True when produced by the exact DP; false for greedy, including the
  /// fallback when the DP exceeds its transition budget or register gate
  /// (where a larger embedding space can paradoxically yield a worse
  /// solution).
  bool exact = true;

  [[nodiscard]] RoleCounts counts() const;
  /// Overhead as percentage of functional area (the paper's "% BIST area").
  [[nodiscard]] double overhead_percent(const Datapath& dp,
                                        const AreaModel& model) const;
  [[nodiscard]] std::string describe(const Datapath& dp) const;
};

/// Work one `solve` call did (trace span arguments).
struct BistDpStats {
  std::uint64_t transitions = 0;   ///< (state, embedding) pairs tried
  /// Candidates the greedy scans examined: port-list entries walked by the
  /// separable scan, embeddings visited by the transparent-path scan.
  std::uint64_t greedy_candidates = 0;
  /// Most states on one DP level; an abandoned level counts the states
  /// it held when it was abandoned.
  std::size_t peak_frontier = 0;
  std::size_t live_max = 0;        ///< widest key, in live registers
  /// Why the greedy solver answered: "regs" (`exact_max_regs`), "budget"
  /// (`transition_budget`), or nullptr when the DP finished.
  const char* fallback = nullptr;
};

/// Minimal-area BIST allocation.
class BistAllocator {
 public:
  explicit BistAllocator(AreaModel model) : model_(model) {}

  /// Exact branch-and-bound solver; falls back to greedy beyond
  /// `transition_budget` DP transitions or `exact_max_regs` registers.
  /// `stats`, if non-null, receives the work the DP did.
  [[nodiscard]] BistSolution solve(const Datapath& dp,
                                   BistDpStats* stats = nullptr) const;

  /// Greedy: modules in order, each takes its locally cheapest embedding
  /// (the first in enumeration order among the cheapest).  Over simple
  /// I-paths it finds it from the port lists in linear time; with
  /// transparent paths it streams the embedding space.  Nothing is
  /// materialized, so it stays flat in memory at any design size.  `stats`,
  /// if non-null, accumulates `greedy_candidates`.
  [[nodiscard]] BistSolution solve_greedy(const Datapath& dp,
                                          BistDpStats* stats = nullptr) const;

  /// Work budget of the exact DP, in transitions generated: one per DP
  /// state and distinct embedding effect tried.  Counted, not timed, so
  /// whether a design solves exactly does not depend on the machine.  A
  /// module level that would overrun it is not begun, and a level is
  /// abandoned as soon as it holds more states than the next level could
  /// expand within it; the transitions of an abandoned level still count.
  /// The default is over twice the most any data path that solves exactly
  /// was measured to need (docs/performance.md).
  std::uint64_t transition_budget = 10000000;

  /// Register-count cap for the exact DP.  The embedding lists are
  /// materialized, and their size grows with the cube of the port fan-ins,
  /// so past this many registers `solve` goes straight to the greedy
  /// allocator, which materializes none, instead.  Paper benchmarks and
  /// fuzz shapes sit far below this cap.
  std::size_t exact_max_regs = 192;

  /// Also consider TPG paths through modules held in an identity mode
  /// (extension; widens the embedding space at zero area cost — see
  /// rtl/ipath.hpp and bench_transparency).
  bool use_transparent_paths = false;

  /// Among area-minimal solutions, prefer the one needing the fewest test
  /// sessions (shorter total test time).  Evaluates the session count of
  /// every area-optimal final state, so no register retires from the DP
  /// key; leave off for very large designs.
  bool minimize_sessions = false;

  /// If non-null, receives per-register role assignments and greedy-fallback
  /// notifications (obs/events.hpp).  Borrowed, not owned.
  AlgorithmEvents* events = nullptr;

 private:
  /// The greedy solver; `emit_events` may be null (used when the greedy
  /// pass only seeds the branch-and-bound incumbent), and so may `stats`.
  [[nodiscard]] BistSolution solve_greedy_impl(const Datapath& dp,
                                               AlgorithmEvents* emit_events,
                                               BistDpStats* stats) const;

  AreaModel model_;
};

}  // namespace lbist
