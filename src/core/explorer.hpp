// The state-space explorer: depth-first search over the state graph generated
// by a Protocol, with pluggable partial-order reduction.
//
// Two search modes mirror the paper's experimental setup:
//  * Stateful  — a visited set prunes revisits (exact states, 128-bit
//                fingerprints, or arena-interned states for memory-bound runs);
//  * Stateless — no visited set; every path is walked (the mode Basset's DPOR
//                requires, Section III-A).
//
// A ReductionStrategy selects, in each newly reached state, the subset of
// enabled events to explore. FullExpansion is the unreduced baseline; the SPOR
// stubborn-set strategy lives in src/por/spor.hpp.
//
// All searches run on the unified engine (core/engine.hpp): one pooled
// ExpansionCore under three drivers. explore() dispatches — SequentialDriver
// for t1 / stack-proviso / stateless searches, PoolDriver (per-worker
// Chase-Lev stealing deques over the lock-free sharded visited set,
// core/visited.hpp) for stateful searches with cfg.threads > 1 whose
// strategy does not need the DFS stack, and por/dpor.cpp's DPOR search rides
// the engine's StackReplayDriver chassis at t1 or distributes backtrack
// points as replayable work items over the same Chase-Lev pool machinery at
// cfg.threads > 1. Only the unreduced stateless DFS is inherently sequential
// and ignores cfg.threads; see docs/ARCHITECTURE.md for the driver table and
// parallel-safety matrix. Unreduced parallel runs
// report the same verdict and the same states_stored / terminal_states as
// the sequential search; reduced parallel runs report the same verdict (the
// reduction itself is schedule-dependent). Parallel runs reconstruct
// counterexample traces by walking the interned state graph's parent handles
// back to the root and replaying the events through execute() — available
// whenever the visited set is interned (the default `exact` mode upgrades to
// interned in parallel runs), including under a symmetry canonicalizer: the
// frontier always carries concrete states, so the recorded event chain is a
// genuine concrete run, and each interned entry additionally records the
// permutation that mapped it onto its canonical representative.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/enabled.hpp"
#include "core/execute.hpp"
#include "core/protocol.hpp"
#include "core/visited.hpp"

namespace mpb {

enum class SearchMode { kStateful, kStateless };

enum class Verdict {
  kHolds,           // every reachable state satisfies every property
  kViolated,        // a counterexample was found
  kBudgetExceeded,  // search stopped on a state/time/depth budget
  kResourceLimit,   // a hard resource guard tripped (watchdog/memory/states)
};

[[nodiscard]] std::string_view to_string(Verdict v) noexcept;

struct ExploreStats;  // declared below; the progress hook passes snapshots

// Hard resource guards, distinct from the benchmarking budgets in
// ExploreConfig (max_states / max_events / max_seconds, which report
// kBudgetExceeded): a tripped guard aborts the search gracefully with
// Verdict::kResourceLimit and partial stats instead of letting a pathological
// protocol hang or OOM the process. Enforced uniformly by every driver
// (SequentialDriver, PoolDriver, StackReplayDriver) and by the SCC ignoring
// pass; guards take precedence over budgets when both trip in the same tick.
// The fuzz campaigns (src/fuzz) run every generated protocol under these.
struct ResourceGuard {
  // Wall-clock watchdog; infinity = disabled.
  double watchdog_seconds = std::numeric_limits<double>::infinity();
  // Approximate bytes of state storage (visited set + interned arena);
  // 0 = disabled.
  std::uint64_t max_memory_bytes = 0;
  // Hard cap on stored states (visited nodes in stateless searches);
  // 0 = disabled.
  std::uint64_t max_states = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return watchdog_seconds != std::numeric_limits<double>::infinity() ||
           max_memory_bytes != 0 || max_states != 0;
  }
};

struct ExploreConfig {
  SearchMode mode = SearchMode::kStateful;
  VisitedMode visited = VisitedMode::kExact;
  // Worker threads; 1 = sequential. Stateful searches scale through the
  // pool driver, DPOR through its backtrack-point work-item pool
  // (por/dpor.cpp). The sequential path is taken (and `threads` ignored)
  // for unreduced stateless mode and for strategies that need the DFS
  // stack (ReductionStrategy::needs_dfs_stack, e.g. SPOR under the stack
  // cycle proviso).
  unsigned threads = 1;
  // Shard count for the sharded visited table; 0 = auto (4x threads).
  unsigned visited_shards = 0;
  std::uint64_t max_states = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
  unsigned max_depth = 1u << 20;  // stateless safety net
  // Hard resource guards (disabled by default); see ResourceGuard above.
  ResourceGuard guard;
  // Cooperative cancellation: when set and the pointee becomes true, the
  // search aborts at the next guard poll with Verdict::kResourceLimit and
  // partial stats — exactly like a tripped resource guard, and checked at the
  // same sites (so a cancelled run can never outlive a guarded one). The
  // owner (e.g. a serve-layer job) keeps the flag alive via the shared_ptr
  // and may flip it from any thread.
  std::shared_ptr<std::atomic<bool>> cancel;
  bool stop_at_first_violation = true;
  bool validate_annotations = true;
  // Record the fingerprint of every terminal (deadlock) state reached; used
  // by the deadlock-preservation tests (stubborn sets must find all of them).
  bool collect_terminals = false;
  // Optional state canonicalizer applied before visited-set lookups (and to
  // terminal fingerprints): the symmetry-reduction hook (por/symmetry.hpp).
  // The search itself still walks concrete states, so counterexamples remain
  // genuine paths. Must be thread-safe (const) when threads > 1.
  std::function<State(const State&)> canonicalize;
  // Permutation-aware variant, preferred by the engine when set: also
  // reports the index of the permutation that produced the canonical state
  // (SymmetryReducer::canonicalize_with_perm), which interned entries record
  // so canonical representatives stay mappable back to the concrete states
  // that reached them. The check facade installs this one; `canonicalize`
  // remains for callers that don't track permutations (recorded as 0).
  std::function<State(const State&, std::uint32_t&)> canonicalize_perm;
  // Inverse of the canonicalizing permutation
  // (SymmetryReducer::apply_inverse_perm): maps a stored canonical
  // representative back to the concrete state its recorded permutation came
  // from. Installed alongside canonicalize_perm; the engine's SCC ignoring
  // pass continues exploration from concrete states with it, so recorded
  // event chains stay replayable under symmetry.
  std::function<State(std::uint32_t, const State&)> decanonicalize;
  // Steal batching for the parallel pool: when a steal victim's deque holds
  // at least this many items, the thief takes ~half of them (capped) in one
  // visit instead of one item. 0 keeps the classic steal-one protocol (the
  // default; each batched item is still claimed by its own top-CAS, so the
  // memory-safety argument — and the TSan model — is unchanged).
  unsigned steal_half_threshold = 0;
  // --- collapse-mode spill tier (visited == kCollapse only) ---
  // Directory for the visited set's mmap spill file; empty = no spilling.
  // When set, cold state-node chunks beyond the resident budget are advised
  // out of RAM and stop counting against guard.max_memory_bytes.
  std::string spill_dir;
  // Resident budget for spillable chunks, in MiB; 0 = keep all resident.
  std::uint64_t spill_mb = 0;
  // --- observer hooks (the check facade's progress reporting) ---
  // `on_progress` is invoked approximately every `progress_every_events`
  // executed events with a snapshot of the running stats. Sequential runs
  // snapshot the full stats; parallel runs report the exact visited-set size,
  // global event count and elapsed time (per-worker detail is not merged
  // mid-run). 0 disables the hook. `on_violation` fires for every property
  // violation observed, with the property name, before any stop-at-first
  // shutdown propagates. The explorer serializes all hook invocations, but
  // the callbacks themselves must not re-enter explore().
  std::uint64_t progress_every_events = 0;
  std::function<void(const ExploreStats&)> on_progress;
  std::function<void(std::string_view property)> on_violation;
};

// One step of a counterexample path: the event taken and the state reached.
struct TraceStep {
  Event event;
  State after;
};

struct ExploreStats {
  std::uint64_t states_stored = 0;    // unique states (stateful mode)
  std::uint64_t states_visited = 0;   // nodes expanded (counts revisits when stateless)
  std::uint64_t events_executed = 0;
  std::uint64_t events_selected = 0;  // events chosen by the strategy
  std::uint64_t events_enabled = 0;   // events enabled before reduction
  std::uint64_t terminal_states = 0;  // states with no enabled event
  std::uint64_t full_expansions = 0;  // states where reduction fell back to all
  // Candidate reduced sets the strategy abandoned because of its cycle
  // proviso during this run (SPOR; see ReductionStrategy::proviso_fallbacks).
  std::uint64_t proviso_fallbacks = 0;
  // States re-expanded by the SCC-based ignoring fix (CycleProviso::kScc):
  // one per SCC of the reduced graph that contained a cycle but no fully
  // expanded state. The price of recovering the reduction the in-search
  // provisos would have lost; 0 under every other proviso.
  std::uint64_t scc_reexpansions = 0;
  // DPOR picks suppressed by the sleep set (por/dpor.cpp): backtrack points
  // whose subtree was provably covered by an already-explored sibling branch
  // and therefore never executed: picks found asleep at execution time plus
  // asleep candidates passed over during a frame's representative selection.
  // Nonzero only for strategy `dpor` with DporOptions::sleep_sets on; the
  // counter that quantifies how much of the feed-race re-exploration the
  // sleep layer claws back.
  std::uint64_t sleep_blocked = 0;
  // Wall-clock milliseconds spent in the SCC ignoring pass (Tarjan +
  // repair rounds), 0 when the pass did not run. Separated from `seconds`
  // so the post-pass cost stays visible as reduced graphs grow.
  double scc_pass_ms = 0.0;
  // Distributed search only (src/dist): successors whose fingerprint-owner
  // was another rank and that were therefore shipped over the peer mesh
  // instead of inserted locally, the batch frames that carried them
  // (forwarded_states / forward_batches = achieved batching factor), and the
  // total framed payload bytes put on the wire (all frame types, both
  // directions summed across ranks). 0 for every single-process driver.
  std::uint64_t forwarded_states = 0;
  std::uint64_t forward_batches = 0;
  std::uint64_t wire_bytes = 0;
  // Progress snapshots only: open frames (sequential DFS stack) or open
  // items across the injector and all stealing deques (parallel pool) at
  // snapshot time — computed from the deques' own bounds, so it cannot go
  // negative or drift stale. 0 in final stats.
  std::uint64_t frontier = 0;
  // Whole-state rehash passes / fingerprint queries during this run (delta of
  // the process-wide counters in core/state.hpp; approximate if explorations
  // run concurrently in one process). The seed recomputed two passes per
  // query; the cached scheme keeps passes near states_stored.
  std::uint64_t full_hash_passes = 0;
  std::uint64_t hash_queries = 0;
  // Exact bytes the visited set holds resident at the end of the run (slot
  // tables, arenas, interned payloads; spilled chunks excluded). 0 for
  // stateless searches. visited_bytes / states_stored is the bytes-per-state
  // figure the state_bytes bench reports.
  std::uint64_t visited_bytes = 0;
  unsigned max_depth_seen = 0;
  unsigned threads_used = 1;
  // Wall-clock of the run. The span differs per driver, and cross-driver
  // comparisons (the bench's dist/r1 over full/t1 gate) rely on it:
  //  * SequentialDriver / StackReplayDriver (t1 searches, DPOR): start()
  //    to finish(), i.e. after the ExpansionCore and its visited set are
  //    built and before they are torn down; the SCC pass is inside.
  //  * PoolDriver: from run() entry (core built) through worker spawn and
  //    join, trace replay and the SCC pass, to before teardown.
  //  * run_distributed (src/dist): from before the socketpair mesh is built
  //    and the ranks are forked to the arrival of the last rank's final
  //    report, when the merged verdict is known. Reaping the rank processes
  //    (each tearing down its own visited set) and the launcher's
  //    counterexample replay are outside it.
  double seconds = 0.0;
};

struct ExploreResult {
  Verdict verdict = Verdict::kHolds;
  std::string violated_property;
  std::vector<TraceStep> counterexample;  // empty unless verdict == kViolated
  ExploreStats stats;
  // Sorted, deduplicated; filled only when cfg.collect_terminals is set.
  std::vector<Fingerprint> terminal_fingerprints;
};

// Callbacks a strategy may use to evaluate provisos. Sequential searches
// provide all three; the parallel worker pool has no per-search DFS stack and
// leaves `on_stack` empty (strategies must check before calling).
struct StrategyContext {
  // Successor of the current state through `e`.
  std::function<State(const Event& e)> successor;
  // Whether a state lies on the current DFS stack (stack cycle proviso).
  std::function<bool(const State& s)> on_stack;
  // Whether a state is already in the visited set (visited-set cycle
  // proviso; probes the canonicalized state when symmetry is on). Empty in
  // stateless searches.
  std::function<bool(const State& s)> in_visited;
};

class ReductionStrategy {
 public:
  virtual ~ReductionStrategy() = default;

  // Indices into `events` of the subset to explore from `s`. Must be non-empty
  // whenever `events` is non-empty.
  virtual std::vector<std::size_t> select(const State& s,
                                          std::span<const Event> events,
                                          const StrategyContext& ctx) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // Whether select() relies on StrategyContext::on_stack. Strategies
  // returning false may be driven by the parallel worker pool (which only
  // provides `in_visited`); their select() must then be safe to call
  // concurrently from multiple workers. Conservative default: true.
  [[nodiscard]] virtual bool needs_dfs_stack() const { return true; }

  // Monotone count of candidate reduced sets abandoned because of the cycle
  // proviso over this strategy object's lifetime; searches report the per-run
  // delta in ExploreStats::proviso_fallbacks.
  [[nodiscard]] virtual std::uint64_t proviso_fallbacks() const { return 0; }

  // Whether the engine must run the SCC-based ignoring fix as a post-pass
  // over the interned state graph (engine::ExpansionCore::
  // run_scc_ignoring_pass): the strategy then applies no in-search cycle
  // proviso and relies on the pass to re-expand one state per ignored SCC.
  // Implies needs_dfs_stack() == false and forces an interned visited set.
  [[nodiscard]] virtual bool wants_scc_ignoring_pass() const { return false; }
};

// The unreduced baseline: explore every enabled event.
class FullExpansion final : public ReductionStrategy {
 public:
  std::vector<std::size_t> select(const State&, std::span<const Event> events,
                                  const StrategyContext&) override;
  [[nodiscard]] std::string_view name() const override { return "full"; }
  [[nodiscard]] bool needs_dfs_stack() const override { return false; }
};

// Run the search, taking ownership of the strategy. A null strategy means
// full expansion (and is what routes stateful multi-threaded searches onto
// the parallel worker pool). This is the preferred form — the check facade's
// strategy factories hand over unique_ptrs, so no caller juggles strategy
// lifetimes.
[[nodiscard]] ExploreResult explore(const Protocol& proto, const ExploreConfig& cfg,
                                    std::unique_ptr<ReductionStrategy> strategy);

// Non-owning shim for callers that keep the strategy alive themselves.
[[nodiscard]] ExploreResult explore(const Protocol& proto, const ExploreConfig& cfg,
                                    ReductionStrategy* strategy = nullptr);

// Convenience: unreduced stateful search with default budgets.
[[nodiscard]] ExploreResult explore_full(const Protocol& proto);

// Replay `events` from the initial state through execute(), returning one
// TraceStep per event. The single trace constructor behind every search
// mode: the sequential and DPOR searches feed it their stack's event chain,
// the parallel pool the chain recovered by walking interned parent handles
// (ShardedVisited::path_from_root). Successor computation is deterministic,
// so the replayed states are exactly the states the search saw.
[[nodiscard]] std::vector<TraceStep> replay_trace(const Protocol& proto,
                                                  std::span<const Event> events,
                                                  const ExecuteOptions& opts = {});

// Enumerate the full reachable state graph (unreduced, stateful, exact) and
// return all reachable states; used by tests to check refinement equivalence
// (Thm. 2). Aborts (returns empty) if more than `max_states` are reachable.
[[nodiscard]] std::vector<State> reachable_states(const Protocol& proto,
                                                  std::uint64_t max_states = 1u << 22);

// All labelled edges of the reachable state graph: (state, event, successor)
// triples in a canonical order; used by state-graph equivalence tests.
struct Edge {
  State from;
  std::string transition_name;  // identity up to refinement provenance
  std::vector<Message> consumed;
  State to;
};
[[nodiscard]] std::vector<Edge> reachable_edges(const Protocol& proto,
                                                std::uint64_t max_states = 1u << 20);

}  // namespace mpb
