// The unified exploration engine: one pooled expansion core under every
// search mode.
//
// Before this file existed, the sequential stateful DFS, the lock-free
// parallel pool and the DPOR stack search each reimplemented expansion,
// visited insertion, proviso evaluation and trace construction inside
// core/explorer.cpp. They are now three thin *drivers* over one shared
// ExpansionCore:
//
//   driver             loop shape                 used for
//   -----------------  -------------------------  ---------------------------
//   SequentialDriver   lazy DFS over a frame      stateful t1 searches (all
//                      stack (path = stack, so    provisos incl. the classic
//                      the stack proviso and      stack proviso), stateless
//                      stateless cycle cut work)  unreduced DFS
//   PoolDriver         eager expansion over       stateful searches with
//                      per-worker Chase-Lev       threads > 1 and a strategy
//                      stealing deques + a        that needs no DFS stack
//                      mutex injector for root/   (full, SPOR under the
//                      overflow only              visited / scc provisos)
//   StackReplayDriver  chassis (pool, budgets,    the DPOR search in
//                      progress, violation        por/dpor.cpp, which layers
//                      recording, finish) under   backtrack sets on top
//                      a driver-owned stack
//
// The ExpansionCore contract — what every driver gets from the core:
//  * per-worker Item pools: recycled {State, canonical fingerprint, graph
//    handle, depth} records whose State buffers are reused by
//    execute_into(), so steady-state expansion touches the global allocator
//    only to intern a genuinely new state;
//  * scratch buffers for enumerate_events(out) and strategy selection;
//  * canonicalization with the applied permutation returned: when a
//    symmetry canonicalizer is installed, every interned entry records
//    which permutation mapped the concrete state onto its stored canonical
//    representative (ShardedVisited::perm_of), so canonical entries stay
//    traceable back to concrete runs;
//  * graph insertion via parent handles: one insert_canonical() used by
//    every driver threads {parent handle, incoming event, permutation}
//    through the interned arena — the spanning tree parallel and SCC-pass
//    counterexamples replay from;
//  * the SCC-based ignoring fix (CycleProviso::kScc): drivers record the
//    reduced graph's edges and full-expansion marks during the search, and
//    run_scc_ignoring_pass() then repairs the ignoring problem by
//    re-expanding one state per ignored SCC (Tarjan over the recorded
//    edges) instead of falling back to full expansion in-search — the
//    reduction the visited-set proviso loses to cross-edge hits (counted
//    by proviso_fallbacks) is recovered, priced by scc_reexpansions.
//
// Counterexample traces are uniform across drivers: the sequential and DPOR
// drivers feed replay_trace() their stack's event chain; the pool driver and
// the SCC pass walk interned parent handles (path_from_root). Because the
// frontier always carries *concrete* states (canonicalization only keys the
// visited set), the recorded event chain is a genuine concrete run even
// under symmetry — so --trace works in every mode that stores the graph.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/enabled.hpp"
#include "core/execute.hpp"
#include "core/explorer.hpp"
#include "core/visited.hpp"
#include "core/work_deque.hpp"

namespace mpb::engine {

// Which kind of limit stopped a search: a benchmarking budget
// (cfg.max_states / max_events / max_seconds -> Verdict::kBudgetExceeded) or
// a hard resource guard (cfg.guard -> Verdict::kResourceLimit). Guards are
// checked first, so a guard that trips in the same tick as a budget wins.
enum class LimitKind : std::uint8_t { kNone = 0, kBudget, kResource };

[[nodiscard]] constexpr Verdict verdict_of(LimitKind k) noexcept {
  return k == LimitKind::kResource ? Verdict::kResourceLimit
                                   : Verdict::kBudgetExceeded;
}

// Cooperative cancellation (ExploreConfig::cancel): polled wherever the
// resource guards are, and reported as a resource limit so a cancelled run
// carries partial stats under Verdict::kResourceLimit.
[[nodiscard]] inline bool cancel_requested(const ExploreConfig& cfg) noexcept {
  return cfg.cancel && cfg.cancel->load(std::memory_order_relaxed);
}

// Visited-set abstraction over the three storage modes. kExact keeps the
// seed's std::unordered_set of full State copies as the sequential reference
// implementation; kFingerprint and kInterned share the sharded lock-free
// table, and kInterned records the state graph (parent handle + incoming
// event + permutation per entry). All drivers insert through this interface,
// so whichever mode runs, the graph semantics are identical.
class VisitedSet {
 public:
  // `layout` and `spill` configure collapse mode (component split + optional
  // mmap spill tier); both are ignored by the other modes.
  VisitedSet(VisitedMode mode, unsigned shards, CollapseLayout layout = {},
             SpillConfig spill = {})
      : mode_(mode),
        sharded_(mode == VisitedMode::kExact ? VisitedMode::kInterned : mode,
                 shards, std::move(layout), std::move(spill)) {}

  // `fp` must be s.fingerprint(). `perm` is the index of the symmetry
  // permutation that produced `s` from the concrete state (0 = identity).
  VisitedInsert insert(const State& s, const Fingerprint& fp,
                       StateHandle parent, const Event* via,
                       std::uint32_t perm) {
    if (mode_ == VisitedMode::kExact) {
      const bool fresh = exact_.insert(s).second;
      if (fresh) {
        // Same lower-bound accounting as ShardedVisited: payload plus a
        // nominal per-node overhead (kExact is sequential-only, so a plain
        // counter suffices).
        exact_bytes_ += sizeof(State) + 2 * sizeof(void*) +
                        s.locals().size() * sizeof(Value) +
                        s.network().size() * sizeof(Message);
      }
      return {fresh, kNoHandle};
    }
    return sharded_.insert(s, fp, parent, via, perm);
  }

  [[nodiscard]] bool contains(const State& s, const Fingerprint& fp) const {
    if (mode_ == VisitedMode::kExact) return exact_.contains(s);
    return sharded_.contains(s, fp);
  }

  [[nodiscard]] std::uint64_t size() const noexcept {
    return mode_ == VisitedMode::kExact ? exact_.size() : sharded_.size();
  }

  // Approximate bytes of stored states, whatever the mode; the memory
  // resource guard's oracle.
  [[nodiscard]] std::uint64_t approx_bytes() const noexcept {
    return mode_ == VisitedMode::kExact ? exact_bytes_ : sharded_.approx_bytes();
  }

  [[nodiscard]] VisitedMode mode() const noexcept { return mode_; }

  // Serial-search declaration (see ShardedVisited::set_serial): lets table
  // growth free old tables immediately when at most one thread ever probes.
  void set_serial(bool on) noexcept { sharded_.set_serial(on); }

  // The interned state graph (meaningful when mode() == kInterned; the
  // other modes hand out no handles, so every walk is trivially empty).
  [[nodiscard]] const ShardedVisited& graph() const noexcept { return sharded_; }

 private:
  VisitedMode mode_;
  std::unordered_set<State, StateHash> exact_;
  std::uint64_t exact_bytes_ = 0;
  ShardedVisited sharded_;
};

// Multiset of states on the current DFS stack, for the cycle proviso and for
// stateless cycle cut-off. Fingerprint-based: a collision can only cause a
// conservative (sound) full expansion or an early path cut. State fingerprints
// are cached, so each probe is O(1) hash work.
class StackSet {
 public:
  void push(const State& s) { ++counts_[s.fingerprint()]; }
  void pop(const State& s) {
    auto it = counts_.find(s.fingerprint());
    if (it != counts_.end() && --it->second == 0) counts_.erase(it);
  }
  [[nodiscard]] bool contains(const State& s) const {
    return counts_.contains(s.fingerprint());
  }

 private:
  std::unordered_map<Fingerprint, std::uint32_t, FingerprintHash> counts_;
};

// One pooled unit of work: a concrete state plus its visited-set identity.
struct Item {
  State s;
  // Fingerprint of the canonicalized state, computed once at visited-insert
  // time and reused as the terminal fingerprint.
  Fingerprint canon_fp;
  // This state's entry in the interned state graph (kNoHandle when the
  // visited set stores no graph).
  StateHandle handle = kNoHandle;
  unsigned depth = 0;
};

// A recorded edge of the reduced state graph (SCC ignoring pass only):
// expanding `from` selected an event whose successor interned as `to`.
struct GraphEdge {
  StateHandle from;
  StateHandle to;
};

// Per-worker machinery: the stealing deque (pool driver only), the Item pool
// (free list over a stable-address backing store — recycling keeps the State
// vector capacity hot), the expansion scratch buffers, and the SCC-pass
// recording buffers. Everything here is touched by its owner only, except
// `deque` (thieves steal) and item memory itself (whoever extracts an item
// expands and then releases it into *their own* free list; the backing
// stores outlive the drivers, so cross-worker recycling is safe).
struct WorkerCtx {
  explicit WorkerCtx(unsigned wid) : rng(0x9e3779b97f4a7c15ULL * (wid + 1) + 1) {}

  Item* alloc() {
    if (!free.empty()) {
      Item* it = free.back();
      free.pop_back();
      return it;
    }
    storage.emplace_back();
    return &storage.back();
  }
  void release(Item* it) { free.push_back(it); }

  [[nodiscard]] std::uint64_t next_rand() {  // xorshift64
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }

  WorkStealingDeque<Item> deque;
  std::deque<Item> storage;  // stable addresses; owns every Item's memory
  std::vector<Item*> free;
  std::vector<Event> enabled;    // enumerate_events scratch
  std::vector<std::size_t> idx;  // strategy selection scratch
  std::string failed;            // assertion-label scratch
  std::vector<Item*> steal_buf;  // steal-half batch scratch
  std::uint64_t rng;
  // SCC ignoring pass recording (CycleProviso::kScc runs only): the reduced
  // graph's edges and the handles of fully expanded states. After the main
  // search ExpansionCore::run_scc_ignoring_pass reads every worker's lists
  // in place, appends its own re-expansions to worker 0's, and frees them.
  std::vector<GraphEdge> edges;
  std::vector<StateHandle> full_handles;
};

// The shared expansion machinery every driver runs on. See the header
// comment for the full contract.
class ExpansionCore {
 public:
  // `visited_mode` is the mode the VisitedSet actually uses (drivers upgrade
  // kExact -> kInterned for parallel runs and kScc searches before handing
  // it over). `n_workers` sizes the worker array (1 for the sequential and
  // replay drivers).
  ExpansionCore(const Protocol& proto, const ExploreConfig& cfg,
                ReductionStrategy* strategy, VisitedMode visited_mode,
                unsigned n_workers);

  [[nodiscard]] WorkerCtx& worker(unsigned i) { return *workers_[i]; }
  [[nodiscard]] const WorkerCtx& worker(unsigned i) const { return *workers_[i]; }
  [[nodiscard]] unsigned n_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  [[nodiscard]] VisitedSet& visited() noexcept { return visited_; }
  [[nodiscard]] const VisitedSet& visited() const noexcept { return visited_; }
  [[nodiscard]] const ExecuteOptions& exec_opts() const noexcept {
    return exec_opts_;
  }
  [[nodiscard]] ReductionStrategy* strategy() const noexcept { return strategy_; }

  // Whether the strategy relies on run_scc_ignoring_pass (drivers then
  // record edges/full marks and invoke the pass after a completed search).
  [[nodiscard]] bool scc_pass_enabled() const noexcept { return scc_enabled_; }

  // Canonicalize (when configured), fingerprint and insert a state,
  // threading the state-graph parent/via/permutation. The single insert
  // behind the root and successor inserts of every driver; `fp_out`
  // receives the canonical fingerprint (the visited key, reused as the
  // terminal fingerprint).
  VisitedInsert insert_canonical(const State& s, StateHandle parent,
                                 const Event* via, Fingerprint* fp_out);

  // The matching membership probe (the visited-set cycle proviso's oracle).
  [[nodiscard]] bool contains_canonical(const State& s) const;

  // Fingerprint of the canonicalized state (terminal fingerprints in
  // stateless searches, where no insert computed one).
  [[nodiscard]] Fingerprint canonical_fingerprint(const State& s) const;

  // Run the strategy over `w.enabled` for state `s`, leaving chosen indices
  // in `w.idx` when a strategy is installed. Returns the selected count and
  // updates st.events_selected / st.full_expansions; `*reduced` reports
  // whether w.idx must be consulted (false = take every enabled event).
  // `on_stack` may be empty (pool driver, SCC pass); `in_visited` is wired
  // to contains_canonical unless `stateless` is set.
  std::size_t select(const State& s, WorkerCtx& w, ExploreStats& st,
                     const std::function<bool(const State&)>& on_stack,
                     bool stateless, bool* reduced);

  // SCC-pass recording (no-ops unless scc_pass_enabled()).
  void record_edge(WorkerCtx& w, StateHandle from, StateHandle to) {
    if (scc_enabled_ && from != kNoHandle && to != kNoHandle) {
      w.edges.push_back({from, to});
    }
  }
  void record_full(WorkerCtx& w, StateHandle h) {
    if (scc_enabled_ && h != kNoHandle) w.full_handles.push_back(h);
  }

  // The SCC-based ignoring fix (Valmari): Tarjan over the edges recorded by
  // every worker; each SCC that contains a cycle but no fully expanded state
  // gets one representative re-expanded with its whole enabled set, and the
  // states that re-expansion discovers are explored on (reduced selection,
  // no cycle proviso, edges recorded) until the graph reaches a fixpoint
  // with no ignored SCC. Grows result.stats (scc_reexpansions counts the
  // representatives) and may flip the verdict if a repaired branch reaches
  // a violation — the counterexample then replays through parent handles.
  // Sequential; drivers call it after their own loop has completed cleanly.
  // `over_time` (may be empty) is the driver's time oracle, polled
  // periodically so the repair phase honours cfg.max_seconds and the
  // wall-clock watchdog like the main loops do; state/memory guards and the
  // event budget are checked inline. A tripped limit stamps the matching
  // verdict (kBudgetExceeded / kResourceLimit) unless a violation won.
  void run_scc_ignoring_pass(ExploreResult& result,
                             std::vector<Fingerprint>& terminals,
                             bool collect_terminals,
                             const std::function<LimitKind()>& over_time);

  // Per-run deltas of the process-wide hash counters and the strategy's
  // monotone proviso-fallback counter; begin_run() is called once by every
  // driver before touching any state, finish_stats() once at the end.
  void begin_run();
  void finish_stats(ExploreStats& st) const;

  [[nodiscard]] const Protocol& proto() const noexcept { return proto_; }
  [[nodiscard]] const ExploreConfig& cfg() const noexcept { return cfg_; }

 private:
  const Protocol& proto_;
  const ExploreConfig& cfg_;
  ReductionStrategy* strategy_;
  ExecuteOptions exec_opts_;
  VisitedSet visited_;
  // Unified canonical hook: wraps cfg.canonicalize_perm (preferred; reports
  // the applied permutation) or cfg.canonicalize (permutation recorded as
  // identity); empty when no symmetry reduction is installed.
  std::function<State(const State&, std::uint32_t&)> canon_;
  std::vector<std::unique_ptr<WorkerCtx>> workers_;
  bool scc_enabled_ = false;
  std::uint64_t hash_passes_at_start_ = 0;
  std::uint64_t hash_queries_at_start_ = 0;
  std::uint64_t fallbacks_at_start_ = 0;
};

// --- drivers ---------------------------------------------------------------

// The shared sequential-driver chassis: pooled state storage, the
// enumerate/execute scratch, budget *and* resource-guard checks, progress
// snapshots, violation recording and the stats finish. Two riders share it —
// SequentialDriver composes it for the stateful/stateless lazy DFS, and the
// DPOR search in por/dpor.cpp rides it for its stateless replay loop — so
// the limit semantics (kBudgetExceeded vs kResourceLimit, guard precedence)
// live in exactly one place. A future replay-based search (e.g. a sleep-set
// DPOR variant) starts from the same contract instead of re-growing its own
// shell.
class StackReplayDriver {
 public:
  // The DPOR form: stateless, no strategy, fingerprint-mode core (the core
  // still provides the Item pool, scratch buffers and stats bookkeeping).
  StackReplayDriver(const Protocol& proto, const ExploreConfig& cfg);
  // The full-control form SequentialDriver rides: its own strategy, visited
  // mode, and statefulness (which decides whether states_stored mirrors the
  // visited set or the visit counter).
  StackReplayDriver(const Protocol& proto, const ExploreConfig& cfg,
                    ReductionStrategy* strategy, VisitedMode visited_mode,
                    bool stateful);

  [[nodiscard]] ExpansionCore& core() noexcept { return core_; }
  [[nodiscard]] WorkerCtx& worker() { return core_.worker(0); }
  [[nodiscard]] const ExecuteOptions& exec_opts() const noexcept {
    return core_.exec_opts();
  }
  [[nodiscard]] ExploreResult& result() noexcept { return result_; }

  // Begin timing; call once before touching any state.
  void start();

  // Property probe: records the verdict/hook and arms done() under
  // stop-at-first semantics. Returns true iff `s` violates a property.
  bool check_violation(const State& s);
  // An in-transition assertion failed during execute().
  void record_assertion(const std::string& label);
  [[nodiscard]] bool done() const noexcept { return done_; }

  // The per-iteration limit check: resource guards first (state cap, memory
  // cap, then — rate-limited — the wall-clock watchdog), budgets second.
  // kNone means keep searching.
  [[nodiscard]] LimitKind over_limit();
  // The time-only oracle (watchdog, then max_seconds), unratelimited; the
  // SCC ignoring pass polls this between repair rounds.
  [[nodiscard]] LimitKind time_limit_kind() const;
  void mark_truncated(LimitKind k) noexcept {
    if (limit_ == LimitKind::kNone) limit_ = k;
  }
  [[nodiscard]] bool truncated() const noexcept {
    return limit_ != LimitKind::kNone;
  }
  void maybe_progress(std::uint64_t frontier);

  // Rebuild the counterexample from the driver's event chain (the shared
  // replay constructor every search mode uses).
  void record_counterexample(std::span<const Event> events);

  // Stamp seconds / states_stored / hash deltas / the limit verdict and
  // sort-unique the terminal fingerprints; returns the finished result.
  [[nodiscard]] ExploreResult finish();

 private:
  [[nodiscard]] double elapsed() const;
  [[nodiscard]] std::uint64_t stored_states() const;

  ExpansionCore core_;
  const Protocol& proto_;
  const ExploreConfig& cfg_;
  const bool stateful_;
  ExploreResult result_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t budget_tick_ = 0;
  LimitKind limit_ = LimitKind::kNone;
  bool done_ = false;
};

// Sequential lazy DFS (stateful and stateless): the frame stack *is* the
// current path, which is what the classic stack cycle proviso, the stateless
// cycle cut and stack-walk counterexamples need. Frames and their chosen
// event lists are recycled by depth (the live prefix of a high-water vector),
// and states live in the core's Item pool — steady-state expansion is
// allocation-free, like the pool driver. The budget/guard/progress/finish
// shell is the StackReplayDriver chassis; this class owns only the DFS loop.
class SequentialDriver {
 public:
  SequentialDriver(const Protocol& proto, const ExploreConfig& cfg,
                   ReductionStrategy* strategy);
  [[nodiscard]] ExploreResult run();

 private:
  struct Frame {
    Item* item = nullptr;
    std::vector<Event> chosen;  // capacity reused across frame reincarnations
    std::size_t n_chosen = 0;
    std::size_t next = 0;
  };

  void push_frame(Item* it, const Fingerprint* canon_fp);
  void record_counterexample(const Event& last);

  StackReplayDriver drv_;
  const Protocol& proto_;
  const ExploreConfig& cfg_;
  const bool stateful_;
  StackSet stack_set_;
  std::vector<Frame> frames_;  // high-water storage; depth_ = live frames
  std::size_t depth_ = 0;
};

// Parallel stateful search: a fixed worker pool over per-worker work-stealing
// deques. Each worker expands successors off the bottom of its own Chase-Lev
// deque (LIFO — the search stays depth-first and cache-warm) and, when it
// runs dry, steals from the top of a random victim's deque (FIFO — a steal
// grabs the shallowest, i.e. largest, open subtree; with
// cfg.steal_half_threshold set, a deep victim loses half its items in one
// visit). A small mutex-guarded global injector seeds the root and absorbs
// overflow from pathologically wide expansions. Termination is an atomic
// outstanding-work counter. See docs/ARCHITECTURE.md for the protocol and
// the schedule-independence argument.
class PoolDriver {
 public:
  PoolDriver(const Protocol& proto, const ExploreConfig& cfg,
             ReductionStrategy* strategy);
  [[nodiscard]] ExploreResult run();

 private:
  // A deque larger than this donates new items to the global injector
  // instead of growing without bound.
  static constexpr std::size_t kInjectorOverflow = 1u << 16;
  // Upper bound on one steal-half batch (bounds the thief-side buffer).
  static constexpr std::size_t kMaxStealBatch = 64;

  void worker(unsigned wid);
  Item* acquire_work(WorkerCtx& me, unsigned wid);
  static void backoff(unsigned& idle);
  void push_work(WorkerCtx& me, Item* succ);
  void expand(Item& item, WorkerCtx& me, ExploreStats& st,
              std::vector<Fingerprint>& terminals);
  void record_violation(const std::string& property, StateHandle parent,
                        const Event& last);
  [[nodiscard]] std::uint64_t frontier_size() const;
  void emit_progress(std::uint64_t global_events);
  // First limit signal wins (guards are checked before budgets at every
  // site, so precedence holds per worker; a cross-worker race between a
  // guard and a budget tripping simultaneously is inherently unordered).
  void signal_limit(LimitKind k);
  void stop() { done_.store(true, std::memory_order_release); }
  [[nodiscard]] bool stopped() const {
    return done_.load(std::memory_order_relaxed);
  }
  // Resource guards on the stored-state side, then the state budget; called
  // after each fresh insert.
  [[nodiscard]] LimitKind state_limit_kind() const;
  // Watchdog first, then the time budget; rate-limited by the caller.
  [[nodiscard]] LimitKind time_limit_kind() const;

  // First-violation trace seed; written once under result_mu_, read after
  // the pool joins.
  struct PendingTrace {
    StateHandle parent = kNoHandle;
    Event last;
    bool armed = false;
  };

  ExpansionCore core_;
  const Protocol& proto_;
  const ExploreConfig& cfg_;
  unsigned threads_;
  PendingTrace pending_;

  mutable std::mutex inj_mu_;
  std::vector<Item*> injector_;  // root seed + overflow donations only
  std::atomic<bool> done_{false};
  std::atomic<std::int64_t> outstanding_{0};  // queued or in-expansion items
  std::atomic<std::uint64_t> events_budget_{0};
  std::atomic<std::uint8_t> limit_{0};  // LimitKind; first signal wins

  std::mutex result_mu_;
  std::mutex hooks_mu_;  // serializes on_progress/on_violation invocations
  ExploreResult result_;
  std::vector<ExploreStats> worker_stats_;
  std::vector<std::vector<Fingerprint>> worker_terminals_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mpb::engine
