#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

namespace mpb::engine {

namespace {

[[nodiscard]] unsigned auto_shards(const ExploreConfig& cfg) {
  if (cfg.visited_shards != 0) return cfg.visited_shards;
  return cfg.threads > 1 ? cfg.threads * 4 : 1;
}

inline constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};

// Per-vertex flags of the SCC ignoring pass.
inline constexpr std::uint8_t kFullVertex = 1;  // expanded with every event
inline constexpr std::uint8_t kSelfLoop = 2;
inline constexpr std::uint8_t kOnStack = 4;     // Tarjan stack membership

// The recorded reduced graph over dense vertex numbers, in CSR form: the
// successors of v are targets[offsets[v] .. offsets[v + 1]). Self loops are
// kept out of the adjacency and flagged instead.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;
};

// One iterative Tarjan over `g`, rooted at every vertex in ascending order.
// Calls on_scc(members) for each strongly connected component as it
// completes (reverse topological order); `flag` must carry kFullVertex /
// kSelfLoop and is used for the stack marks.
template <typename OnScc>
void tarjan(const Csr& g, std::vector<std::uint8_t>& flag, OnScc on_scc) {
  const auto n = static_cast<std::uint32_t>(flag.size());
  std::vector<std::uint32_t> num(n, kUnvisited), low(n);
  std::vector<std::uint32_t> stk;
  struct Frame {
    std::uint32_t v;
    std::uint32_t ei;  // next edge to follow, an index into g.targets
  };
  std::vector<Frame> dfs;
  std::uint32_t counter = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (num[root] != kUnvisited) continue;
    auto open = [&](std::uint32_t v) {
      num[v] = low[v] = counter++;
      stk.push_back(v);
      flag[v] |= kOnStack;
      dfs.push_back({v, g.offsets[v]});
    };
    open(root);
    while (!dfs.empty()) {
      Frame& f = dfs.back();
      if (f.ei < g.offsets[f.v + 1]) {
        const std::uint32_t u = g.targets[f.ei++];
        if (num[u] == kUnvisited) {
          open(u);
        } else if (flag[u] & kOnStack) {
          low[f.v] = std::min(low[f.v], num[u]);
        }
        continue;
      }
      const std::uint32_t v = f.v;
      dfs.pop_back();
      if (!dfs.empty()) low[dfs.back().v] = std::min(low[dfs.back().v], low[v]);
      if (low[v] != num[v]) continue;
      // v roots an SCC: its members are the stack above (and including) v.
      auto first = stk.end();
      do {
        --first;
        flag[*first] &= static_cast<std::uint8_t>(~kOnStack);
      } while (*first != v);
      on_scc(std::span<const std::uint32_t>(&*first,
                                            static_cast<std::size_t>(
                                                stk.end() - first)));
      stk.erase(first, stk.end());
    }
  }
}

}  // namespace

// --- ExpansionCore ----------------------------------------------------------

ExpansionCore::ExpansionCore(const Protocol& proto, const ExploreConfig& cfg,
                             ReductionStrategy* strategy,
                             VisitedMode visited_mode, unsigned n_workers)
    : proto_(proto),
      cfg_(cfg),
      strategy_(strategy),
      visited_(visited_mode, auto_shards(cfg),
               visited_mode == VisitedMode::kCollapse ? CollapseLayout::from(proto)
                                                      : CollapseLayout{},
               SpillConfig{cfg.spill_dir, cfg.spill_mb << 20}) {
  exec_opts_.validate_annotations = cfg.validate_annotations;
  // One worker means at most one thread ever probes the visited set at a
  // time (the pool's main thread only touches it before workers start and
  // after they join), so table growth may free old tables immediately.
  if (n_workers <= 1) visited_.set_serial(true);
  if (cfg.canonicalize_perm) {
    canon_ = cfg.canonicalize_perm;
  } else if (cfg.canonicalize) {
    canon_ = [&cfg](const State& s, std::uint32_t& perm) {
      perm = 0;  // the plain hook reports no permutation
      return cfg.canonicalize(s);
    };
  }
  scc_enabled_ = strategy != nullptr && strategy->wants_scc_ignoring_pass() &&
                 cfg.mode == SearchMode::kStateful &&
                 visited_stores_graph(visited_mode);
  workers_.reserve(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) {
    workers_.push_back(std::make_unique<WorkerCtx>(w));
  }
}

void ExpansionCore::begin_run() {
  hash_passes_at_start_ = state_full_hash_passes();
  hash_queries_at_start_ = state_hash_queries();
  fallbacks_at_start_ = strategy_ != nullptr ? strategy_->proviso_fallbacks() : 0;
}

void ExpansionCore::finish_stats(ExploreStats& st) const {
  st.full_hash_passes = state_full_hash_passes() - hash_passes_at_start_;
  st.hash_queries = state_hash_queries() - hash_queries_at_start_;
  if (strategy_ != nullptr) {
    st.proviso_fallbacks = strategy_->proviso_fallbacks() - fallbacks_at_start_;
  }
}

VisitedInsert ExpansionCore::insert_canonical(const State& s, StateHandle parent,
                                              const Event* via,
                                              Fingerprint* fp_out) {
  if (canon_) {
    std::uint32_t perm = 0;
    const State canon = canon_(s, perm);
    *fp_out = canon.fingerprint();
    return visited_.insert(canon, *fp_out, parent, via, perm);
  }
  *fp_out = s.fingerprint();
  return visited_.insert(s, *fp_out, parent, via, 0);
}

bool ExpansionCore::contains_canonical(const State& s) const {
  if (canon_) {
    std::uint32_t perm = 0;
    const State canon = canon_(s, perm);
    return visited_.contains(canon, canon.fingerprint());
  }
  return visited_.contains(s, s.fingerprint());
}

Fingerprint ExpansionCore::canonical_fingerprint(const State& s) const {
  if (canon_) {
    std::uint32_t perm = 0;
    return canon_(s, perm).fingerprint();
  }
  return s.fingerprint();
}

std::size_t ExpansionCore::select(const State& s, WorkerCtx& w, ExploreStats& st,
                                  const std::function<bool(const State&)>& on_stack,
                                  bool stateless, bool* reduced) {
  const std::size_t n_enabled = w.enabled.size();
  if (strategy_ == nullptr) {
    *reduced = false;
    st.events_selected += n_enabled;
    return n_enabled;
  }
  StrategyContext ctx{
      [&](const Event& e) { return execute(proto_, s, e, exec_opts_); },
      on_stack,
      stateless ? std::function<bool(const State&)>{}
                : std::function<bool(const State&)>([this](const State& probe) {
                    return contains_canonical(probe);
                  })};
  w.idx = strategy_->select(s, w.enabled, ctx);
  if (w.idx.size() >= n_enabled) ++st.full_expansions;
  st.events_selected += w.idx.size();
  *reduced = true;
  return w.idx.size();
}

// --- the SCC-based ignoring fix ---------------------------------------------
//
// After a reduced search that applied no in-search cycle proviso
// (CycleProviso::kScc), transitions enabled somewhere around a cycle of the
// reduced graph may have been postponed at every state of that cycle — the
// ignoring problem. The classic repair (Valmari) is to make sure every cycle
// contains at least one fully expanded state. This pass computes the SCCs of
// the recorded reduced graph (Tarjan over the edges the drivers logged),
// finds each SCC that contains a cycle but no fully expanded member, and
// re-expands one representative with its *whole* enabled set. States that
// re-expansion discovers are explored on with the normal reduced selection
// (edges recorded), and the SCC check re-runs until no ignored SCC remains —
// each round marks at least one previously-unexpanded state full, so the
// fixpoint terminates on the finite state space.
//
// Under symmetry the graph stores canonical representatives; expansion must
// continue from the *concrete* state that first reached an entry so the
// recorded event chains stay concretely replayable. That concrete state is
// recovered by inverting the recorded permutation (cfg.decanonicalize,
// installed by the check facade next to canonicalize_perm) — the reason the
// permutation is stored at all.
void ExpansionCore::run_scc_ignoring_pass(
    ExploreResult& result, std::vector<Fingerprint>& terminals,
    bool collect_terminals, const std::function<LimitKind()>& over_time) {
  if (!scc_enabled_) return;
  const auto pass_start = std::chrono::steady_clock::now();
  WorkerCtx& w = *workers_[0];
  const ShardedVisited& graph = visited_.graph();

  // The concrete state behind an interned entry: invert the recorded
  // permutation when a symmetry reduction is installed (identity otherwise).
  auto concrete_of = [&](StateHandle h) -> State {
    // materialize() copies in interned mode and reconstructs from the
    // component tables in collapse mode.
    State s = *graph.materialize(h);
    const std::uint32_t perm = graph.perm_of(h);
    if (perm != 0 && cfg_.decanonicalize) return cfg_.decanonicalize(perm, s);
    return s;
  };

  LimitKind trunc = LimitKind::kNone;
  bool stop = false;

  // Record a violation found along a repaired branch. `h` is the interned
  // entry of the violating state, or the parent entry when the violating
  // successor was never interned (assertion failures record before insert);
  // `last` is then the final event. The trace is only constructed when the
  // recorded chain is certifiably concrete: either no canonicalizer is
  // installed, or the permutation-aware hooks are (so concrete_of really
  // inverted every representative the pass expanded from). A plain
  // `canonicalize` hook records no permutations — the verdict still stands,
  // but a replayed chain could mix concrete and canonical states, so none
  // is emitted (mirroring fingerprint mode).
  auto record_violation = [&](const std::string& property, StateHandle h,
                              const Event* last) {
    if (result.verdict != Verdict::kViolated) {
      result.verdict = Verdict::kViolated;
      result.violated_property = property;
      const bool have_canon = static_cast<bool>(cfg_.canonicalize) ||
                              static_cast<bool>(cfg_.canonicalize_perm);
      if (!have_canon || (cfg_.canonicalize_perm && cfg_.decanonicalize)) {
        std::vector<Event> events = graph.path_from_root(h);
        if (last != nullptr) events.push_back(*last);
        result.counterexample = replay_trace(proto_, events, exec_opts_);
      }
    }
    if (cfg_.on_violation) cfg_.on_violation(property);
    if (cfg_.stop_at_first_violation) stop = true;
  };

  struct PassWork {
    StateHandle h;
    bool full_expand;
  };
  std::vector<PassWork> work;

  // Expand the states queued in `work` (representatives fully, fallout with
  // the normal reduced selection), recording edges and full marks.
  auto drain_work = [&]() {
    while (!work.empty() && !stop && trunc == LimitKind::kNone) {
      const PassWork pw = work.back();
      work.pop_back();
      Item* cur = w.alloc();
      cur->s = concrete_of(pw.h);
      ++result.stats.states_visited;
      enumerate_events(proto_, cur->s, w.enabled);
      result.stats.events_enabled += w.enabled.size();
      if (w.enabled.empty()) {
        ++result.stats.terminal_states;
        if (collect_terminals) {
          terminals.push_back(canonical_fingerprint(cur->s));
        }
        record_full(w, pw.h);
        w.release(cur);
        continue;
      }
      bool reduced = false;
      std::size_t k;
      if (pw.full_expand) {
        k = w.enabled.size();
        result.stats.events_selected += k;
      } else {
        k = select(cur->s, w, result.stats, /*on_stack=*/{},
                   /*stateless=*/false, &reduced);
      }
      if (k == w.enabled.size()) record_full(w, pw.h);
      for (std::size_t j = 0; j < k && !stop; ++j) {
        const Event& e = w.enabled[reduced ? w.idx[j] : j];
        Item* succ = w.alloc();
        execute_into(proto_, cur->s, e, exec_opts_, &w.failed, succ->s);
        ++result.stats.events_executed;
        LimitKind lk = LimitKind::kNone;
        if (result.stats.events_executed % 1024 == 0 && over_time) {
          lk = over_time();
        }
        if (lk == LimitKind::kNone &&
            result.stats.events_executed > cfg_.max_events) {
          lk = LimitKind::kBudget;
        }
        if (lk != LimitKind::kNone) {
          trunc = lk;
          w.release(succ);
          break;
        }
        if (!w.failed.empty()) {
          record_violation(w.failed, pw.h, &e);
          if (stop) {
            w.release(succ);
            break;
          }
        }
        Fingerprint canon_fp;
        const VisitedInsert ins =
            insert_canonical(succ->s, pw.h, &e, &canon_fp);
        record_edge(w, pw.h, ins.handle);
        if (ins.inserted) {
          const std::uint64_t stored = visited_.size();
          LimitKind slk = LimitKind::kNone;
          if ((cfg_.guard.max_states != 0 && stored > cfg_.guard.max_states) ||
              (cfg_.guard.max_memory_bytes != 0 &&
               visited_.approx_bytes() > cfg_.guard.max_memory_bytes)) {
            slk = LimitKind::kResource;
          } else if (stored > cfg_.max_states) {
            slk = LimitKind::kBudget;
          }
          if (slk != LimitKind::kNone) {
            trunc = slk;
            w.release(succ);
            break;
          }
          if (const Property* p = proto_.violated_property(succ->s)) {
            record_violation(p->name, ins.handle, nullptr);
            w.release(succ);
            if (stop) break;
            continue;
          }
          work.push_back({ins.handle, /*full_expand=*/false});
        }
        w.release(succ);
      }
      w.release(cur);
    }
  };

  // Fixpoint: Tarjan, repair every ignored SCC, explore the fallout, repeat.
  while (!stop && trunc == LimitKind::kNone) {
    if (over_time) {
      const LimitKind lk = over_time();
      if (lk != LimitKind::kNone) {
        trunc = lk;
        break;
      }
    }
    // Vertices are numbered densely from their handles, renumbered every
    // round because re-expansion interns new states. The numbering keeps
    // handle order, so the smallest member of an SCC is its smallest handle.
    const ShardedVisited::DenseNumbering dense = graph.dense_numbering();
    if (dense.size() >= kUnvisited) {
      throw std::length_error("scc pass: more states than 32-bit vertex ids");
    }
    const auto n = static_cast<std::uint32_t>(dense.size());
    std::vector<std::uint8_t> flag(n, 0);
    Csr g;
    g.offsets.assign(std::size_t{n} + 1, 0);
    for (const auto& wk : workers_) {
      for (const StateHandle h : wk->full_handles) {
        flag[dense.of(h)] |= kFullVertex;
      }
      for (const GraphEdge& e : wk->edges) {
        const auto a = static_cast<std::uint32_t>(dense.of(e.from));
        if (a == dense.of(e.to)) {
          flag[a] |= kSelfLoop;
        } else {
          ++g.offsets[a + 1];
        }
      }
    }
    std::partial_sum(g.offsets.begin(), g.offsets.end(), g.offsets.begin());
    g.targets.resize(g.offsets[n]);
    {
      std::vector<std::uint32_t> next(g.offsets.begin(), g.offsets.end() - 1);
      for (const auto& wk : workers_) {
        for (const GraphEdge& e : wk->edges) {
          const auto a = static_cast<std::uint32_t>(dense.of(e.from));
          const auto b = static_cast<std::uint32_t>(dense.of(e.to));
          if (a != b) g.targets[next[a]++] = b;
        }
      }
    }

    // An SCC is *ignored* when it contains a cycle (size > 1 or a self
    // loop) but no fully expanded member; its representative (the smallest
    // handle, for determinism) gets re-expanded. Only the partition and the
    // member sets matter here, never Tarjan's visiting order, so every
    // thread count reaches identical re-expansion sets.
    work.clear();
    tarjan(g, flag, [&](std::span<const std::uint32_t> members) {
      bool cyclic = members.size() > 1;
      std::uint32_t rep = members.front();
      for (const std::uint32_t v : members) {
        if (flag[v] & kFullVertex) return;
        if (flag[v] & kSelfLoop) cyclic = true;
        rep = std::min(rep, v);
      }
      if (!cyclic) return;
      work.push_back({dense.handle(rep), /*full_expand=*/true});
      ++result.stats.scc_reexpansions;
    });
    if (work.empty()) break;  // no ignored SCC left: the reduction is sound
    drain_work();
  }
  for (const auto& wk : workers_) {
    std::vector<GraphEdge>().swap(wk->edges);
    std::vector<StateHandle>().swap(wk->full_handles);
  }

  if (trunc != LimitKind::kNone && result.verdict != Verdict::kViolated) {
    result.verdict = verdict_of(trunc);
  }
  result.stats.scc_pass_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                pass_start)
          .count();
}

// --- SequentialDriver -------------------------------------------------------

SequentialDriver::SequentialDriver(const Protocol& proto,
                                   const ExploreConfig& cfg,
                                   ReductionStrategy* strategy)
    : drv_(proto, cfg, strategy, cfg.visited,
           /*stateful=*/cfg.mode == SearchMode::kStateful),
      proto_(proto),
      cfg_(cfg),
      stateful_(cfg.mode == SearchMode::kStateful) {}

ExploreResult SequentialDriver::run() {
  drv_.start();
  ExpansionCore& core = drv_.core();
  WorkerCtx& w = drv_.worker();
  ExploreResult& result = drv_.result();

  State init = proto_.initial();
  if (drv_.check_violation(init)) {
    return drv_.finish();
  }
  Item* root = w.alloc();
  root->s = std::move(init);
  root->handle = kNoHandle;
  if (stateful_) {
    Fingerprint canon_fp;
    const VisitedInsert ins =
        core.insert_canonical(root->s, kNoHandle, nullptr, &canon_fp);
    root->canon_fp = canon_fp;
    root->handle = ins.handle;
    push_frame(root, &canon_fp);
  } else {
    push_frame(root, nullptr);
  }

  while (depth_ > 0 && !drv_.done()) {
    if (const LimitKind lk = drv_.over_limit(); lk != LimitKind::kNone) {
      drv_.mark_truncated(lk);
      break;
    }
    Frame& f = frames_[depth_ - 1];
    if (f.next >= f.n_chosen) {
      stack_set_.pop(f.item->s);
      w.release(f.item);
      f.item = nullptr;
      --depth_;
      continue;
    }
    const Event& e = f.chosen[f.next++];
    Item* succ = w.alloc();
    execute_into(proto_, f.item->s, e, drv_.exec_opts(), &w.failed, succ->s);
    ++result.stats.events_executed;
    drv_.maybe_progress(depth_);
    if (!w.failed.empty()) {
      drv_.record_assertion(w.failed);
      record_counterexample(e);
      if (cfg_.stop_at_first_violation) {
        w.release(succ);
        break;
      }
    }

    Fingerprint canon_fp;
    const Fingerprint* canon_fp_ptr = nullptr;
    if (stateful_) {
      // One canonicalization per successor, reused for the visited probe and
      // (in push_frame) the terminal fingerprint. The insert threads the
      // state graph: parent = the expanding frame's entry, via = the event.
      const VisitedInsert ins =
          core.insert_canonical(succ->s, f.item->handle, &e, &canon_fp);
      core.record_edge(w, f.item->handle, ins.handle);
      if (!ins.inserted) {
        w.release(succ);
        continue;
      }
      canon_fp_ptr = &canon_fp;
      succ->canon_fp = canon_fp;
      succ->handle = ins.handle;
    } else {
      if (stack_set_.contains(succ->s)) {  // cut cycles in stateless mode
        w.release(succ);
        continue;
      }
      if (depth_ >= cfg_.max_depth) {
        drv_.mark_truncated(LimitKind::kBudget);
        w.release(succ);
        continue;
      }
      succ->handle = kNoHandle;
    }

    if (drv_.check_violation(succ->s)) {
      record_counterexample(e);
      w.release(succ);
      if (cfg_.stop_at_first_violation) break;
      continue;
    }
    push_frame(succ, canon_fp_ptr);
  }

  if (core.scc_pass_enabled() && result.verdict == Verdict::kHolds &&
      !drv_.truncated()) {
    core.run_scc_ignoring_pass(result, result.terminal_fingerprints,
                               cfg_.collect_terminals,
                               [this] { return drv_.time_limit_kind(); });
  }
  return drv_.finish();
}

void SequentialDriver::push_frame(Item* it, const Fingerprint* canon_fp) {
  ExpansionCore& core = drv_.core();
  WorkerCtx& w = drv_.worker();
  ExploreResult& result = drv_.result();
  ++result.stats.states_visited;
  result.stats.max_depth_seen = std::max(
      result.stats.max_depth_seen, static_cast<unsigned>(depth_) + 1);

  enumerate_events(proto_, it->s, w.enabled);
  result.stats.events_enabled += w.enabled.size();
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& f = frames_[depth_++];
  f.item = it;
  f.next = 0;

  if (w.enabled.empty()) {
    ++result.stats.terminal_states;
    if (cfg_.collect_terminals) {
      result.terminal_fingerprints.push_back(
          canon_fp != nullptr ? *canon_fp
                              : core.canonical_fingerprint(it->s));
    }
    core.record_full(w, it->handle);  // a terminal is trivially full
    f.n_chosen = 0;
    stack_set_.push(it->s);
    return;
  }

  bool reduced = false;
  const std::function<bool(const State&)> on_stack =
      [this](const State& s) { return stack_set_.contains(s); };
  const std::size_t k =
      core.select(it->s, w, result.stats, on_stack, !stateful_, &reduced);
  if (k == w.enabled.size()) core.record_full(w, it->handle);
  // Copy (not move) the chosen events into the recycled frame: assignment
  // reuses both the frame slots' and the scratch events' buffer capacity.
  if (f.chosen.size() < k) f.chosen.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    f.chosen[j] = w.enabled[reduced ? w.idx[j] : j];
  }
  f.n_chosen = k;
  stack_set_.push(it->s);
}

// The DFS stack is the parent chain of the violating state: gather its event
// sequence and rebuild the trace through the shared replay helper (execute()
// is deterministic, so the replayed states are the ones the search saw).
void SequentialDriver::record_counterexample(const Event& last) {
  std::vector<Event> events;
  events.reserve(depth_);
  for (std::size_t i = 0; i + 1 < depth_; ++i) {
    const Frame& f = frames_[i];
    events.push_back(f.chosen[f.next - 1]);
  }
  events.push_back(last);
  drv_.record_counterexample(events);
}

// --- PoolDriver -------------------------------------------------------------
//
// Allocation: workers recycle Item objects (the State successor buffers)
// through per-worker free lists, and execute_into() copy-assigns into the
// recycled state so its locals/network vector capacity is reused. In steady
// state an expansion touches the global allocator only to intern a genuinely
// new state, not once per generated successor. Items are handed over by
// pointer (push/steal transfer ownership); the memory itself is owned by the
// per-worker backing stores, which outlive the pool.
//
// With a reduction strategy (SPOR under the visited-set or scc proviso), one
// shared strategy object serves all workers — its select() must be
// thread-safe (guaranteed by needs_dfs_stack() == false, see explorer.hpp).
// The chosen sets then depend on visited-set contents at evaluation time, so
// the reduced state count varies with the schedule; the verdict does not.
//
// Counterexamples: every insert records the successor's parent entry and
// incoming event (and canonicalizing permutation) in the interned arena. The
// first violation captures {parent handle, final event}; after the pool
// drains, the parent walk (ShardedVisited::path_from_root) plus the final
// event is replayed through execute() into a TraceStep path. The frontier
// always carries concrete states, so the chain replays concretely even under
// symmetry; only fingerprint mode (which stores no states) yields no trace.

PoolDriver::PoolDriver(const Protocol& proto, const ExploreConfig& cfg,
                       ReductionStrategy* strategy)
    : core_(proto, cfg, strategy,
            cfg.visited == VisitedMode::kExact ? VisitedMode::kInterned
                                               : cfg.visited,
            std::clamp(cfg.threads, 1u, 256u)),
      proto_(proto),
      cfg_(cfg),
      threads_(std::clamp(cfg.threads, 1u, 256u)) {}

ExploreResult PoolDriver::run() {
  start_ = std::chrono::steady_clock::now();
  core_.begin_run();

  worker_stats_.assign(threads_, ExploreStats{});
  worker_terminals_.assign(threads_, {});

  State init = proto_.initial();
  if (const Property* p = proto_.violated_property(init)) {
    result_.verdict = Verdict::kViolated;
    result_.violated_property = p->name;
    if (cfg_.on_violation) cfg_.on_violation(p->name);
  } else {
    Fingerprint canon_fp;
    const VisitedInsert root =
        core_.insert_canonical(init, kNoHandle, nullptr, &canon_fp);
    Item* root_item = core_.worker(0).alloc();
    root_item->s = std::move(init);
    root_item->canon_fp = canon_fp;
    root_item->handle = root.handle;
    root_item->depth = 0;
    injector_.push_back(root_item);
    outstanding_.store(1, std::memory_order_relaxed);

    std::vector<std::thread> pool;
    pool.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      pool.emplace_back([this, w] { worker(w); });
    }
    for (std::thread& t : pool) t.join();
  }

  // Merge per-worker stats.
  for (const ExploreStats& st : worker_stats_) {
    result_.stats.states_visited += st.states_visited;
    result_.stats.events_executed += st.events_executed;
    result_.stats.events_selected += st.events_selected;
    result_.stats.events_enabled += st.events_enabled;
    result_.stats.terminal_states += st.terminal_states;
    result_.stats.full_expansions += st.full_expansions;
    result_.stats.max_depth_seen =
        std::max(result_.stats.max_depth_seen, st.max_depth_seen);
  }
  auto& tf = result_.terminal_fingerprints;
  for (auto& v : worker_terminals_) tf.insert(tf.end(), v.begin(), v.end());

  if (result_.verdict == Verdict::kViolated && pending_.armed &&
      visited_stores_graph(core_.visited().mode())) {
    std::vector<Event> events =
        core_.visited().graph().path_from_root(pending_.parent);
    events.push_back(pending_.last);
    result_.counterexample = replay_trace(proto_, events, core_.exec_opts());
  }

  const auto limit =
      static_cast<LimitKind>(limit_.load(std::memory_order_relaxed));
  if (core_.scc_pass_enabled() && result_.verdict == Verdict::kHolds &&
      limit == LimitKind::kNone) {
    core_.run_scc_ignoring_pass(result_, tf, cfg_.collect_terminals,
                                [this] { return time_limit_kind(); });
  }
  std::sort(tf.begin(), tf.end());
  tf.erase(std::unique(tf.begin(), tf.end()), tf.end());

  result_.stats.states_stored = core_.visited().size();
  result_.stats.visited_bytes = core_.visited().approx_bytes();
  result_.stats.threads_used = threads_;
  result_.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  core_.finish_stats(result_.stats);
  if (result_.verdict != Verdict::kViolated && limit != LimitKind::kNone) {
    result_.verdict = verdict_of(limit);
  }
  return std::move(result_);
}

void PoolDriver::worker(unsigned wid) {
  WorkerCtx& me = core_.worker(wid);
  ExploreStats& st = worker_stats_[wid];
  std::uint64_t tick = 0;
  unsigned idle = 0;
  for (;;) {
    if (stopped()) return;  // drop remaining work after a stop
    Item* item = me.deque.pop();
    if (item == nullptr) item = acquire_work(me, wid);
    if (item == nullptr) {
      if (outstanding_.load(std::memory_order_acquire) == 0) return;
      backoff(idle);
      continue;
    }
    idle = 0;
    expand(*item, me, st, worker_terminals_[wid]);
    me.release(item);
    if (++tick % 256 == 0) {
      if (const LimitKind lk = time_limit_kind(); lk != LimitKind::kNone) {
        signal_limit(lk);
      }
    }
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      return;  // last in-flight item: the search is exhausted
    }
  }
}

// Steal from random victims — one item normally, half a deep victim's deque
// when steal-half batching is configured — then fall back to the injector.
Item* PoolDriver::acquire_work(WorkerCtx& me, unsigned wid) {
  if (threads_ > 1) {
    const auto start = static_cast<unsigned>(me.next_rand() % threads_);
    for (unsigned k = 0; k < threads_; ++k) {
      const unsigned v = (start + k) % threads_;
      if (v == wid) continue;
      WorkerCtx& victim = core_.worker(v);
      if (cfg_.steal_half_threshold != 0 &&
          victim.deque.size_hint() >= cfg_.steal_half_threshold) {
        me.steal_buf.resize(kMaxStealBatch);
        const std::size_t got =
            victim.deque.steal_batch(me.steal_buf.data(), kMaxStealBatch);
        if (got > 0) {
          // Keep one, queue the rest locally; they stay outstanding.
          for (std::size_t i = 1; i < got; ++i) me.deque.push(me.steal_buf[i]);
          return me.steal_buf[0];
        }
        continue;
      }
      if (Item* it = victim.deque.steal()) return it;
    }
  }
  std::lock_guard<std::mutex> lk(inj_mu_);
  if (injector_.empty()) return nullptr;
  Item* it = injector_.back();
  injector_.pop_back();
  return it;
}

// Starvation backoff: yield first, then sleep in growing slices so an idle
// worker on an oversubscribed box stops eating the expanding workers'
// quanta. Termination latency is bounded by the longest slice (~1 ms).
void PoolDriver::backoff(unsigned& idle) {
  if (++idle < 16) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(
        std::chrono::microseconds(std::min(50u * (idle - 15), 1000u)));
  }
}

void PoolDriver::push_work(WorkerCtx& me, Item* succ) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (me.deque.size_hint() >= kInjectorOverflow) {
    std::lock_guard<std::mutex> lk(inj_mu_);
    injector_.push_back(succ);
  } else {
    me.deque.push(succ);
  }
}

void PoolDriver::expand(Item& item, WorkerCtx& me, ExploreStats& st,
                        std::vector<Fingerprint>& terminals) {
  ++st.states_visited;
  st.max_depth_seen = std::max(st.max_depth_seen, item.depth + 1);

  enumerate_events(proto_, item.s, me.enabled);
  st.events_enabled += me.enabled.size();
  if (me.enabled.empty()) {
    ++st.terminal_states;
    if (cfg_.collect_terminals) terminals.push_back(item.canon_fp);
    core_.record_full(me, item.handle);  // a terminal is trivially full
    return;
  }

  // The shared strategy evaluates its cycle proviso (if any) against the
  // global visited set — no DFS stack exists here; see por/spor.cpp for why
  // that probe is sound under concurrent inserts.
  bool reduced = false;
  const std::size_t n_selected =
      core_.select(item.s, me, st, /*on_stack=*/{}, /*stateless=*/false,
                   &reduced);
  if (n_selected == me.enabled.size()) core_.record_full(me, item.handle);

  for (std::size_t j = 0; j < n_selected; ++j) {
    if (stopped()) return;
    const Event& e = me.enabled[reduced ? me.idx[j] : j];
    Item* succ = me.alloc();
    execute_into(proto_, item.s, e, core_.exec_opts(), &me.failed, succ->s);
    ++st.events_executed;
    const std::uint64_t global_events =
        events_budget_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (global_events > cfg_.max_events) {
      me.release(succ);
      signal_limit(LimitKind::kBudget);
      return;
    }
    if (cfg_.on_progress && cfg_.progress_every_events != 0 &&
        global_events % cfg_.progress_every_events == 0) {
      emit_progress(global_events);
    }
    if (!me.failed.empty()) {
      record_violation(me.failed, item.handle, e);
      if (cfg_.stop_at_first_violation) {
        me.release(succ);
        return;
      }
    }

    // One canonicalization per successor; its cached fingerprint feeds the
    // visited probe and is carried along as the terminal fingerprint. The
    // insert threads the state graph: parent = the expanded item's entry.
    Fingerprint canon_fp;
    const VisitedInsert ins =
        core_.insert_canonical(succ->s, item.handle, &e, &canon_fp);
    core_.record_edge(me, item.handle, ins.handle);
    if (!ins.inserted) {
      me.release(succ);
      continue;
    }
    if (const LimitKind lk = state_limit_kind(); lk != LimitKind::kNone) {
      me.release(succ);
      signal_limit(lk);
      return;
    }
    if (const Property* p = proto_.violated_property(succ->s)) {
      record_violation(p->name, item.handle, e);
      me.release(succ);
      if (cfg_.stop_at_first_violation) return;
      continue;
    }
    succ->canon_fp = canon_fp;
    succ->handle = ins.handle;
    succ->depth = item.depth + 1;
    push_work(me, succ);
  }
}

void PoolDriver::record_violation(const std::string& property,
                                  StateHandle parent, const Event& last) {
  {
    std::lock_guard<std::mutex> lk(result_mu_);
    if (result_.verdict != Verdict::kViolated) {
      result_.verdict = Verdict::kViolated;
      result_.violated_property = property;
      // Trace seed for the winning violation: the parent entry plus the
      // final event; the violating endpoint is recomputed by the replay
      // (it may never have been interned — an assertion failure records
      // before any insert).
      pending_.parent = parent;
      pending_.last = last;
      pending_.armed = true;
    }
  }
  if (cfg_.on_violation) {
    // hooks_mu_ (not result_mu_) serializes this with emit_progress, as
    // the hook contract promises.
    std::lock_guard<std::mutex> lk(hooks_mu_);
    cfg_.on_violation(property);
  }
  if (cfg_.stop_at_first_violation) stop();
}

// Open items across the injector and every worker deque, computed on demand
// from the deques' own bounds — an approximate but never-negative snapshot.
std::uint64_t PoolDriver::frontier_size() const {
  std::uint64_t n = 0;
  {
    std::lock_guard<std::mutex> lk(inj_mu_);
    n = injector_.size();
  }
  for (unsigned i = 0; i < threads_; ++i) {
    n += core_.worker(i).deque.size_hint();
  }
  return n;
}

// Parallel progress snapshot: exact visited-set size and global event count;
// per-worker stats are not merged mid-run. hooks_mu_ serializes it against
// itself and against the violation hook.
void PoolDriver::emit_progress(std::uint64_t global_events) {
  std::lock_guard<std::mutex> lk(hooks_mu_);
  ExploreStats snap;
  snap.states_stored = core_.visited().size();
  snap.events_executed = global_events;
  snap.frontier = frontier_size();
  snap.threads_used = threads_;
  snap.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  cfg_.on_progress(snap);
}

void PoolDriver::signal_limit(LimitKind k) {
  std::uint8_t expected = 0;
  limit_.compare_exchange_strong(expected, static_cast<std::uint8_t>(k),
                                 std::memory_order_relaxed);
  stop();
}

LimitKind PoolDriver::state_limit_kind() const {
  if (cancel_requested(cfg_)) return LimitKind::kResource;
  const std::uint64_t stored = core_.visited().size();
  if ((cfg_.guard.max_states != 0 && stored > cfg_.guard.max_states) ||
      (cfg_.guard.max_memory_bytes != 0 &&
       core_.visited().approx_bytes() > cfg_.guard.max_memory_bytes)) {
    return LimitKind::kResource;
  }
  if (stored > cfg_.max_states) return LimitKind::kBudget;
  return LimitKind::kNone;
}

LimitKind PoolDriver::time_limit_kind() const {
  if (cancel_requested(cfg_)) return LimitKind::kResource;
  const double el = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  if (el > cfg_.guard.watchdog_seconds) return LimitKind::kResource;
  if (el > cfg_.max_seconds) return LimitKind::kBudget;
  return LimitKind::kNone;
}

// --- StackReplayDriver ------------------------------------------------------

StackReplayDriver::StackReplayDriver(const Protocol& proto,
                                     const ExploreConfig& cfg)
    // The DPOR form: stateless, so the core keeps no visited set — it still
    // provides the Item pool, scratch buffers and stats bookkeeping.
    : StackReplayDriver(proto, cfg, nullptr, VisitedMode::kFingerprint,
                        /*stateful=*/false) {}

StackReplayDriver::StackReplayDriver(const Protocol& proto,
                                     const ExploreConfig& cfg,
                                     ReductionStrategy* strategy,
                                     VisitedMode visited_mode, bool stateful)
    : core_(proto, cfg, strategy, visited_mode, /*n_workers=*/1),
      proto_(proto),
      cfg_(cfg),
      stateful_(stateful) {}

void StackReplayDriver::start() {
  start_ = std::chrono::steady_clock::now();
  core_.begin_run();
}

bool StackReplayDriver::check_violation(const State& s) {
  const Property* p = proto_.violated_property(s);
  if (p == nullptr) return false;
  result_.verdict = Verdict::kViolated;
  result_.violated_property = p->name;
  if (cfg_.on_violation) cfg_.on_violation(p->name);
  if (cfg_.stop_at_first_violation) done_ = true;
  return true;
}

void StackReplayDriver::record_assertion(const std::string& label) {
  result_.verdict = Verdict::kViolated;
  result_.violated_property = label;
  if (cfg_.on_violation) cfg_.on_violation(label);
}

// Stored-state count for budget/guard checks and stats: the visited set for
// stateful riders, the visit counter for stateless ones (where every walked
// node is "stored" only transiently on the stack).
std::uint64_t StackReplayDriver::stored_states() const {
  return stateful_ ? core_.visited().size() : result_.stats.states_visited;
}

LimitKind StackReplayDriver::over_limit() {
  if (cancel_requested(cfg_)) return LimitKind::kResource;
  const ResourceGuard& g = cfg_.guard;
  const std::uint64_t stored = stored_states();
  if (g.max_states != 0 && stored > g.max_states) return LimitKind::kResource;
  if (g.max_memory_bytes != 0 &&
      core_.visited().approx_bytes() > g.max_memory_bytes) {
    return LimitKind::kResource;
  }
  if (result_.stats.events_executed > cfg_.max_events) return LimitKind::kBudget;
  if (stored > cfg_.max_states) return LimitKind::kBudget;
  if (++budget_tick_ % 1024 == 0) return time_limit_kind();
  return LimitKind::kNone;
}

LimitKind StackReplayDriver::time_limit_kind() const {
  if (cancel_requested(cfg_)) return LimitKind::kResource;
  const double el = elapsed();
  if (el > cfg_.guard.watchdog_seconds) return LimitKind::kResource;
  if (el > cfg_.max_seconds) return LimitKind::kBudget;
  return LimitKind::kNone;
}

// Same progress-hook contract as the pool driver.
void StackReplayDriver::maybe_progress(std::uint64_t frontier) {
  if (!cfg_.on_progress || cfg_.progress_every_events == 0) return;
  if (result_.stats.events_executed % cfg_.progress_every_events != 0) return;
  ExploreStats snap = result_.stats;
  snap.states_stored = stored_states();
  snap.frontier = frontier;
  snap.seconds = elapsed();
  cfg_.on_progress(snap);
}

void StackReplayDriver::record_counterexample(std::span<const Event> events) {
  result_.counterexample = replay_trace(proto_, events, core_.exec_opts());
}

ExploreResult StackReplayDriver::finish() {
  result_.stats.seconds = elapsed();
  result_.stats.states_stored = stored_states();
  if (stateful_) result_.stats.visited_bytes = core_.visited().approx_bytes();
  core_.finish_stats(result_.stats);
  if (result_.verdict != Verdict::kViolated && limit_ != LimitKind::kNone) {
    result_.verdict = verdict_of(limit_);
  }
  auto& tf = result_.terminal_fingerprints;
  std::sort(tf.begin(), tf.end());
  tf.erase(std::unique(tf.begin(), tf.end()), tf.end());
  return std::move(result_);
}

double StackReplayDriver::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace mpb::engine
