// The unified exploration engine (core/engine.hpp): driver parity, the
// SCC-based ignoring fix, symmetry-aware parallel traces, steal-half
// batching and the progress-interval knob. Every suite here carries the
// `engine` ctest label and runs in the TSan lane (tools/run_tsan.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

#include "check/check.hpp"
#include "core/trace.hpp"
#include "core/visited.hpp"
#include "core/work_deque.hpp"
#include "harness/runner.hpp"
#include "mp/builder.hpp"
#include "por/spor.hpp"
#include "por/symmetry.hpp"
#include "protocols/collector/collector.hpp"
#include "protocols/paxos/paxos.hpp"
#include "protocols/storage/storage.hpp"

namespace mpb {
namespace {

using namespace protocols;

// A one-state cycle that *ignores* a transition: the spinner's PING consumes
// its token and re-sends it (successor == current state, a self-loop in the
// state graph), and the stubborn seed heuristic prefers PING (priority 2),
// whose closure {PING} excludes the independent STEP. With no cycle proviso
// STEP is postponed forever around the loop and its violation is missed —
// exactly the ignoring problem the SCC pass repairs.
Protocol make_ignored_cycle() {
  mp::ProtocolBuilder b("ignored-cycle");
  const MsgType mTOK = b.msg("TOK");
  const ProcessId p = b.process("spinner", "Spin", {});
  const ProcessId q = b.process("stepper", "Step", {{"done", 0}});
  b.transition(p, "PING")
      .consumes("TOK", 1)
      .from(mask_of(p))
      .effect([=](EffectCtx& c) { c.send(p, mTOK, {0}); })
      .sends("TOK", mask_of(p))
      .reads_local(false)
      .writes_local(false)
      .priority(2);
  b.transition(q, "STEP")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .visible()
      .priority(1);
  b.property("never_done", [q](const State& s, const Protocol& pr) {
    auto loc = s.local_slice(pr.proc(q).local_offset, pr.proc(q).local_len);
    return loc[0] == 0;
  });
  b.initial_message(Message(mTOK, p, p, {0}));
  return b.build();
}

// --- the SCC ignoring fix ---------------------------------------------------

TEST(EngineSccProviso, StatePinsAcrossProvisosOnPaxos231) {
  // The committed soundness pins: paxos(2,3,1) spor/stack t1 = 9,867; the
  // visited proviso loses the whole reduction on this model (9,945 = the
  // full graph); scc recovers it exactly without needing the DFS stack.
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  auto run_with = [&](CycleProviso proviso, unsigned threads) {
    SporOptions opts;
    opts.proviso = proviso;
    SporStrategy strategy(proto, opts);
    ExploreConfig cfg;
    cfg.threads = threads;
    cfg.visited = VisitedMode::kInterned;
    return explore(proto, cfg, &strategy);
  };

  const ExploreResult stack = run_with(CycleProviso::kStack, 1);
  EXPECT_EQ(stack.verdict, Verdict::kHolds);
  EXPECT_EQ(stack.stats.states_stored, 9867u);

  const ExploreResult visited = run_with(CycleProviso::kVisited, 1);
  EXPECT_EQ(visited.verdict, Verdict::kHolds);
  EXPECT_EQ(visited.stats.states_stored, 9945u);
  EXPECT_GT(visited.stats.proviso_fallbacks, 0u);

  const ExploreResult scc = run_with(CycleProviso::kScc, 1);
  EXPECT_EQ(scc.verdict, Verdict::kHolds);
  EXPECT_EQ(scc.stats.states_stored, 9867u);
  EXPECT_LE(scc.stats.states_stored, visited.stats.states_stored);
  EXPECT_EQ(scc.stats.scc_reexpansions, 0u);  // the reduced graph is acyclic
  EXPECT_GT(scc.stats.scc_pass_ms, 0.0);      // the pass ran and was timed

  // Unlike stack/visited, the scc proviso's ample-set choice never consults
  // schedule-dependent search state (the cycle check is a post-pass), so the
  // reduced graph — and the 9,867 pin — is identical at every thread count.
  // The pool runs intern into several visited shards, so the SCC pass's
  // dense numbering spans many shard bases there.
  for (unsigned threads : {2u, 8u}) {
    const ExploreResult par = run_with(CycleProviso::kScc, threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(par.verdict, Verdict::kHolds);
    EXPECT_EQ(par.stats.threads_used, threads);
    EXPECT_EQ(par.stats.states_stored, 9867u);
    EXPECT_EQ(par.stats.scc_reexpansions, 0u);
    EXPECT_GT(par.stats.scc_pass_ms, 0.0);
  }
}

TEST(EngineSccProviso, CollapseStoragePinsMatchInterned) {
  // The SCC pass numbers vertices from the collapse arenas too; the pin and
  // the empty repair set must not depend on the storage mode.
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  for (unsigned threads : {1u, 4u}) {
    SporOptions opts;
    opts.proviso = CycleProviso::kScc;
    SporStrategy strategy(proto, opts);
    ExploreConfig cfg;
    cfg.threads = threads;
    cfg.visited = VisitedMode::kCollapse;
    const ExploreResult r = explore(proto, cfg, &strategy);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(r.verdict, Verdict::kHolds);
    EXPECT_EQ(r.stats.states_stored, 9867u);
    EXPECT_EQ(r.stats.scc_reexpansions, 0u);
    EXPECT_GT(r.stats.scc_pass_ms, 0.0);
  }
}

TEST(EngineSccProviso, IgnoredCycleIsRepaired) {
  const Protocol proto = make_ignored_cycle();
  const ExploreResult full = explore(proto, ExploreConfig{});
  ASSERT_EQ(full.verdict, Verdict::kViolated);
  EXPECT_EQ(full.violated_property, "never_done");

  // No cycle proviso at all: the self-loop ignores STEP forever and the
  // violation is missed — the unsoundness the pass exists to repair.
  {
    SporOptions opts;
    opts.proviso = CycleProviso::kOff;
    SporStrategy strategy(proto, opts);
    const ExploreResult off = explore(proto, ExploreConfig{}, &strategy);
    EXPECT_EQ(off.verdict, Verdict::kHolds);
    EXPECT_EQ(off.stats.states_stored, 1u);
  }

  // The SCC pass detects the {init} self-loop SCC with no fully expanded
  // member, re-expands it, executes STEP and finds the violation — with a
  // replayable trace, sequentially and on the pool, over either graph
  // storage.
  for (const VisitedMode mode :
       {VisitedMode::kInterned, VisitedMode::kCollapse}) {
    for (unsigned threads : {1u, 8u}) {
      SporOptions opts;
      opts.proviso = CycleProviso::kScc;
      SporStrategy strategy(proto, opts);
      ExploreConfig cfg;
      cfg.threads = threads;
      cfg.visited = mode;
      const ExploreResult scc = explore(proto, cfg, &strategy);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " visited=" +
                   std::string(to_string(mode)));
      EXPECT_EQ(scc.verdict, Verdict::kViolated);
      EXPECT_EQ(scc.violated_property, "never_done");
      EXPECT_GE(scc.stats.scc_reexpansions, 1u);
      ASSERT_FALSE(scc.counterexample.empty());
      EXPECT_TRUE(replay_counterexample(proto, scc));
    }
  }
}

TEST(EngineSccProviso, SccDegradesSoundlyWhereNoPassRuns) {
  // A stateless search supplies no visited probe and gets no SCC pass, so
  // kScc must not silently behave like kOff: it degrades to the sound
  // fallback (full expansion) and still finds the violation.
  const Protocol proto = make_ignored_cycle();
  SporOptions opts;
  opts.proviso = CycleProviso::kScc;
  SporStrategy strategy(proto, opts);
  ExploreConfig cfg;
  cfg.mode = SearchMode::kStateless;
  const ExploreResult r = explore(proto, cfg, &strategy);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.violated_property, "never_done");
  EXPECT_GT(r.stats.proviso_fallbacks, 0u);
}

TEST(EngineSccProviso, SccIsSoundOnRealModels) {
  // Verdicts and terminal (deadlock) sets must match the full search — the
  // deadlock-preservation invariant every proviso has to keep.
  for (const Protocol& proto :
       {make_paxos({.proposers = 1, .acceptors = 3, .learners = 1}),
        make_regular_storage({.bases = 3, .readers = 1, .writes = 2}),
        make_collector({.senders = 4, .quorum = 2})}) {
    ExploreConfig full_cfg;
    full_cfg.collect_terminals = true;
    const ExploreResult full = explore(proto, full_cfg, nullptr);

    SporOptions scc_opts;
    scc_opts.proviso = CycleProviso::kScc;
    SporStrategy scc_strategy(proto, scc_opts);
    const ExploreResult scc = explore(proto, full_cfg, &scc_strategy);

    SporOptions vis_opts;
    vis_opts.proviso = CycleProviso::kVisited;
    SporStrategy vis_strategy(proto, vis_opts);
    const ExploreResult vis = explore(proto, full_cfg, &vis_strategy);

    SCOPED_TRACE(proto.name());
    EXPECT_EQ(scc.verdict, full.verdict);
    EXPECT_EQ(scc.terminal_fingerprints, full.terminal_fingerprints);
    EXPECT_LE(scc.stats.states_stored, full.stats.states_stored);
    // The acceptance bound: scc never stores more than the visited proviso
    // (both sequential runs are deterministic).
    EXPECT_LE(scc.stats.states_stored, vis.stats.states_stored);
  }
}

TEST(EngineSccProviso, FacadeReportsSccAndForcesInterned) {
  check::CheckRequest req;
  req.model = "paxos";
  req.params = {{"proposers", "2"}, {"acceptors", "3"}, {"learners", "1"}};
  req.strategy = "spor";
  req.spor.proviso = CycleProviso::kScc;
  req.explore.visited = VisitedMode::kFingerprint;  // upgraded: scc needs graph
  const check::CheckResult r = check::run_check(std::move(req));
  EXPECT_EQ(r.verdict(), Verdict::kHolds);
  EXPECT_EQ(r.proviso, "scc");
  EXPECT_EQ(r.visited, "interned");
  EXPECT_EQ(r.stats().states_stored, 9867u);
}

// --- symmetry-aware traces --------------------------------------------------

TEST(EngineSymmetryTrace, CanonicalizeWithPermRoundTrips) {
  const PaxosConfig pcfg{.proposers = 1, .acceptors = 3, .learners = 1};
  const Protocol proto = make_paxos(pcfg);
  const SymmetryReducer sym(proto, paxos_symmetric_roles(pcfg));

  // Walk a few levels of the graph and check, for every state, that the
  // reported permutation really is the one that produced the canonical
  // representative, and that its inverse takes it back.
  std::vector<State> frontier{proto.initial()};
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<State> next;
    for (const State& s : frontier) {
      std::uint32_t k = ~0u;
      const State canon = sym.canonicalize_with_perm(s, &k);
      EXPECT_LT(k, sym.orbit_bound());
      EXPECT_EQ(canon, sym.canonicalize(s));
      EXPECT_EQ(sym.apply_perm(k, s), canon);
      EXPECT_EQ(sym.apply_inverse_perm(k, canon), s);
      for (const Event& e : enumerate_events(proto, s)) {
        next.push_back(execute(proto, s, e));
      }
    }
    frontier = std::move(next);
  }
}

TEST(EngineSymmetryTrace, InternedEntriesRecordThePermutation) {
  const Protocol proto =
      make_paxos({.proposers = 1, .acceptors = 3, .learners = 1});
  ShardedVisited visited(VisitedMode::kInterned, 4);
  const State s = proto.initial();
  const VisitedInsert ins =
      visited.insert(s, s.fingerprint(), kNoHandle, nullptr, /*perm=*/3);
  ASSERT_TRUE(ins.inserted);
  EXPECT_EQ(visited.perm_of(ins.handle), 3u);
  EXPECT_EQ(visited.perm_of(kNoHandle), 0u);
}

TEST(EngineSymmetryTrace, ParallelSymmetryTraceReplaysStepForStep) {
  // The acceptance path: a violating, *behaviourally symmetric* model
  // (single-message faulty Paxos: the learner consumes one message at a
  // time, so acceptor permutations are true automorphisms), searched on the
  // pool under canonicalization — the trace must replay concretely.
  const PaxosConfig pcfg{.proposers = 2, .acceptors = 3, .learners = 1,
                         .quorum_model = false, .faulty_learner = true};
  const Protocol proto = make_paxos(pcfg);
  const SymmetryReducer sym(proto, paxos_symmetric_roles(pcfg));

  ExploreConfig seq_cfg;
  seq_cfg.canonicalize = [&sym](const State& s) { return sym.canonicalize(s); };
  const ExploreResult seq = explore(proto, seq_cfg);
  ASSERT_EQ(seq.verdict, Verdict::kViolated);

  ExploreConfig cfg = seq_cfg;
  cfg.canonicalize_perm = [&sym](const State& s, std::uint32_t& perm) {
    return sym.canonicalize_with_perm(s, &perm);
  };
  cfg.threads = 8;
  cfg.visited = VisitedMode::kInterned;
  const ExploreResult par = explore(proto, cfg);
  ASSERT_EQ(par.verdict, Verdict::kViolated);
  EXPECT_EQ(par.violated_property, seq.violated_property);
  ASSERT_FALSE(par.counterexample.empty());

  // Step-for-step: every recorded state is reproduced exactly by execute()
  // from the initial state — the trace is a concrete run, not a chain of
  // canonical representatives.
  State s = proto.initial();
  std::string failed;
  for (const TraceStep& step : par.counterexample) {
    failed.clear();
    s = execute(proto, s, step.event, {}, &failed);
    ASSERT_EQ(s, step.after);
  }
  const Property* p = proto.find_property(par.violated_property);
  const bool property_violated = p != nullptr && !p->holds(s, proto);
  EXPECT_TRUE(property_violated || failed == par.violated_property);
  EXPECT_TRUE(replay_counterexample(proto, par));
}

TEST(EngineSymmetryTrace, FacadeSymmetryParallelTraceReplaysOk) {
  check::CheckRequest req;
  req.model = "paxos";
  req.params = {{"faulty", "true"}, {"single-message", "true"}};
  req.symmetry = true;
  req.strategy = "full";
  req.explore.threads = 8;
  req.explore.visited = VisitedMode::kInterned;
  const check::CheckResult r = check::run_check(std::move(req));
  ASSERT_EQ(r.verdict(), Verdict::kViolated);
  EXPECT_TRUE(r.symmetry);
  ASSERT_FALSE(r.result.counterexample.empty());
  EXPECT_TRUE(replay_counterexample(r.protocol, r.result));
}

// --- steal-half batching ----------------------------------------------------

TEST(EngineStealHalf, BatchTakesHalfOfTheVictim) {
  WorkStealingDeque<int> d;
  int vals[10];
  for (int i = 0; i < 10; ++i) {
    vals[i] = i;
    d.push(&vals[i]);
  }
  int* out[64] = {};
  // ⌈(10+1)/2⌉ = 5 items in one visit, FIFO from the top.
  EXPECT_EQ(d.steal_batch(out, 64), 5u);
  EXPECT_EQ(*out[0], 0);
  EXPECT_EQ(*out[4], 4);
  // The cap bounds the batch even on a deep deque.
  EXPECT_EQ(d.steal_batch(out, 2), 2u);
  EXPECT_EQ(*out[0], 5);
  // Owner keeps LIFO access to the remainder.
  EXPECT_EQ(*d.pop(), 9);
  EXPECT_EQ(d.steal_batch(out, 64), 1u);  // ⌈(2+1)/2⌉
  EXPECT_EQ(*out[0], 7);
  EXPECT_EQ(*d.pop(), 8);
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal_batch(out, 64), 0u);
}

TEST(EngineStealHalf, ConcurrentBatchesExtractExactlyOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  WorkStealingDeque<int> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);
  std::atomic<int> extracted{0};

  auto take = [&](int* item) {
    seen[static_cast<std::size_t>(*item)].fetch_add(1);
    extracted.fetch_add(1);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  std::atomic<bool> go{false};
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      int* out[8];
      while (extracted.load() < kItems) {
        const std::size_t got = d.steal_batch(out, 8);
        for (std::size_t i = 0; i < got; ++i) take(out[i]);
        if (got == 0) std::this_thread::yield();
      }
    });
  }

  // Owner: push everything, then drain from the bottom against the thieves.
  for (int i = 0; i < kItems; ++i) {
    vals[static_cast<std::size_t>(i)] = i;
    d.push(&vals[static_cast<std::size_t>(i)]);
  }
  go.store(true);
  while (extracted.load() < kItems) {
    if (int* item = d.pop()) take(item);
  }
  for (auto& t : thieves) t.join();

  EXPECT_EQ(extracted.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(EngineStealHalf, PoolCountsUnchangedWithStealHalfOn) {
  // Batching changes scheduling only: the schedule-independent statistics of
  // an unreduced parallel search must stay identical to the sequential run.
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  ExploreConfig seq_cfg;
  seq_cfg.collect_terminals = true;
  const ExploreResult seq = explore(proto, seq_cfg);

  ExploreConfig cfg = seq_cfg;
  cfg.threads = 8;
  cfg.visited = VisitedMode::kInterned;
  cfg.steal_half_threshold = 1;  // batch on every steal
  const ExploreResult par = explore(proto, cfg);
  EXPECT_EQ(par.verdict, seq.verdict);
  EXPECT_EQ(par.stats.states_stored, seq.stats.states_stored);
  EXPECT_EQ(par.stats.events_executed, seq.stats.events_executed);
  EXPECT_EQ(par.stats.terminal_states, seq.stats.terminal_states);
  EXPECT_EQ(par.terminal_fingerprints, seq.terminal_fingerprints);
}

// --- the progress-interval knob ---------------------------------------------

TEST(EngineProgress, IntervalFromEnvParsesAndClamps) {
  unsetenv("MPB_PROGRESS_INTERVAL");
  EXPECT_DOUBLE_EQ(harness::progress_interval_from_env(), 0.5);
  setenv("MPB_PROGRESS_INTERVAL", "100", 1);
  EXPECT_DOUBLE_EQ(harness::progress_interval_from_env(), 0.1);
  setenv("MPB_PROGRESS_INTERVAL", "-5", 1);
  EXPECT_DOUBLE_EQ(harness::progress_interval_from_env(), 0.0);
  setenv("MPB_PROGRESS_INTERVAL", "bogus", 1);
  EXPECT_DOUBLE_EQ(harness::progress_interval_from_env(), 0.5);
  unsetenv("MPB_PROGRESS_INTERVAL");
}

}  // namespace
}  // namespace mpb
