#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "core/enabled.hpp"
#include "core/execute.hpp"
#include "por/spor.hpp"
#include "protocols/collector/collector.hpp"
#include "protocols/echo/echo.hpp"
#include "protocols/paxos/paxos.hpp"
#include "protocols/storage/storage.hpp"
#include "refine/refine.hpp"
#include "test_protocols.hpp"

namespace mpb {
namespace {

using testing::make_fig4_refined;
using testing::make_fig4_unrefined;
using testing::make_small_quorum;

ExploreResult run_spor(const Protocol& proto, SporOptions opts = {}) {
  SporStrategy strategy(proto, opts);
  ExploreConfig cfg;
  return explore(proto, cfg, &strategy);
}

TEST(Spor, Fig4RefinedReduces) {
  Protocol proto = make_fig4_refined();
  ExploreResult reduced = run_spor(proto);
  ExploreResult full = explore_full(proto);
  EXPECT_EQ(reduced.verdict, Verdict::kHolds);
  // Independent t1/t2: the reduced graph must be strictly smaller.
  EXPECT_LT(reduced.stats.states_stored, full.stats.states_stored);
}

TEST(Spor, Fig4UnrefinedCannotReduce) {
  Protocol proto = make_fig4_unrefined();
  ExploreResult reduced = run_spor(proto);
  ExploreResult full = explore_full(proto);
  // All nondeterminism lives in a single transition: both alternatives must
  // be explored and no event can be dropped.
  EXPECT_EQ(reduced.stats.states_stored, full.stats.states_stored);
}

TEST(Spor, StubbornSetContainsSeed) {
  Protocol proto = make_fig4_refined();
  SporStrategy strategy(proto);
  auto events = enumerate_events(proto, proto.initial());
  auto stubborn = strategy.stubborn_set(proto.initial(), events);
  ASSERT_FALSE(stubborn.empty());
  // Seed (highest priority) is t2 (priority 2).
  EXPECT_EQ(proto.transition(stubborn.front()).name,
            std::string("t2"));
}

TEST(Spor, StubbornSetOfIndependentSeedIsSingleton) {
  Protocol proto = make_fig4_refined();
  SporStrategy strategy(proto);
  auto events = enumerate_events(proto, proto.initial());
  auto stubborn = strategy.stubborn_set(proto.initial(), events);
  // t2 enables t3 (different process), t3's producers = {t2} (already in),
  // nothing else is dependent: {t2} suffices.
  EXPECT_EQ(stubborn.size(), 1u);
}

TEST(Spor, SelectsSubsetOfEvents) {
  Protocol proto = make_small_quorum();
  SporStrategy strategy(proto);
  ExploreConfig cfg;
  ExploreResult r = explore(proto, cfg, &strategy);
  EXPECT_LE(r.stats.events_selected, r.stats.events_enabled);
}

TEST(Spor, VerdictMatchesUnreducedOnSmallQuorum) {
  Protocol proto = make_small_quorum();
  EXPECT_EQ(run_spor(proto).verdict, explore_full(proto).verdict);
}

TEST(Spor, DeadlockPreservation) {
  // Every terminal state of the full search must appear in the reduced one.
  for (const Protocol& proto :
       {make_small_quorum(), make_fig4_refined(), make_fig4_unrefined(),
        protocols::make_collector({.senders = 4, .quorum = 2})}) {
    ExploreConfig cfg;
    cfg.collect_terminals = true;
    ExploreResult full = explore(proto, cfg, nullptr);
    SporStrategy strategy(proto);
    ExploreResult reduced = explore(proto, cfg, &strategy);
    EXPECT_EQ(full.terminal_fingerprints, reduced.terminal_fingerprints)
        << proto.name();
  }
}

TEST(Spor, ReducedStatesAreSubsetOfReachable) {
  Protocol proto = make_small_quorum();
  // Count: reduced stored states <= full stored states always.
  ExploreResult full = explore_full(proto);
  ExploreResult reduced = run_spor(proto);
  EXPECT_LE(reduced.stats.states_stored, full.stats.states_stored);
}

TEST(Spor, SeedHeuristicChangesSeed) {
  Protocol proto = make_fig4_refined();
  SporOptions opposite;  // default: highest priority
  SporOptions transaction;
  transaction.seed = SeedHeuristic::kTransaction;
  SporStrategy a(proto, opposite), b(proto, transaction);
  auto events = enumerate_events(proto, proto.initial());
  auto sa = a.stubborn_set(proto.initial(), events);
  auto sb = b.stubborn_set(proto.initial(), events);
  // Opposite-transaction seeds t2 (prio 2); transaction seeds t1 (prio 1).
  EXPECT_NE(proto.transition(sa.front()).name, proto.transition(sb.front()).name);
}

TEST(Spor, AllHeuristicsSoundOnPaxos) {
  Protocol proto = protocols::make_paxos(
      protocols::PaxosConfig{.proposers = 1, .acceptors = 3, .learners = 1});
  const Verdict expected = explore_full(proto).verdict;
  for (SeedHeuristic h : {SeedHeuristic::kOppositeTransaction,
                          SeedHeuristic::kTransaction, SeedHeuristic::kFirst}) {
    SporOptions opts;
    opts.seed = h;
    EXPECT_EQ(run_spor(proto, opts).verdict, expected) << to_string(h);
  }
}

TEST(Spor, NetModeNeverBeatsSoundness) {
  Protocol proto = protocols::make_collector({.senders = 4, .quorum = 3});
  SporOptions net;      // state_dependent_nes = true (LPOR-NET)
  SporOptions plain;
  plain.state_dependent_nes = false;  // plain LPOR
  ExploreConfig cfg;
  cfg.collect_terminals = true;
  SporStrategy snet(proto, net), splain(proto, plain);
  ExploreResult rnet = explore(proto, cfg, &snet);
  ExploreResult rplain = explore(proto, cfg, &splain);
  ExploreResult full = explore(proto, cfg, nullptr);
  EXPECT_EQ(rnet.terminal_fingerprints, full.terminal_fingerprints);
  EXPECT_EQ(rplain.terminal_fingerprints, full.terminal_fingerprints);
  // NET (state-dependent NES) can only shrink stubborn sets.
  EXPECT_LE(rnet.stats.events_selected, rplain.stats.events_selected);
}

// Two independent processes each setting a flag; the property is violated
// only in the intermediate state of one interleaving order. Without the
// visibility proviso the reduction would explore a single order and could
// miss the violating intermediate state.
Protocol make_visible_race() {
  mp::ProtocolBuilder b("visible-race");
  const ProcessId p = b.process("p", "P", {{"x", 0}});
  const ProcessId q = b.process("q", "Q", {{"y", 0}});
  b.transition(p, "PX")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .visible()
      .priority(2);
  b.transition(q, "QY")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .visible()
      .priority(1);
  // Violated exactly in the state where QY has fired but PX has not — the
  // seed heuristic prefers PX, so a proviso-less reduction misses it.
  b.property("qy_not_first", [=](const State& s, const Protocol& proto) {
    const Value x = s.local_slice(proto.proc(p).local_offset, 1)[0];
    const Value y = s.local_slice(proto.proc(q).local_offset, 1)[0];
    return !(y == 1 && x == 0);
  });
  return b.build();
}

TEST(Spor, VisibilityProvisoPreservesViolations) {
  Protocol proto = make_visible_race();
  EXPECT_EQ(explore_full(proto).verdict, Verdict::kViolated);
  EXPECT_EQ(run_spor(proto).verdict, Verdict::kViolated);
}

TEST(Spor, WithoutVisibilityProvisoTheViolationIsMissed) {
  // Documents *why* the proviso exists: disabling it on this model loses the
  // violating interleaving (this is not a supported configuration; the flag
  // exists for exactly this demonstration and the ablation bench).
  Protocol proto = make_visible_race();
  SporOptions opts;
  opts.visibility_proviso = false;
  EXPECT_EQ(run_spor(proto, opts).verdict, Verdict::kHolds);
}

TEST(Spor, HeuristicNames) {
  EXPECT_EQ(to_string(SeedHeuristic::kOppositeTransaction), "opposite-transaction");
  EXPECT_EQ(to_string(SeedHeuristic::kTransaction), "transaction");
  EXPECT_EQ(to_string(SeedHeuristic::kFirst), "first");
}

TEST(Spor, ProvisoNames) {
  EXPECT_EQ(to_string(CycleProviso::kAuto), "auto");
  EXPECT_EQ(to_string(CycleProviso::kStack), "stack");
  EXPECT_EQ(to_string(CycleProviso::kVisited), "visited");
  EXPECT_EQ(to_string(CycleProviso::kScc), "scc");
  EXPECT_EQ(to_string(CycleProviso::kOff), "off");
}

TEST(Spor, VisitedProvisoIsSoundSequentially) {
  // The visited-set proviso is strictly more conservative than the stack
  // proviso in a sequential DFS (the stack is a subset of the visited set),
  // so verdicts and terminal states must keep matching the full search.
  for (const Protocol& proto :
       {make_small_quorum(), make_fig4_refined(), make_visible_race(),
        protocols::make_collector({.senders = 4, .quorum = 2}),
        protocols::make_paxos({.proposers = 1, .acceptors = 3, .learners = 1})}) {
    ExploreConfig cfg;
    cfg.collect_terminals = true;
    const ExploreResult full = explore(proto, cfg, nullptr);
    SporOptions opts;
    opts.proviso = CycleProviso::kVisited;
    SporStrategy strategy(proto, opts);
    const ExploreResult reduced = explore(proto, cfg, &strategy);
    EXPECT_EQ(reduced.verdict, full.verdict) << proto.name();
    EXPECT_LE(reduced.stats.states_stored, full.stats.states_stored)
        << proto.name();
    if (full.verdict == Verdict::kHolds) {
      EXPECT_EQ(reduced.terminal_fingerprints, full.terminal_fingerprints)
          << proto.name();
    }
  }
}

// Three independent single-step processes; PA and QB are visible, so the
// visibility proviso forces {PA, QB} into one stubborn set at the root and
// the reduced graph keeps the PA/QB diamond. When the QB-first branch later
// selects {PA}, its successor is the diamond's already-visited join state —
// the visited-set cycle proviso must reject that candidate and fall back to
// the next seed ({RC}, whose successor is fresh).
Protocol make_diamond_join() {
  mp::ProtocolBuilder b("diamond-join");
  const ProcessId p = b.process("p", "P", {{"x", 0}});
  const ProcessId q = b.process("q", "Q", {{"y", 0}});
  const ProcessId r = b.process("r", "R", {{"z", 0}});
  b.transition(p, "PA")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .visible()
      .priority(3);
  b.transition(q, "QB")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .visible()
      .priority(2);
  b.transition(r, "RC")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); })
      .priority(1);
  return b.build();
}

TEST(Spor, VisitedProvisoCountsFallbacks) {
  Protocol proto = make_diamond_join();
  SporOptions opts;
  opts.proviso = CycleProviso::kVisited;
  SporStrategy strategy(proto, opts);
  ExploreConfig cfg;
  const ExploreResult first = explore(proto, cfg, &strategy);
  EXPECT_EQ(first.verdict, Verdict::kHolds);
  EXPECT_GT(first.stats.proviso_fallbacks, 0u);
  // Re-running with the same strategy object reports the delta, not the
  // lifetime total.
  const ExploreResult second = explore(proto, cfg, &strategy);
  EXPECT_EQ(second.stats.proviso_fallbacks, first.stats.proviso_fallbacks);
}

// --- select() against a brute-force reference -------------------------------
//
// The reference is the straightforward selection: per seed, a fresh closure
// run to its fixpoint, the visibility step, the chosen events, then the
// cycle proviso — no early exit, no memo, no scratch reuse. Its NES test
// collects the distinct allowed senders of the pending messages into a set.
// SporStrategy::select must return the identical index vector and count the
// identical proviso fallbacks on every reachable state.

bool reference_pool_insufficient(const Protocol& proto, const State& s,
                                 TransitionId tid) {
  const Transition& t = proto.transition(tid);
  if (t.arity == kSpontaneous) return false;
  std::set<ProcessId> senders;
  for (const Message& m : s.network()) {
    if (m.receiver() == t.proc && m.type() == t.in_type &&
        mask_contains(t.allowed_senders, m.sender())) {
      senders.insert(m.sender());
    }
  }
  if (t.arity == kPowersetArity || t.arity == 1) return senders.empty();
  return senders.size() < static_cast<std::size_t>(t.arity);
}

struct ReferenceSelect {
  const Protocol& proto;
  const StaticRelations& rel;
  SporOptions opts;
  std::uint64_t fallbacks = 0;

  void close_over(const State& s, const std::vector<char>& is_enabled,
                  std::vector<char>& in_set,
                  std::vector<TransitionId>& work) const {
    auto push = [&](TransitionId t) {
      if (!in_set[t]) {
        in_set[t] = 1;
        work.push_back(t);
      }
    };
    while (!work.empty()) {
      const TransitionId t = work.back();
      work.pop_back();
      if (is_enabled[t]) {
        for (TransitionId d : rel.dependents_of(t)) push(d);
      } else {
        const bool producers_suffice =
            opts.state_dependent_nes &&
            reference_pool_insufficient(proto, s, t);
        for (TransitionId p : rel.producers_of(t)) push(p);
        if (!producers_suffice) {
          for (TransitionId p : rel.local_enablers_of(t)) push(p);
        }
      }
    }
  }

  std::vector<std::size_t> select(const State& s, std::span<const Event> events,
                                  const StrategyContext& ctx) {
    std::vector<std::size_t> all(events.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    if (events.size() <= 1) return all;
    std::vector<TransitionId> enabled;
    for (const Event& e : events) {
      if (enabled.empty() || enabled.back() != e.tid) enabled.push_back(e.tid);
    }
    if (enabled.size() <= 1 && !proto.transition(enabled.front()).visible) {
      return all;
    }
    std::vector<char> is_enabled(rel.n_transitions(), 0);
    for (TransitionId t : enabled) is_enabled[t] = 1;

    std::vector<TransitionId> order = enabled;
    auto prio = [&](TransitionId t) { return proto.transition(t).priority; };
    if (opts.seed == SeedHeuristic::kOppositeTransaction) {
      std::stable_sort(order.begin(), order.end(),
                       [&](auto a, auto b) { return prio(a) > prio(b); });
    } else if (opts.seed == SeedHeuristic::kTransaction) {
      std::stable_sort(order.begin(), order.end(),
                       [&](auto a, auto b) { return prio(a) < prio(b); });
    }

    std::vector<std::size_t> best;
    bool have_best = false;
    for (TransitionId seed : order) {
      std::vector<char> in_set(rel.n_transitions(), 0);
      std::vector<TransitionId> work{seed};
      in_set[seed] = 1;
      close_over(s, is_enabled, in_set, work);
      if (opts.visibility_proviso) {
        bool executes_visible = false;
        for (TransitionId t : enabled) {
          executes_visible |= in_set[t] && proto.transition(t).visible;
        }
        if (executes_visible) {
          for (TransitionId t = 0; t < rel.n_transitions(); ++t) {
            if (proto.transition(t).visible && !in_set[t]) {
              in_set[t] = 1;
              work.push_back(t);
            }
          }
          close_over(s, is_enabled, in_set, work);
        }
      }
      std::vector<std::size_t> chosen;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (in_set[events[i].tid]) chosen.push_back(i);
      }
      if (chosen.size() >= events.size()) {
        if (!opts.seed_retry) break;
        continue;
      }
      // The test drives kStack (probe: on_stack) and kScc with a visited
      // probe (deferred: no in-search check).
      if (opts.proviso == CycleProviso::kStack) {
        bool closes_cycle = false;
        for (std::size_t i : chosen) {
          if (closes_cycle) break;
          closes_cycle = ctx.on_stack(ctx.successor(events[i]));
        }
        if (closes_cycle) {
          ++fallbacks;
          if (!opts.seed_retry) break;
          continue;
        }
      }
      if (!opts.exhaustive_seed) return chosen;
      if (!have_best || chosen.size() < best.size()) {
        best = std::move(chosen);
        have_best = true;
      }
    }
    return have_best ? best : all;
  }
};

struct SelectCase {
  std::string name;
  Protocol proto;
};

std::vector<SelectCase> select_cases() {
  using namespace protocols;
  const Protocol paxos =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  std::vector<SelectCase> cases;
  cases.push_back({"paxos_231", paxos});
  cases.push_back({"paxos_231_combined", refine::combined_split(paxos)});
  cases.push_back({"storage_312",
                   make_regular_storage({.bases = 3, .readers = 1, .writes = 2})});
  cases.push_back({"echo", make_echo_multicast({})});
  cases.push_back({"collector_noise",
                   make_collector({.senders = 3, .quorum = 2, .noise = 2})});
  return cases;
}

// A deterministic stand-in for the DFS stack: about half of all successors
// "close a cycle", so the fallback path runs on many states.
bool fake_on_stack(const State& s) { return (s.fingerprint().lo & 1) != 0; }

StrategyContext probe_context(const Protocol& proto, const State& s) {
  return StrategyContext{
      [&proto, &s](const Event& e) { return execute(proto, s, e); },
      fake_on_stack, [](const State&) { return false; }};
}

TEST(SoundnessSporSelect, MatchesReferenceOnEveryReachableState) {
  for (const SelectCase& c : select_cases()) {
    SCOPED_TRACE(c.name);
    std::uint64_t stack_fallbacks = 0;
    const std::vector<State> states = reachable_states(c.proto);
    ASSERT_FALSE(states.empty());
    std::vector<std::vector<Event>> events(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
      events[i] = enumerate_events(c.proto, states[i]);
    }
    for (const SeedHeuristic seed :
         {SeedHeuristic::kOppositeTransaction, SeedHeuristic::kTransaction,
          SeedHeuristic::kFirst}) {
      for (const bool net : {true, false}) {
        for (const bool exhaustive : {false, true}) {
          for (const CycleProviso proviso :
               {CycleProviso::kStack, CycleProviso::kScc}) {
            SporOptions opts;
            opts.seed = seed;
            opts.state_dependent_nes = net;
            opts.exhaustive_seed = exhaustive;
            opts.proviso = proviso;
            SCOPED_TRACE(std::string(to_string(seed)) + " net=" +
                         std::to_string(net) + " exhaustive=" +
                         std::to_string(exhaustive) + " proviso=" +
                         std::string(to_string(proviso)));
            SporStrategy strategy(c.proto, opts);
            ReferenceSelect ref{c.proto, strategy.relations(), opts};
            std::size_t reduced = 0;
            // Forward and backward, so that whatever one state leaves in the
            // per-thread scratch is followed by a state that differs.
            for (std::size_t k = 0; k < 2 * states.size(); ++k) {
              const std::size_t i =
                  k < states.size() ? k : 2 * states.size() - 1 - k;
              const StrategyContext ctx = probe_context(c.proto, states[i]);
              const std::vector<std::size_t> got =
                  strategy.select(states[i], events[i], ctx);
              const std::vector<std::size_t> want =
                  ref.select(states[i], events[i], ctx);
              ASSERT_EQ(got, want) << "state " << i;
              reduced += got.size() < events[i].size() ? 1 : 0;
            }
            EXPECT_EQ(strategy.proviso_fallbacks(), ref.fallbacks);
            stack_fallbacks += ref.fallbacks;
            // Every model reduces somewhere, so the comparison is not
            // vacuously between two full expansions.
            EXPECT_GT(reduced, 0u);
          }
        }
      }
    }
    EXPECT_GT(stack_fallbacks, 0u);  // the fallback path was compared too
  }
}

TEST(SoundnessSporSelect, StubbornSetIsTheReferenceClosureOfTheFirstSeed) {
  // stubborn_set shares select's closure routine; it must equal the
  // reference's full closure from the heuristic's preferred seed.
  const Protocol proto = refine::combined_split(
      protocols::make_paxos({.proposers = 2, .acceptors = 3, .learners = 1}));
  SporStrategy strategy(proto);
  const ReferenceSelect ref{proto, strategy.relations(), SporOptions{}};
  for (const State& s : reachable_states(proto)) {
    const std::vector<Event> events = enumerate_events(proto, s);
    if (events.empty()) continue;
    std::vector<TransitionId> enabled;
    for (const Event& e : events) {
      if (enabled.empty() || enabled.back() != e.tid) enabled.push_back(e.tid);
    }
    TransitionId seed = enabled.front();
    for (TransitionId t : enabled) {
      if (proto.transition(t).priority > proto.transition(seed).priority) {
        seed = t;
      }
    }
    std::vector<char> is_enabled(proto.n_transitions(), 0);
    for (TransitionId t : enabled) is_enabled[t] = 1;
    std::vector<char> in_set(proto.n_transitions(), 0);
    std::vector<TransitionId> work{seed};
    in_set[seed] = 1;
    ref.close_over(s, is_enabled, in_set, work);
    std::vector<TransitionId> want;
    for (TransitionId t : enabled) {
      if (in_set[t]) want.push_back(t);
    }
    ASSERT_EQ(strategy.stubborn_set(s, events), want);
  }
}

TEST(ParallelSporSelect, ConcurrentCallersMatchOneThread) {
  // select() keeps per-thread scratch; four threads sharing one strategy
  // (as pool workers do), each alternating with a second strategy over
  // another model on the same thread, must reproduce the sequential answers.
  const Protocol paxos = refine::combined_split(
      protocols::make_paxos({.proposers = 2, .acceptors = 3, .learners = 1}));
  const Protocol storage = protocols::make_regular_storage({});
  SporOptions opts;
  opts.proviso = CycleProviso::kScc;
  SporStrategy a(paxos, opts);
  SporStrategy b(storage, opts);
  struct Work {
    const Protocol& proto;
    SporStrategy& strategy;
    std::vector<State> states;
    std::vector<std::vector<Event>> events;
    std::vector<std::vector<std::size_t>> want;
  };
  std::vector<Work> work;
  work.push_back({paxos, a, reachable_states(paxos), {}, {}});
  work.push_back({storage, b, reachable_states(storage), {}, {}});
  for (Work& w : work) {
    for (const State& s : w.states) {
      w.events.push_back(enumerate_events(w.proto, s));
      w.want.push_back(
          w.strategy.select(s, w.events.back(), probe_context(w.proto, s)));
    }
  }
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t n = std::max(work[0].states.size(),
                                     work[1].states.size());
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k * 7 + t * 1013) % n;  // staggered orders
        for (Work& w : work) {
          if (i >= w.states.size()) continue;
          const auto got = w.strategy.select(
              w.states[i], w.events[i], probe_context(w.proto, w.states[i]));
          if (got != w.want[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace mpb
