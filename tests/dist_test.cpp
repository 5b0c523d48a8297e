// The distributed driver (src/dist): frame codecs, the mesh primitives
// (batching, credits, the Safra/Mattern termination token), rank-count
// parity against the committed soundness pins, cross-process traces, the
// distributed SCC repair rounds, and rank-death handling. Every suite here
// carries the `dist` ctest label and runs in the TSan lane — the test
// process is single-threaded whenever it forks ranks.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/trace.hpp"
#include "dist/dist.hpp"
#include "dist/frame.hpp"
#include "dist/mesh.hpp"
#include "mp/builder.hpp"
#include "por/spor.hpp"
#include "protocols/paxos/paxos.hpp"

namespace mpb {
namespace {

using namespace protocols;

// --- frame codecs -----------------------------------------------------------

TEST(DistWire, ScalarAndStringRoundTrip) {
  dist::FrameWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(2.5);
  w.str("counterexample");
  w.fingerprint({0xfeedface00000001ULL, 0x2ULL});

  dist::FrameCursor c(w.bytes());
  EXPECT_EQ(c.u8(), 0xab);
  EXPECT_EQ(c.u16(), 0x1234);
  EXPECT_EQ(c.u32(), 0xdeadbeefu);
  EXPECT_EQ(c.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(c.i64(), -42);
  EXPECT_EQ(c.f64(), 2.5);
  EXPECT_EQ(c.str(), "counterexample");
  const Fingerprint fp = c.fingerprint();
  EXPECT_EQ(fp.hi, 0xfeedface00000001ULL);
  EXPECT_EQ(fp.lo, 0x2ULL);
  EXPECT_TRUE(c.done());
}

TEST(DistWire, StateEventMessageRoundTrip) {
  // A real model state (paxos initial: nonempty locals and network) and a
  // synthetic multi-message event must survive the wire byte-exactly —
  // forwarded successors are inserted from exactly these bytes.
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  const State& init = proto.initial();

  Event e;
  e.tid = 7;
  e.consumed.push_back(Message(3, 1, 2, {40, 41}));
  e.consumed.push_back(Message(5, 0, 4, {}));

  dist::FrameWriter w;
  w.state(init);
  w.event(e);

  dist::FrameCursor c(w.bytes());
  const State back = c.state();
  const Event eback = c.event();
  EXPECT_TRUE(c.done());
  EXPECT_EQ(back, init);
  EXPECT_EQ(eback, e);
}

TEST(DistWire, TruncatedPayloadThrowsNotReadsGarbage) {
  dist::FrameWriter w;
  w.u64(77);
  const auto& b = w.bytes();
  dist::FrameCursor c(std::span<const std::byte>(b.data(), 3));
  EXPECT_THROW((void)c.u64(), dist::DistError);
  // A lying string length must not read past the end either.
  dist::FrameWriter w2;
  w2.u32(1000);  // claims 1000 bytes follow; none do
  dist::FrameCursor c2(w2.bytes());
  EXPECT_THROW((void)c2.str(), dist::DistError);
}

TEST(DistWire, GlobalHandleRoundTripAndOwnerPartition) {
  const StateHandle local = (StateHandle{3} << 48) | 424242u;
  for (unsigned rank : {0u, 1u, 5u, 63u}) {
    const StateHandle g = dist::to_global(local, rank);
    EXPECT_EQ(dist::rank_of(g), rank);
    EXPECT_EQ(dist::to_local(g), local);
  }
  // kNoHandle is rank-less and must stay itself in both directions.
  EXPECT_EQ(dist::to_global(kNoHandle, 7), kNoHandle);
  EXPECT_EQ(dist::to_local(kNoHandle), kNoHandle);

  // The owner partition is a pure function of the fingerprint's high bits.
  const Fingerprint fp{0xab00000000001234ULL, 99};
  for (unsigned n : {1u, 2u, 4u, 64u}) {
    EXPECT_EQ(dist::owner_of(fp, n), (fp.hi >> 56) % n);
    EXPECT_LT(dist::owner_of(fp, n), n);
  }
}

// --- the framed connection --------------------------------------------------

TEST(DistConn, FramesSurviveTheSocketIncludingLargeOnes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::FrameConn a(fds[0]);
  dist::FrameConn b(fds[1]);

  dist::FrameWriter small;
  small.u32(1);
  a.send(dist::FrameType::kCredit, small.bytes());

  // Larger than both the drain chunk (16 KiB) and the default socket
  // buffer, so delivery needs several flush/drain rounds.
  dist::FrameWriter big;
  for (std::uint32_t i = 0; i < 100'000; ++i) big.u32(i);
  a.send(dist::FrameType::kBatch, big.bytes());

  std::vector<dist::Frame> got;
  for (int spin = 0; spin < 10'000 && got.size() < 2; ++spin) {
    ASSERT_TRUE(a.flush());
    ASSERT_TRUE(b.drain(&got));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, dist::FrameType::kCredit);
  EXPECT_EQ(got[0].payload.size(), 4u);
  EXPECT_EQ(got[1].type, dist::FrameType::kBatch);
  ASSERT_EQ(got[1].payload.size(), 400'000u);
  dist::FrameCursor c(got[1].payload);
  EXPECT_EQ(c.u32(), 0u);

  EXPECT_GE(a.bytes_queued(),
            400'000u + 4u + 2 * dist::kFrameHeaderBytes);

  // Peer teardown surfaces as drain() == false, never a hang.
  ::close(fds[0]);
  EXPECT_FALSE(b.drain(&got));
  EXPECT_TRUE(b.dead());
  ::close(fds[1]);
}

// --- batching ---------------------------------------------------------------

TEST(DistBatch, SizeTriggerFlushesAtTargetEntries) {
  dist::Batcher b(/*max_entries=*/4, /*max_age_us=*/1'000'000);
  dist::FrameWriter entry;
  entry.u64(0x11);
  for (int i = 0; i < 3; ++i) b.add(entry, /*now_us=*/0);
  EXPECT_FALSE(b.should_flush(/*now_us=*/1));
  b.add(entry, /*now_us=*/2);
  EXPECT_TRUE(b.should_flush(/*now_us=*/2));  // size, not age

  const std::vector<std::byte> payload = b.take();
  dist::FrameCursor c(payload);
  EXPECT_EQ(c.u32(), 4u);
  EXPECT_EQ(c.remaining(), 4 * 8u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.should_flush(/*now_us=*/999'999'999));  // empty never flushes
}

TEST(DistBatch, AgeTriggerFlushesAnUndersizedBatch) {
  // Timestamps are injected, so the timer trigger is tested without sleeping.
  dist::Batcher b(/*max_entries=*/64, /*max_age_us=*/2'000);
  dist::FrameWriter entry;
  entry.u32(7);
  b.add(entry, /*now_us=*/10'000);
  EXPECT_FALSE(b.should_flush(/*now_us=*/11'999));
  EXPECT_TRUE(b.should_flush(/*now_us=*/12'000));

  // The age clock restarts with the first entry of the next batch.
  (void)b.take();
  b.add(entry, /*now_us=*/50'000);
  EXPECT_FALSE(b.should_flush(/*now_us=*/51'000));
  EXPECT_TRUE(b.should_flush(/*now_us=*/52'500));
}

// --- termination detection --------------------------------------------------

TEST(DistToken, InFlightEntryDefersTerminationUntilDelivered) {
  // Three idle ranks, one forwarded entry from rank 0 still in flight to
  // rank 2. The token must keep circulating — terminating here would lose
  // the entry's whole subtree — until the delivery is counted and a fully
  // white round completes.
  dist::SafraToken t0(0, 3), t1(1, 3), t2(2, 3);
  t0.on_sent(1);  // the in-flight entry

  dist::SafraToken::TokenOut out{};
  auto pass = [&](dist::SafraToken& from, dist::SafraToken& to,
                  unsigned expect_to) {
    EXPECT_EQ(from.poll_idle(&out), dist::SafraToken::Action::kForward);
    EXPECT_EQ(out.to, expect_to);
    to.on_token(out.q, out.black);
  };

  // Round 1: everyone is idle but the counts cannot balance.
  pass(t0, t1, 1);
  pass(t1, t2, 2);
  pass(t2, t0, 0);  // q = 0, white — but rank 0's own c = +1
  EXPECT_EQ(t0.poll_idle(&out), dist::SafraToken::Action::kForward);

  // The entry lands: rank 2 turns black for one round.
  t2.on_received(1);
  t1.on_token(out.q, out.black);
  pass(t1, t2, 2);
  pass(t2, t0, 0);  // black token — round 2 cannot terminate
  EXPECT_EQ(t0.poll_idle(&out), dist::SafraToken::Action::kForward);

  // Round 3: all white, q = -1 balances rank 0's c = +1 → quiescent.
  t1.on_token(out.q, out.black);
  pass(t1, t2, 2);
  pass(t2, t0, 0);
  EXPECT_EQ(t0.poll_idle(&out), dist::SafraToken::Action::kTerminate);
}

TEST(DistToken, SingleRankTerminatesImmediately) {
  dist::SafraToken t(0, 1);
  dist::SafraToken::TokenOut out{};
  EXPECT_EQ(t.poll_idle(&out), dist::SafraToken::Action::kTerminate);
}

// --- end-to-end searches ----------------------------------------------------

// A one-state self-loop that ignores an independent transition forever; the
// SCC pass must re-expand it and surface the violation (the same model
// engine_test.cpp uses for the in-process pass).
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

TEST(DistSearch, FullSearchPinsHoldAtEveryRankCount) {
  // The committed soundness pin: paxos(2,3,1) full = 9,945 states, whatever
  // the partition — forwarding must lose and duplicate nothing.
  for (unsigned ranks : {1u, 2u, 4u}) {
    check::CheckRequest req;
    req.model = "paxos";
    req.params = {{"proposers", "2"}, {"acceptors", "3"}, {"learners", "1"}};
    req.strategy = "full";
    req.dist_ranks = ranks;
    const check::CheckResult r = check::run_check(std::move(req));
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    EXPECT_EQ(r.verdict(), Verdict::kHolds);
    EXPECT_EQ(r.stats().states_stored, 9945u);
    EXPECT_EQ(r.stats().events_executed, 20826u);
    EXPECT_EQ(r.threads, ranks);
    if (ranks > 1) {
      EXPECT_GT(r.stats().forwarded_states, 0u);
      EXPECT_GT(r.stats().forward_batches, 0u);
      EXPECT_GT(r.stats().wire_bytes, 0u);
    } else {
      EXPECT_EQ(r.stats().forwarded_states, 0u);
    }
  }
}

TEST(DistSearch, SymmetricSearchMatchesSequentialAtEveryRankCount) {
  // Under symmetry every rank routes by the canonical fingerprint and
  // canonicalizes before inserting, so a lone rank and a partitioned pair
  // must both store exactly the sequential orbit count.
  const auto run = [](unsigned ranks) {
    check::CheckRequest req;
    req.model = "paxos";
    req.params = {{"proposers", "2"}, {"acceptors", "3"}, {"learners", "1"}};
    req.strategy = "full";
    req.symmetry = true;
    req.dist_ranks = ranks;
    return check::run_check(std::move(req));
  };
  const check::CheckResult ref = run(0);
  ASSERT_EQ(ref.verdict(), Verdict::kHolds);
  ASSERT_LT(ref.stats().states_stored, 9945u);  // symmetry reduced
  for (unsigned ranks : {1u, 2u}) {
    const check::CheckResult r = run(ranks);
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    EXPECT_EQ(r.verdict(), Verdict::kHolds);
    EXPECT_EQ(r.stats().states_stored, ref.stats().states_stored);
    EXPECT_GT(r.stats().seconds, 0.0);
  }
}

TEST(DistSearch, SporSccReductionPinHoldsAcrossRanks) {
  // spor under the SCC proviso: the reduced graph is schedule-independent,
  // so the 9,867 pin must reproduce at every rank count too.
  for (unsigned ranks : {2u, 4u}) {
    check::CheckRequest req;
    req.model = "paxos";
    req.params = {{"proposers", "2"}, {"acceptors", "3"}, {"learners", "1"}};
    req.strategy = "spor";
    req.spor.proviso = CycleProviso::kScc;
    req.dist_ranks = ranks;
    const check::CheckResult r = check::run_check(std::move(req));
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    EXPECT_EQ(r.verdict(), Verdict::kHolds);
    EXPECT_EQ(r.stats().states_stored, 9867u);
    EXPECT_EQ(r.stats().events_executed, 20262u);
    EXPECT_EQ(r.proviso, "scc");
  }
}

TEST(DistSearch, SccRepairRoundsFindTheIgnoredViolation) {
  const Protocol proto = make_ignored_cycle();
  SporOptions opts;
  opts.proviso = CycleProviso::kScc;
  ExploreConfig cfg;
  cfg.visited = VisitedMode::kInterned;
  dist::DistConfig dc;
  dc.ranks = 2;
  const ExploreResult r = dist::run_distributed(
      proto, cfg, dc,
      [&] { return std::make_unique<SporStrategy>(proto, opts); });
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_EQ(r.violated_property, "never_done");
  EXPECT_GE(r.stats.scc_reexpansions, 1u);
  ASSERT_FALSE(r.counterexample.empty());
  EXPECT_TRUE(replay_counterexample(proto, r));
}

TEST(DistCredit, ExhaustionStallsTheSenderWithoutDeadlock) {
  // One credit and tiny batches: every sender spends most of the run parked
  // waiting for acks, with expansion paused whenever the backlog passes
  // stall_entries. The search must still terminate with the exact pin —
  // a deadlock would hang, lost batches would miss states.
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  ExploreConfig cfg;
  cfg.visited = VisitedMode::kInterned;
  dist::DistConfig dc;
  dc.ranks = 4;
  dc.credits = 1;
  dc.batch_entries = 4;
  dc.stall_entries = 8;
  dc.flush_us = 100;
  const ExploreResult r = dist::run_distributed(proto, cfg, dc, {});
  EXPECT_EQ(r.verdict, Verdict::kHolds);
  EXPECT_EQ(r.stats.states_stored, 9945u);
  EXPECT_GT(r.stats.forward_batches, 0u);
}

TEST(DistTrace, CrossRankCounterexampleReplaysConcretely) {
  // The faulty acceptor violates agreement; the violating rank's trace walk
  // crosses rank boundaries through the parent-lookup RPC and the launcher
  // replays the merged event chain from the real initial state.
  check::CheckRequest req;
  req.model = "paxos";
  req.params = {{"proposers", "2"},
                {"acceptors", "3"},
                {"learners", "1"},
                {"faulty", "true"},
                {"single-message", "true"}};
  req.strategy = "full";
  req.dist_ranks = 2;
  const check::CheckResult r = check::run_check(std::move(req));
  ASSERT_EQ(r.verdict(), Verdict::kViolated);
  EXPECT_FALSE(r.result.violated_property.empty());
  ASSERT_FALSE(r.result.counterexample.empty());
  EXPECT_TRUE(replay_counterexample(r.protocol, r.result));
}

TEST(DistRankDeath, DyingRankSurfacesAsErrorNotHang) {
  const Protocol proto =
      make_paxos({.proposers = 2, .acceptors = 3, .learners = 1});
  ExploreConfig cfg;
  cfg.visited = VisitedMode::kInterned;
  cfg.max_seconds = 30;  // belt and braces: bounds the launcher backstop
  dist::DistConfig dc;
  dc.ranks = 2;
  dc.fault_rank = 1;
  dc.fault_after_states = 50;
  EXPECT_THROW((void)dist::run_distributed(proto, cfg, dc, {}),
               dist::DistError);
}

}  // namespace
}  // namespace mpb
