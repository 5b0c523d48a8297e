#include <gtest/gtest.h>

#include <set>

#include "core/enabled.hpp"
#include "mp/builder.hpp"

namespace mpb {
namespace {

// Builder for a gatherer process fed by initial messages, configurable arity.
struct Fixture {
  Protocol proto;
  ProcessId gatherer = 0;
  TransitionId tid = 0;

  static Fixture make(int arity, std::vector<Message> initial,
                      Guard guard = {}, ProcessMask from = kAllProcesses) {
    mp::ProtocolBuilder b("fixture");
    const MsgType mV = b.msg("V");
    (void)mV;
    const ProcessId g = b.process("g", "G", {{"x", 0}});
    // Senders exist so masks and sender ids are meaningful.
    for (int i = 0; i < 4; ++i) b.process("s" + std::to_string(i), "S", {});
    auto& t = b.transition(g, "V").consumes("V", arity).from(from);
    if (guard) t.guard(std::move(guard));
    t.effect([](EffectCtx& c) { c.set_local(0, c.local(0) + 1); });
    for (const Message& m : initial) b.initial_message(m);
    return Fixture{b.build(), g, 0};
  }
};

Message vmsg(ProcessId from, Value payload = 0) {
  // type id 0 is "V" (first interned); receiver 0 is the gatherer.
  return Message(0, from, 0, {payload});
}

std::vector<Event> events_of(const Fixture& f) {
  std::vector<Event> out;
  enumerate_events_of(f.proto, f.proto.initial(), f.tid, out);
  return out;
}

TEST(Enabled, SingleMessageOneEventPerMessage) {
  auto f = Fixture::make(1, {vmsg(1, 1), vmsg(2, 2), vmsg(3, 3)});
  EXPECT_EQ(events_of(f).size(), 3u);
}

TEST(Enabled, IdenticalMessagesAreDeduped) {
  auto f = Fixture::make(1, {vmsg(1, 7), vmsg(1, 7), vmsg(1, 8)});
  // Two copies of the same message give the same successor: one event each
  // for payloads 7 and 8.
  EXPECT_EQ(events_of(f).size(), 2u);
}

TEST(Enabled, QuorumChoosesDistinctSenders) {
  auto f = Fixture::make(2, {vmsg(1), vmsg(2), vmsg(3)});
  // C(3,2) sender pairs.
  EXPECT_EQ(events_of(f).size(), 3u);
}

TEST(Enabled, QuorumNeverPairsSameSender) {
  auto f = Fixture::make(2, {vmsg(1, 10), vmsg(1, 11), vmsg(2, 20)});
  // Sender 1 offers two distinct messages; each pairs with sender 2's one:
  // 2 events. No event may take both messages of sender 1.
  auto evs = events_of(f);
  EXPECT_EQ(evs.size(), 2u);
  for (const Event& e : evs) {
    std::set<ProcessId> senders;
    for (const Message& m : e.consumed) senders.insert(m.sender());
    EXPECT_EQ(senders.size(), e.consumed.size());
  }
}

TEST(Enabled, QuorumProductOverPerSenderChoices) {
  auto f = Fixture::make(2, {vmsg(1, 10), vmsg(1, 11), vmsg(2, 20), vmsg(2, 21)});
  // One sender pair (1,2), 2x2 payload choices.
  EXPECT_EQ(events_of(f).size(), 4u);
}

TEST(Enabled, QuorumInsufficientSenders) {
  auto f = Fixture::make(3, {vmsg(1), vmsg(2)});
  EXPECT_TRUE(events_of(f).empty());
  EXPECT_TRUE(pool_insufficient(f.proto, f.proto.initial(), f.tid));
}

TEST(Enabled, PoolInsufficientCountsDistinctSendersNotMessages) {
  // Three pending messages (two identical) from one sender: a 2-quorum has
  // one distinct sender, so its pool is insufficient.
  auto one_sender = Fixture::make(2, {vmsg(1, 7), vmsg(1, 7), vmsg(1, 8)});
  EXPECT_TRUE(events_of(one_sender).empty());
  EXPECT_TRUE(pool_insufficient(one_sender.proto, one_sender.proto.initial(),
                                one_sender.tid));

  // Duplicates around the run boundaries do not inflate or hide senders:
  // three distinct senders cover a 3-quorum.
  auto three = Fixture::make(
      3, {vmsg(1, 1), vmsg(1, 1), vmsg(2, 5), vmsg(2, 6), vmsg(2, 6), vmsg(3)});
  EXPECT_FALSE(events_of(three).empty());
  EXPECT_FALSE(pool_insufficient(three.proto, three.proto.initial(), three.tid));

  // Only allowed senders count: sender 2 is masked out, leaving one.
  auto masked = Fixture::make(2, {vmsg(1), vmsg(1, 3), vmsg(2), vmsg(2, 4)},
                              {}, mask_of(1) | mask_of(3));
  EXPECT_TRUE(events_of(masked).empty());
  EXPECT_TRUE(pool_insufficient(masked.proto, masked.proto.initial(),
                                masked.tid));

  // Single-message arity needs one allowed message.
  auto single = Fixture::make(1, {vmsg(2), vmsg(2)}, {}, mask_of(1));
  EXPECT_TRUE(pool_insufficient(single.proto, single.proto.initial(),
                                single.tid));
  auto single_ok = Fixture::make(1, {vmsg(1), vmsg(2)}, {}, mask_of(1));
  EXPECT_FALSE(pool_insufficient(single_ok.proto, single_ok.proto.initial(),
                                 single_ok.tid));
}

TEST(Enabled, AllowedSendersFilterPool) {
  auto f = Fixture::make(2, {vmsg(1), vmsg(2), vmsg(3)}, {},
                         mask_of(1) | mask_of(2));
  // Sender 3 excluded: only the (1,2) pair remains.
  auto evs = events_of(f);
  ASSERT_EQ(evs.size(), 1u);
  for (const Message& m : evs[0].consumed) {
    EXPECT_NE(m.sender(), 3);
  }
}

TEST(Enabled, GuardFiltersCandidateSets) {
  // Only sets whose payloads are all equal are enabled.
  auto same = [](const GuardView& g) {
    for (const Message& m : g.consumed) {
      if (m[0] != g.consumed[0][0]) return false;
    }
    return true;
  };
  auto f = Fixture::make(2, {vmsg(1, 5), vmsg(2, 5), vmsg(3, 6)}, same);
  // Pairs: (1,2) same=yes, (1,3) no, (2,3) no.
  EXPECT_EQ(events_of(f).size(), 1u);
}

TEST(Enabled, PowersetArity) {
  auto f = Fixture::make(kPowersetArity, {vmsg(1), vmsg(2), vmsg(3)});
  // Non-empty subsets of 3 distinct messages.
  EXPECT_EQ(events_of(f).size(), 7u);
}

TEST(Enabled, PowersetWithGuard) {
  auto exactly_two = [](const GuardView& g) { return g.consumed.size() == 2; };
  auto f = Fixture::make(kPowersetArity, {vmsg(1), vmsg(2), vmsg(3)}, exactly_two);
  EXPECT_EQ(events_of(f).size(), 3u);
}

TEST(Enabled, SpontaneousGuardGates) {
  mp::ProtocolBuilder b("sp");
  const ProcessId p = b.process("p", "P", {{"fired", 0}});
  b.transition(p, "GO")
      .spontaneous()
      .guard([](const GuardView& g) { return g.local[0] == 0; })
      .effect([](EffectCtx& c) { c.set_local(0, 1); });
  Protocol proto = b.build();

  auto evs = enumerate_events(proto, proto.initial());
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_TRUE(evs[0].consumed.empty());

  State fired({1}, {});
  EXPECT_TRUE(enumerate_events(proto, fired).empty());
  EXPECT_FALSE(pool_insufficient(proto, fired, 0));  // disabled by guard, not pool
}

TEST(Enabled, EventsGroupedByTransitionId) {
  auto f = Fixture::make(1, {vmsg(1), vmsg(2)});
  auto evs = enumerate_events(f.proto, f.proto.initial());
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LE(evs[i - 1].tid, evs[i].tid);
  }
}

TEST(Enabled, ConsumedSetIsSorted) {
  auto f = Fixture::make(2, {vmsg(3), vmsg(1), vmsg(2)});
  for (const Event& e : events_of(f)) {
    EXPECT_TRUE(std::is_sorted(e.consumed.begin(), e.consumed.end()));
  }
}

TEST(Enabled, TransitionEnabledAgrees) {
  auto f = Fixture::make(2, {vmsg(1), vmsg(2)});
  EXPECT_TRUE(transition_enabled(f.proto, f.proto.initial(), f.tid));
  auto f2 = Fixture::make(2, {vmsg(1)});
  EXPECT_FALSE(transition_enabled(f2.proto, f2.proto.initial(), f2.tid));
}

}  // namespace
}  // namespace mpb
