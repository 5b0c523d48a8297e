// Collapse compression and the spill tier (core/collapse, core/spill, the
// kCollapse visited mode): exactly-once component interning under contention,
// compressed-graph parity with full-copy interning (the committed soundness
// pins), exact memory accounting, and the mmap spill tier growing a search
// past a memory guard that stops the unspilled run. Every suite here carries
// the `memory` ctest label and runs in the TSan and ASan lanes.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/collapse.hpp"
#include "core/spill.hpp"
#include "core/state.hpp"
#include "core/visited.hpp"
#include "mp/builder.hpp"
#include "por/spor.hpp"
#include "protocols/paxos/paxos.hpp"

namespace mpb {
namespace {

Message msg(MsgType t, ProcessId from, ProcessId to, Value payload = 0) {
  return Message(t, from, to, {payload});
}

std::vector<std::byte> blob_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  // memcpy from an empty string's data() into an empty vector's (null)
  // data() is undefined even for zero bytes.
  if (!text.empty()) std::memcpy(out.data(), text.data(), text.size());
  return out;
}

// A scratch directory for spill files; removed (rmdir) on destruction — the
// ChunkStore unlinks its backing file at creation, so the dir stays empty.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/mpb_spill_test_XXXXXX";
    char* got = mkdtemp(tmpl);
    EXPECT_NE(got, nullptr);
    path = got != nullptr ? got : "";
  }
  ~TempDir() {
    if (!path.empty()) rmdir(path.c_str());
  }
  std::string path;
};

// N processes, each a counter stepping 0..limit: (limit+1)^N reachable
// states of a few bytes each — the node arena dominates every fixed cost,
// which is what the accounting and spill tests need.
Protocol make_counters(int procs, int limit) {
  mp::ProtocolBuilder b("counters");
  for (int p = 0; p < procs; ++p) {
    const ProcessId id =
        b.process("c" + std::to_string(p), "Counter", {{"n", 0}});
    b.transition(id, "INC")
        .spontaneous()
        .guard([limit](const GuardView& g) { return g.local[0] < limit; })
        .effect([](EffectCtx& c) { c.set_local(0, c.local(0) + 1); })
        .priority(1);
  }
  return b.build();
}

// --- BlobStore: exactly-once interning ---------------------------------------

TEST(MemoryBlobStore, InternAssignsDenseStableIndices) {
  ChunkStore chunks;
  BlobStore store(chunks);
  const auto a = blob_of("alpha");
  const auto b = blob_of("beta");
  const auto empty = blob_of("");

  const std::uint32_t ia = store.intern(a.data(), a.size());
  const std::uint32_t ib = store.intern(b.data(), b.size());
  const std::uint32_t ie = store.intern(empty.data(), 0);
  EXPECT_NE(ia, ib);
  EXPECT_NE(ia, ie);
  EXPECT_EQ(store.count(), 3u);

  // Re-interning returns the same index; find agrees; get round-trips.
  EXPECT_EQ(store.intern(a.data(), a.size()), ia);
  EXPECT_EQ(store.find(b.data(), b.size()), ib);
  EXPECT_EQ(store.count(), 3u);
  const std::span<const std::byte> back = store.get(ia);
  ASSERT_EQ(back.size(), a.size());
  EXPECT_EQ(std::memcmp(back.data(), a.data(), a.size()), 0);
  EXPECT_EQ(store.get(ie).size(), 0u);

  // A never-interned blob: find says so, and says so exactly.
  const auto absent = blob_of("gamma");
  EXPECT_EQ(store.find(absent.data(), absent.size()), BlobStore::kNoBlob);
}

TEST(MemoryBlobStore, ContentCompareKeepsUnequalBlobsDistinct) {
  // Same length, different bytes: content must decide, whatever the hash does.
  ChunkStore chunks;
  BlobStore store(chunks);
  std::vector<std::uint32_t> indices;
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t v = static_cast<std::uint32_t>(i);
    indices.push_back(
        store.intern(reinterpret_cast<const std::byte*>(&v), sizeof(v)));
  }
  EXPECT_EQ(store.count(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t v = static_cast<std::uint32_t>(i);
    EXPECT_EQ(store.find(reinterpret_cast<const std::byte*>(&v), sizeof(v)),
              indices[i]);
    const std::span<const std::byte> got = store.get(indices[i]);
    ASSERT_EQ(got.size(), sizeof(v));
    EXPECT_EQ(std::memcmp(got.data(), &v, sizeof(v)), 0);
  }
}

TEST(MemoryBlobStore, GrowthMigratesPublishedEntries) {
  // Far beyond the 64-slot initial table: several freeze-and-migrate rounds.
  ChunkStore chunks;
  BlobStore store(chunks);
  constexpr int kBlobs = 20'000;
  std::vector<std::uint32_t> indices(kBlobs);
  for (int i = 0; i < kBlobs; ++i) {
    const std::string text = "blob-" + std::to_string(i);
    const auto bytes = blob_of(text);
    indices[i] = store.intern(bytes.data(), bytes.size());
  }
  EXPECT_EQ(store.count(), static_cast<std::uint64_t>(kBlobs));
  EXPECT_GT(store.heap_bytes(), 0u);
  for (int i = 0; i < kBlobs; ++i) {
    const auto bytes = blob_of("blob-" + std::to_string(i));
    EXPECT_EQ(store.intern(bytes.data(), bytes.size()), indices[i]);
    EXPECT_EQ(store.find(bytes.data(), bytes.size()), indices[i]);
  }
}

// 8 threads intern the same universe of blobs while the table grows under
// them: every blob must get exactly one index, agreed on by all threads, and
// a concurrent get() must never see torn payload bytes. (Memory* puts this
// in both the TSan and ASan lanes.)
TEST(MemoryBlobStoreStress, ConcurrentInternIsExactlyOnce) {
  ChunkStore chunks;
  BlobStore store(chunks);
  constexpr int kBlobs = 4000;
  constexpr int kThreads = 8;
  std::vector<std::atomic<std::uint32_t>> published(kBlobs);
  for (auto& p : published) p.store(BlobStore::kNoBlob);

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kBlobs; ++i) {
        // Thread t starts at a different offset so claims collide all over
        // the table, not in lockstep.
        const int b = (i + t * (kBlobs / kThreads)) % kBlobs;
        const std::string text = "stress-" + std::to_string(b);
        const auto bytes = blob_of(text);
        const std::uint32_t idx = store.intern(bytes.data(), bytes.size());
        ASSERT_NE(idx, BlobStore::kNoBlob);
        std::uint32_t expected = BlobStore::kNoBlob;
        if (!published[b].compare_exchange_strong(expected, idx)) {
          ASSERT_EQ(idx, expected) << "blob " << b << " interned twice";
        }
        // The payload behind a published index is immediately readable.
        const std::span<const std::byte> got = store.get(idx);
        ASSERT_EQ(got.size(), bytes.size());
        ASSERT_EQ(std::memcmp(got.data(), bytes.data(), bytes.size()), 0);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(store.count(), static_cast<std::uint64_t>(kBlobs));
}

// --- collapse-mode visited set: parity with full-copy interning --------------

TEST(MemoryCollapseVisited, InsertContainsAndExactnessMatchInterned) {
  ShardedVisited interned(VisitedMode::kInterned, 4);
  ShardedVisited collapse(VisitedMode::kCollapse, 4);
  std::vector<State> states;
  for (int i = 0; i < 512; ++i) {
    states.emplace_back(
        std::vector<Value>{i, i % 17, -i},
        std::vector<Message>{msg(static_cast<MsgType>(i % 3 + 1), 0, 1, i)});
  }
  for (const State& s : states) {
    EXPECT_EQ(interned.insert(s), collapse.insert(s));
  }
  for (const State& s : states) {
    EXPECT_FALSE(collapse.insert(s));  // duplicates detected exactly
    EXPECT_TRUE(collapse.contains(s));
  }
  EXPECT_EQ(collapse.size(), interned.size());
  EXPECT_FALSE(collapse.contains(State({9999}, {})));
}

TEST(MemoryCollapseVisited, ParentChainAndMaterializeMatchInterned) {
  // The same chain root -> s1 -> ... -> sN inserted into both graph modes:
  // path_from_root must produce identical event sequences (consumed messages
  // included) and materialize() must reproduce each state byte-for-byte.
  ShardedVisited interned(VisitedMode::kInterned, 1);
  ShardedVisited collapse(VisitedMode::kCollapse, 1);
  constexpr int kChain = 300;

  StateHandle ih = kNoHandle;
  StateHandle ch = kNoHandle;
  std::vector<StateHandle> chandles;
  for (int i = 0; i < kChain; ++i) {
    const State s({i, i * 31}, {msg(1, 0, 1, i)});
    Event via;
    via.tid = static_cast<TransitionId>(i % 7);
    if (i % 2 == 1) via.consumed = {msg(2, 1, 0, i), msg(3, 0, 1, -i)};
    const Event* ev = i == 0 ? nullptr : &via;
    const auto perm = static_cast<std::uint32_t>(i % 5);
    const VisitedInsert ii = interned.insert(s, s.fingerprint(), ih, ev, perm);
    const VisitedInsert ci = collapse.insert(s, s.fingerprint(), ch, ev, perm);
    ASSERT_TRUE(ii.inserted);
    ASSERT_TRUE(ci.inserted);
    ASSERT_NE(ci.handle, kNoHandle);
    EXPECT_EQ(collapse.parent_of(ci.handle), ch);
    EXPECT_EQ(collapse.perm_of(ci.handle), perm);

    // Materialized copies match the original and the full-copy twin.
    const std::optional<State> mat = collapse.materialize(ci.handle);
    ASSERT_TRUE(mat.has_value());
    EXPECT_EQ(*mat, s);
    ASSERT_NE(interned.state_at(ii.handle), nullptr);
    EXPECT_EQ(*mat, *interned.state_at(ii.handle));
    EXPECT_EQ(mat->fingerprint(), s.fingerprint());

    ih = ii.handle;
    ch = ci.handle;
    chandles.push_back(ch);
  }

  const std::vector<Event> ipath = interned.path_from_root(ih);
  const std::vector<Event> cpath = collapse.path_from_root(ch);
  ASSERT_EQ(cpath.size(), ipath.size());
  for (std::size_t i = 0; i < cpath.size(); ++i) {
    EXPECT_EQ(cpath[i], ipath[i]) << "event " << i;
  }
  // Duplicate inserts resolve to the existing entry, first writer wins.
  const State dup({5, 5 * 31}, {msg(1, 0, 1, 5)});
  Event other;
  other.tid = 99;
  const VisitedInsert again =
      collapse.insert(dup, dup.fingerprint(), kNoHandle, &other);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.handle, chandles[5]);
}

TEST(MemoryCollapseVisited, LayoutSplitsComponentsPerProcessAndReceiver) {
  // A layout with two locals slices and two receivers: states that differ in
  // one component share the other components' blobs, and materialize still
  // reassembles the exact state (runs concatenated in receiver order).
  CollapseLayout layout;
  layout.locals = {{0, 2}, {2, 1}};
  layout.n_receivers = 2;
  ShardedVisited set(VisitedMode::kCollapse, 2, layout, SpillConfig{});
  std::vector<State> states;
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      states.emplace_back(
          std::vector<Value>{a, a + 1, b},
          std::vector<Message>{msg(1, 0, 0, a), msg(2, 0, 1, b),
                               msg(3, 1, 1, a + b)});
    }
  }
  std::vector<StateHandle> handles;
  for (const State& s : states) {
    const VisitedInsert r = set.insert(s, s.fingerprint(), kNoHandle, nullptr);
    ASSERT_TRUE(r.inserted);
    handles.push_back(r.handle);
  }
  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(set.contains(states[i]));
    const std::optional<State> mat = set.materialize(handles[i]);
    ASSERT_TRUE(mat.has_value());
    EXPECT_EQ(*mat, states[i]);
  }
  EXPECT_EQ(set.size(), states.size());
}

TEST(MemoryCollapseVisited, WideLaneEngagesPastU16ComponentIndices) {
  // Collapse nodes use a packed u16 tuple (narrow lane) while every component
  // index and the perm fit below 0xFFFF, and fall back to a u32 tuple (wide
  // lane) beyond that. 70,000 distinct single-local states make the locals
  // blob indices dense 0..69,999 in a one-shard set, so nodes from index
  // 0xFFFF onward must take the wide lane. Exactness, parent links, perms,
  // materialization, and duplicate resolution must hold across the boundary.
  constexpr std::uint32_t kStates = 70'000;
  ShardedVisited set(VisitedMode::kCollapse, 1);
  std::vector<StateHandle> handles;
  handles.reserve(kStates);
  StateHandle parent = kNoHandle;
  for (std::uint32_t i = 0; i < kStates; ++i) {
    const State s({static_cast<Value>(i)}, {});
    Event via;
    via.tid = static_cast<TransitionId>(i % 11);
    // One early node goes wide on the perm alone (perm >= 0xFFFF) while its
    // component indices are still narrow-eligible.
    const std::uint32_t perm = i == 10 ? 0x1234'5678u : i % 7;
    const VisitedInsert r =
        set.insert(s, s.fingerprint(), parent, i == 0 ? nullptr : &via, perm);
    ASSERT_TRUE(r.inserted) << i;
    ASSERT_NE(r.handle, kNoHandle);
    EXPECT_EQ(set.parent_of(r.handle), parent);
    EXPECT_EQ(set.perm_of(r.handle), perm);
    parent = r.handle;
    handles.push_back(r.handle);
  }
  EXPECT_EQ(set.size(), kStates);
  EXPECT_EQ(set.perm_of(handles[10]), 0x1234'5678u);

  // Spot-check both lanes and the transition itself.
  for (const std::uint32_t i :
       {0u, 10u, 0xFFFEu, 0xFFFFu, 0x10000u, kStates - 1}) {
    SCOPED_TRACE(i);
    const State s({static_cast<Value>(i)}, {});
    EXPECT_TRUE(set.contains(s));
    const std::optional<State> mat = set.materialize(handles[i]);
    ASSERT_TRUE(mat.has_value());
    EXPECT_EQ(*mat, s);
    if (i > 0) {
      EXPECT_EQ(set.parent_of(handles[i]), handles[i - 1]);
    }
    // Duplicates resolve to the original entry whichever lane holds it.
    const VisitedInsert again =
        set.insert(s, s.fingerprint(), kNoHandle, nullptr);
    EXPECT_FALSE(again.inserted);
    EXPECT_EQ(again.handle, handles[i]);
  }

  // The replay chain walks every node, wide and narrow, in one pass; only
  // the root carries no event.
  EXPECT_EQ(set.path_from_root(handles.back()).size(), kStates - 1);

  // Dense numbering covers both lanes: a bijection onto [0, kStates) that
  // keeps handle order (narrow lane first, then the wide lane).
  std::vector<StateHandle> sorted = handles;
  std::sort(sorted.begin(), sorted.end());
  const ShardedVisited::DenseNumbering dense = set.dense_numbering();
  ASSERT_EQ(dense.size(), kStates);
  for (std::uint64_t j = 0; j < kStates; ++j) {
    ASSERT_EQ(dense.of(sorted[j]), j);
    ASSERT_EQ(dense.handle(j), sorted[j]);
  }
  EXPECT_GT(dense.of(handles[10]), dense.of(handles[0xFFFE]));  // wide lane
}

TEST(MemoryDenseNumbering, BijectiveAndOrderPreservingAcrossShards) {
  // The SCC pass indexes flat arrays by dense number; every graph mode and
  // shard count must map the stored handles onto [0, size()) in handle
  // order, with empty shards in between.
  for (const VisitedMode mode : {VisitedMode::kInterned, VisitedMode::kCollapse}) {
    for (const unsigned shards : {1u, 8u, 64u}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " shards=" +
                   std::to_string(shards));
      ShardedVisited set(mode, shards);
      EXPECT_EQ(set.dense_numbering().size(), 0u);
      std::vector<StateHandle> handles;
      for (Value i = 0; i < 40; ++i) {
        const State s({i, static_cast<Value>(i % 3)}, {});
        handles.push_back(set.insert(s, s.fingerprint(), kNoHandle, nullptr).handle);
      }
      std::sort(handles.begin(), handles.end());
      const ShardedVisited::DenseNumbering dense = set.dense_numbering();
      ASSERT_EQ(dense.size(), handles.size());
      for (std::uint64_t j = 0; j < handles.size(); ++j) {
        EXPECT_EQ(dense.of(handles[j]), j);
        EXPECT_EQ(dense.handle(j), handles[j]);
      }
    }
  }
  // Modes that store no graph number nothing.
  ShardedVisited fp(VisitedMode::kFingerprint, 4);
  const State s({1}, {});
  fp.insert(s);
  EXPECT_EQ(fp.dense_numbering().size(), 0u);
}

// The committed soundness pins, reproduced byte-for-byte by the compressed
// mode: paxos(2,3,1) full = 9,945 states; spor under the stack and scc
// provisos = 9,867. The scc run drives the ignoring pass over materialize()
// (the pass re-expands from reconstructed states), so a reconstruction bug
// cannot hide.
TEST(MemoryCollapsePins, PaxosStatePinsMatchFullCopyInterning) {
  const Protocol proto = protocols::make_paxos(
      {.proposers = 2, .acceptors = 3, .learners = 1});
  auto run = [&](VisitedMode mode, const char* strategy_kind) {
    ExploreConfig cfg;
    cfg.visited = mode;
    if (std::string(strategy_kind) == "full") return explore(proto, cfg);
    SporOptions opts;
    opts.proviso = std::string(strategy_kind) == "stack" ? CycleProviso::kStack
                                                         : CycleProviso::kScc;
    SporStrategy strategy(proto, opts);
    return explore(proto, cfg, &strategy);
  };

  for (const char* kind : {"full", "stack", "scc"}) {
    SCOPED_TRACE(kind);
    const ExploreResult full_copy = run(VisitedMode::kInterned, kind);
    const ExploreResult compressed = run(VisitedMode::kCollapse, kind);
    EXPECT_EQ(full_copy.verdict, Verdict::kHolds);
    EXPECT_EQ(compressed.verdict, Verdict::kHolds);
    EXPECT_EQ(compressed.stats.states_stored, full_copy.stats.states_stored);
    const std::uint64_t pin =
        std::string(kind) == "full" ? 9945u : 9867u;
    EXPECT_EQ(compressed.stats.states_stored, pin);
    // Both modes account their storage exactly; compression must show.
    EXPECT_GT(full_copy.stats.visited_bytes, 0u);
    EXPECT_GT(compressed.stats.visited_bytes, 0u);
  }
}

// --- exact accounting --------------------------------------------------------

TEST(MemoryAccounting, ApproxBytesTracksTablesArenasAndBlobs) {
  ShardedVisited set(VisitedMode::kCollapse, 1);
  const std::uint64_t at_start = set.approx_bytes();
  EXPECT_GT(at_start, 0u);  // the initial slot table is counted up front
  std::uint64_t prev = at_start;
  for (int i = 0; i < 20'000; ++i) {
    set.insert(State({i, i * 7, i % 3}, {msg(1, 0, 1, i)}));
    if (i % 5000 == 4999) {
      const std::uint64_t now = set.approx_bytes();
      EXPECT_GT(now, prev);  // tables, arena chunks and blobs all grow
      prev = now;
    }
  }
  EXPECT_EQ(set.spilled_bytes(), 0u);  // no spill dir: everything resident
  // Duplicates cost nothing: re-inserting the whole set must not move the
  // allocation-granularity counters (no new chunks, tables, or blobs).
  const std::uint64_t before_dups = set.approx_bytes();
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_FALSE(set.insert(State({i, i * 7, i % 3}, {msg(1, 0, 1, i)})));
  }
  EXPECT_EQ(set.approx_bytes(), before_dups);
}

TEST(MemoryAccounting, CollapseStoresFewerBytesThanFullCopiesAtScale) {
  // 46,656 tiny states: the per-state node cost dominates every fixed pool,
  // so the compressed representation must undercut full-copy interning.
  const Protocol proto = make_counters(/*procs=*/6, /*limit=*/5);
  ExploreConfig cfg;
  cfg.visited = VisitedMode::kInterned;
  const ExploreResult full_copy = explore(proto, cfg);
  cfg.visited = VisitedMode::kCollapse;
  const ExploreResult compressed = explore(proto, cfg);
  ASSERT_EQ(full_copy.verdict, Verdict::kHolds);
  ASSERT_EQ(compressed.verdict, Verdict::kHolds);
  ASSERT_EQ(full_copy.stats.states_stored, 46'656u);
  ASSERT_EQ(compressed.stats.states_stored, 46'656u);
  EXPECT_GT(full_copy.stats.visited_bytes, 0u);
  EXPECT_GT(compressed.stats.visited_bytes, 0u);
  EXPECT_LT(compressed.stats.visited_bytes, full_copy.stats.visited_bytes);
}

// --- the spill tier ----------------------------------------------------------

TEST(MemorySpillChunkStore, AdvisesColdChunksOutAndKeepsDataReadable) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  SpillConfig cfg;
  cfg.dir = dir.path;
  cfg.resident_bytes = 256 << 10;  // 256 KiB budget for spillable chunks
  ChunkStore store(cfg);
  ASSERT_TRUE(store.spilling());

  // A pinned chunk never leaves RAM, whatever the budget says.
  std::byte* pinned = store.alloc_chunk(64 << 10, /*spillable=*/false);
  std::memset(pinned, 0x5a, 64 << 10);

  constexpr std::size_t kChunk = 64 << 10;
  constexpr int kChunks = 16;  // 1 MiB spillable, 4x the budget
  std::vector<std::byte*> chunks;
  for (int i = 0; i < kChunks; ++i) {
    std::byte* c = store.alloc_chunk(kChunk, /*spillable=*/true);
    ASSERT_NE(c, nullptr);
    std::memset(c, i + 1, kChunk);  // distinct pattern per chunk
    chunks.push_back(c);
  }

  EXPECT_GE(store.allocated_bytes(), kChunks * kChunk);
  EXPECT_GT(store.spilled_bytes(), 0u);
  // Budget enforcement: resident spillable bytes are the budget plus at most
  // the newest chunk (never evicted) and page rounding.
  EXPECT_LE(store.resident_bytes(),
            (64 << 10) + cfg.resident_bytes + kChunk + 4096);

  // Every byte — advised out or not — reads back exactly (the data lives in
  // the backing file; a read simply faults the pages in again).
  for (int i = 0; i < kChunks; ++i) {
    for (std::size_t off : {std::size_t{0}, kChunk / 2, kChunk - 1}) {
      ASSERT_EQ(std::to_integer<int>(chunks[i][off]), i + 1)
          << "chunk " << i << " offset " << off;
    }
  }
  for (std::size_t off : {std::size_t{0}, std::size_t{64 << 10} - 1}) {
    ASSERT_EQ(std::to_integer<int>(pinned[off]), 0x5a);
  }
}

TEST(MemorySpillVisited, ArenaSpillsWhileLookupsStayExact) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  SpillConfig spill;
  spill.dir = dir.path;
  spill.resident_bytes = 128 << 10;  // force the node arena cold early
  ShardedVisited set(VisitedMode::kCollapse, 1, CollapseLayout{}, spill);

  constexpr int kStates = 30'000;
  for (int i = 0; i < kStates; ++i) {
    ASSERT_TRUE(set.insert(State({i, i * 7}, {})));
  }
  EXPECT_EQ(set.size(), static_cast<std::uint64_t>(kStates));
  EXPECT_GT(set.spilled_bytes(), 0u);  // the arena actually went cold

  // Probing every state faults spilled nodes back in; duplicate detection
  // and membership must stay exact.
  for (int i = 0; i < kStates; ++i) {
    ASSERT_TRUE(set.contains(State({i, i * 7}, {})));
    ASSERT_FALSE(set.insert(State({i, i * 7}, {})));
  }
  EXPECT_FALSE(set.contains(State({kStates, 1}, {})));
  EXPECT_EQ(set.size(), static_cast<std::uint64_t>(kStates));
}

// The tentpole's acceptance shape: under the same memory guard, the spill-
// enabled run completes a state count the unspilled run cannot reach. The
// guard ceiling is calibrated from the two unguarded footprints, so the test
// tracks the accounting instead of hard-coding byte counts.
TEST(MemorySpillGuard, SpillCompletesAGuardLimitedSearch) {
  TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const Protocol proto = make_counters(/*procs=*/6, /*limit=*/5);
  constexpr std::uint64_t kTotalStates = 46'656;

  auto run = [&](bool spill, std::uint64_t guard_bytes) {
    ExploreConfig cfg;
    cfg.visited = VisitedMode::kCollapse;
    cfg.guard.max_memory_bytes = guard_bytes;
    if (spill) {
      cfg.spill_dir = dir.path;
      cfg.spill_mb = 1;
    }
    return explore(proto, cfg);
  };

  const ExploreResult plain = run(/*spill=*/false, /*guard_bytes=*/0);
  const ExploreResult spilled = run(/*spill=*/true, /*guard_bytes=*/0);
  ASSERT_EQ(plain.verdict, Verdict::kHolds);
  ASSERT_EQ(spilled.verdict, Verdict::kHolds);
  ASSERT_EQ(plain.stats.states_stored, kTotalStates);
  ASSERT_EQ(spilled.stats.states_stored, kTotalStates);
  const std::uint64_t plain_bytes = plain.stats.visited_bytes;
  const std::uint64_t spilled_bytes = spilled.stats.visited_bytes;
  // Spilling must buy real accounted headroom before the guard runs matter.
  ASSERT_GT(plain_bytes, spilled_bytes + (512 << 10))
      << "spill tier freed too little to calibrate a guard between the modes";

  const std::uint64_t guard = spilled_bytes + (plain_bytes - spilled_bytes) / 2;
  const ExploreResult stopped = run(/*spill=*/false, guard);
  EXPECT_EQ(stopped.verdict, Verdict::kResourceLimit);
  EXPECT_LT(stopped.stats.states_stored, kTotalStates);

  const ExploreResult completed = run(/*spill=*/true, guard);
  EXPECT_EQ(completed.verdict, Verdict::kHolds);
  EXPECT_EQ(completed.stats.states_stored, kTotalStates);
  EXPECT_GT(completed.stats.states_stored, stopped.stats.states_stored);
}

}  // namespace
}  // namespace mpb
