#include "core/visited.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define MPB_HAVE_MALLOC_USABLE_SIZE 1
#endif

namespace mpb {

std::string_view to_string(VisitedMode m) noexcept {
  switch (m) {
    case VisitedMode::kExact: return "exact";
    case VisitedMode::kFingerprint: return "fingerprint";
    case VisitedMode::kInterned: return "interned";
    case VisitedMode::kCollapse: return "collapse";
  }
  return "?";
}

std::optional<VisitedMode> visited_mode_from_string(std::string_view name) noexcept {
  if (name == "exact") return VisitedMode::kExact;
  if (name == "fingerprint") return VisitedMode::kFingerprint;
  if (name == "interned") return VisitedMode::kInterned;
  if (name == "collapse") return VisitedMode::kCollapse;
  return std::nullopt;
}

namespace {
constexpr std::size_t kInitialSlots = 64;  // per shard; power of two

constexpr std::uint64_t kHandleIndexMask =
    (std::uint64_t{1} << kHandleIndexBits) - 1;

// Slot-value sentinels (see the Slot comment in the header). Payloads can
// never collide with them: fingerprint payloads are remapped below, interned
// payloads are arena indices + 1, far below 2^63.
constexpr std::uint64_t kClaimed = ~std::uint64_t{0};
constexpr std::uint64_t kFrozen = ~std::uint64_t{0} - 1;

[[nodiscard]] constexpr StateHandle make_handle(std::size_t shard,
                                                std::uint64_t index) noexcept {
  return (static_cast<std::uint64_t>(shard) << kHandleIndexBits) | index;
}

// Fingerprint-mode slots store val = fp.hi remapped away from the empty
// marker 0 and the claim/frozen sentinels (the remap folds a 3/2^64 sliver of
// fingerprint space onto a neighbour — same failure class, and far rarer,
// than a fingerprint collision itself).
[[nodiscard]] constexpr std::uint64_t occupied_val(std::uint64_t hi) noexcept {
  return (hi == 0 || hi >= kFrozen) ? 1 : hi;
}

// Bounded busy-wait while a claimed slot publishes or a migration installs
// the new table. Publication is a handful of stores (plus one state copy in
// interned mode), so the x86 pause fast path almost always suffices; yield
// keeps an oversubscribed box from burning a whole quantum.
inline void spin_pause(unsigned& spins) noexcept {
  if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
    spins = 0;
  }
}

// Arena geometry: chunk c holds kArenaFirstChunk << c nodes starting at
// index kArenaFirstChunk * (2^c - 1).
struct ArenaPos {
  std::size_t chunk;
  std::size_t offset;
};

[[nodiscard]] constexpr ArenaPos arena_pos(std::uint64_t index,
                                           std::size_t first_chunk) noexcept {
  const std::uint64_t q = index / first_chunk + 1;
  const auto chunk = static_cast<std::size_t>(std::bit_width(q) - 1);
  const std::uint64_t start = first_chunk * ((std::uint64_t{1} << chunk) - 1);
  return {chunk, static_cast<std::size_t>(index - start)};
}

// Collapse arena geometry: geometric up to 16Ki-node chunks, constant-size
// afterwards. Pure geometric growth would leave up to a whole allocation of
// over-committed tail (~2x the used bytes mid-chunk) and make the newest —
// never evictable — chunk of a spilling run arbitrarily large; capping the
// chunk size bounds both by one chunk while the ramp keeps tiny runs tiny.
constexpr std::size_t kCArenaFirst = 256;  // == ShardedVisited::kArenaFirstChunk
constexpr std::size_t kCArenaGeomChunks = 7;  // chunks 0..6 hold 256 << c
constexpr std::size_t kCArenaChunkNodes =
    kCArenaFirst << (kCArenaGeomChunks - 1);  // 16384 nodes
constexpr std::uint64_t kCArenaGeomNodes =
    kCArenaFirst * ((std::uint64_t{1} << kCArenaGeomChunks) - 1);  // 32512

[[nodiscard]] constexpr ArenaPos carena_pos(std::uint64_t index) noexcept {
  if (index < kCArenaGeomNodes) return arena_pos(index, kCArenaFirst);
  const std::uint64_t rest = index - kCArenaGeomNodes;
  return {kCArenaGeomChunks +
              static_cast<std::size_t>(rest / kCArenaChunkNodes),
          static_cast<std::size_t>(rest % kCArenaChunkNodes)};
}

[[nodiscard]] constexpr std::size_t carena_chunk_nodes(
    std::size_t chunk) noexcept {
  return chunk < kCArenaGeomChunks ? kCArenaFirst << chunk
                                   : kCArenaChunkNodes;
}

// Collapse-slot words (see CTable in the header). Sentinels live in the
// value half; published values are arena index + 1, capped far below by the
// arena's ~33M-node shard capacity.
constexpr std::uint32_t kCClaimed = 0xFFFFFFFFu;
constexpr std::uint64_t kCFrozenWord = 0xFFFFFFFEull;  // key half 0

[[nodiscard]] constexpr std::uint64_t cslot_word(std::uint32_t key,
                                                 std::uint32_t val) noexcept {
  return (std::uint64_t{key} << 32) | val;
}

// Published collapse-slot value -> 48-bit arena index: bit 31 carries the
// wide-lane flag (== ShardedVisited::kWideBit in the index).
constexpr std::uint64_t kCWideBit = std::uint64_t{1} << 47;

[[nodiscard]] constexpr std::uint64_t cval_index(std::uint32_t val) noexcept {
  const std::uint64_t idx = (val & 0x7FFFFFFFu) - 1;
  return (val & 0x80000000u) ? (kCWideBit | idx) : idx;
}

// True size of one heap allocation backing `p` — the payload the allocator
// actually carved out, not just the bytes requested (glibc rounds requests
// up to its chunk granularity). Exact accounting wants the former; where the
// allocator cannot be asked, fall back to the requested size.
[[nodiscard]] std::uint64_t heap_block_bytes(
    const void* p, [[maybe_unused]] std::uint64_t requested) noexcept {
  if (p == nullptr) return 0;
#ifdef MPB_HAVE_MALLOC_USABLE_SIZE
  return malloc_usable_size(const_cast<void*>(p));
#else
  return requested;
#endif
}

[[nodiscard]] constexpr std::uint32_t align8(std::uint32_t n) noexcept {
  return (n + 7u) & ~7u;
}

// Per-thread scratch for collapse-mode component encoding; reused across
// insert/contains calls, never held across them.
thread_local std::vector<std::byte> tls_blob_buf;
thread_local std::vector<std::uint32_t> tls_tuple;
}  // namespace

ShardedVisited::ShardedVisited(VisitedMode mode, unsigned shards)
    : ShardedVisited(mode, shards, CollapseLayout{}, SpillConfig{}) {}

ShardedVisited::ShardedVisited(VisitedMode mode, unsigned shards,
                               CollapseLayout layout, SpillConfig spill)
    : mode_(mode),
      shards_(std::bit_ceil(std::min(std::max(shards, 1u), 1024u))),
      layout_(std::move(layout)) {
  // carena_pos/cval_index mirror these with file-local constants.
  static_assert(kArenaFirstChunk == kCArenaFirst);
  static_assert(kWideBit == kCWideBit);
  if (mode_ == VisitedMode::kCollapse) {
    width_ = layout_.width();
    static_assert(sizeof(NNode) == 12 && alignof(NNode) == 4);
    nstride_ = (static_cast<std::uint32_t>(sizeof(NNode)) + 2u * width_ + 3u) &
               ~3u;
    wstride_ = align8(static_cast<std::uint32_t>(sizeof(CNode)) +
                      4u * width_);
    store_ = std::make_unique<ChunkStore>(std::move(spill));
    locals_blobs_ = std::make_unique<BlobStore>(*store_);
    channel_blobs_ = std::make_unique<BlobStore>(*store_);
    event_blobs_ = std::make_unique<BlobStore>(*store_);
    for (Shard& sh : shards_) {
      sh.ctable.store(new CTable(kInitialSlots), std::memory_order_relaxed);
      sh.cchunks.reset(new std::atomic<std::byte*>[kCArenaMaxChunks]());
    }
    bytes_.fetch_add(
        shards_.size() * kInitialSlots * sizeof(std::atomic<std::uint64_t>),
        std::memory_order_relaxed);
  } else {
    for (Shard& sh : shards_) {
      sh.table.store(new Table(kInitialSlots), std::memory_order_relaxed);
    }
    bytes_.fetch_add(shards_.size() * kInitialSlots * sizeof(Slot),
                     std::memory_order_relaxed);
  }
}

ShardedVisited::~ShardedVisited() {
  for (Shard& sh : shards_) {
    delete sh.table.load(std::memory_order_relaxed);
    delete sh.ctable.load(std::memory_order_relaxed);
    for (Table* t : sh.retired) delete t;
    for (CTable* t : sh.cretired) delete t;
    for (std::atomic<Node*>& c : sh.chunks) {
      delete[] c.load(std::memory_order_relaxed);
    }
    // cchunks / wchunks point into the ChunkStore, which owns them.
  }
}

ShardedVisited::Node* ShardedVisited::arena_node(const Shard& sh,
                                                 std::uint64_t index) const {
  const ArenaPos pos = arena_pos(index, kArenaFirstChunk);
  Node* base = sh.chunks[pos.chunk].load(std::memory_order_acquire);
  return base == nullptr ? nullptr : base + pos.offset;
}

std::uint64_t ShardedVisited::arena_alloc(Shard& sh) {
  const std::uint64_t index =
      sh.arena_next.fetch_add(1, std::memory_order_relaxed);
  const ArenaPos pos = arena_pos(index, kArenaFirstChunk);
  std::atomic<Node*>& slot = sh.chunks[pos.chunk];
  if (slot.load(std::memory_order_acquire) == nullptr) {
    // First visitor of this chunk allocates it; a losing racer frees its copy.
    Node* fresh = new Node[kArenaFirstChunk << pos.chunk];
    Node* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      bytes_.fetch_add((kArenaFirstChunk << pos.chunk) * sizeof(Node),
                       std::memory_order_relaxed);
    } else {
      delete[] fresh;
    }
  }
  return index;
}

std::byte* ShardedVisited::carena_ptr(const Shard& sh,
                                      std::uint64_t index48) const {
  if (index48 & kWideBit) {
    const ArenaPos pos = arena_pos(index48 & (kWideBit - 1), kArenaFirstChunk);
    std::byte* base = sh.wchunks[pos.chunk].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + pos.offset * wstride_;
  }
  const ArenaPos pos = carena_pos(index48);
  std::byte* base = sh.cchunks[pos.chunk].load(std::memory_order_acquire);
  return base == nullptr ? nullptr : base + pos.offset * nstride_;
}

std::uint64_t ShardedVisited::carena_alloc(Shard& sh, bool wide) {
  auto& next = wide ? sh.warena_next : sh.arena_next;
  const std::uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
  const ArenaPos pos =
      wide ? arena_pos(index, kArenaFirstChunk) : carena_pos(index);
  if (!wide && pos.chunk >= kCArenaMaxChunks) {
    // ~33M nodes per shard. Unreachable under the default resource guards;
    // a run this size wants more shards (--visited-shards / more threads).
    std::fprintf(stderr,
                 "mpb: collapse arena shard capacity exceeded "
                 "(raise visited_shards)\n");
    std::abort();
  }
  std::atomic<std::byte*>& slot =
      wide ? sh.wchunks[pos.chunk] : sh.cchunks[pos.chunk];
  if (slot.load(std::memory_order_acquire) == nullptr) {
    // ChunkStore chunks cannot be handed back, so chunk creation is mutex-
    // serialized (double-checked) instead of CAS-raced. chunk_mu is leaf-
    // level: nothing else is acquired under it, so a publisher blocked here
    // cannot deadlock a concurrent grow() spinning on its claimed slot.
    std::lock_guard<std::mutex> lock(sh.chunk_mu);
    if (slot.load(std::memory_order_relaxed) == nullptr) {
      const std::size_t nodes =
          wide ? (kArenaFirstChunk << pos.chunk) : carena_chunk_nodes(pos.chunk);
      slot.store(
          store_->alloc_chunk(nodes * (wide ? wstride_ : nstride_),
                              /*spillable=*/true),
          std::memory_order_release);
    }
  }
  return wide ? (kWideBit | index) : index;
}

ShardedVisited::CNodeView ShardedVisited::cview(const Shard& sh,
                                                std::uint64_t index48) const {
  CNodeView v;
  const std::byte* p = carena_ptr(sh, index48);
  if (p == nullptr) return v;
  if (index48 & kWideBit) {
    const auto* n = reinterpret_cast<const CNode*>(p);
    v = {n->parent, n->event, n->perm, true, p + sizeof(CNode)};
    return v;
  }
  const auto* n = reinterpret_cast<const NNode*>(p);
  StateHandle parent = kNoHandle;
  if (!(n->parent_idx == 0xFFFFFFFFu && n->parent_shard == 0xFFFFu)) {
    const std::uint64_t pidx =
        (n->parent_idx & 0x80000000u)
            ? (kWideBit | (n->parent_idx & 0x7FFFFFFFu))
            : n->parent_idx;
    parent = make_handle(n->parent_shard, pidx);
  }
  v = {parent, n->event, n->perm, false, p + sizeof(NNode)};
  return v;
}

bool ShardedVisited::tuple_matches(const CNodeView& v,
                                   const std::uint32_t* probe) const noexcept {
  if (v.wide) {
    return std::memcmp(v.tuple, probe, width_ * sizeof(std::uint32_t)) == 0;
  }
  const auto* t16 = reinterpret_cast<const std::uint16_t*>(v.tuple);
  for (std::uint32_t k = 0; k < width_; ++k) {
    // Stored values are < 0xFFFF by narrow eligibility, so an over-u16
    // probe word mismatches automatically.
    if (t16[k] != probe[k]) return false;
  }
  return true;
}

bool ShardedVisited::build_tuple(const State& s, bool intern_missing,
                                 std::uint32_t* out) const {
  unsigned w = 0;
  const auto put = [&](BlobStore& store, const std::byte* data,
                       std::size_t len) -> bool {
    const auto n = static_cast<std::uint32_t>(len);
    const std::uint32_t idx =
        intern_missing ? store.intern(data, n) : store.find(data, n);
    if (idx == BlobStore::kNoBlob) return false;
    out[w++] = idx;
    return true;
  };
  // Locals components: raw Value arrays (no padding), one per layout slice.
  if (layout_.locals.empty()) {
    const std::span<const Value> loc = s.locals();
    if (!put(*locals_blobs_, reinterpret_cast<const std::byte*>(loc.data()),
             loc.size() * sizeof(Value))) {
      return false;
    }
  } else {
    for (const auto& [off, len] : layout_.locals) {
      const std::span<const Value> sl = s.local_slice(off, len);
      if (!put(*locals_blobs_, reinterpret_cast<const std::byte*>(sl.data()),
               sl.size() * sizeof(Value))) {
        return false;
      }
    }
  }
  // Channel components: the per-receiver runs of the sorted network multiset
  // (contiguous because Message orders by receiver first). Concatenating the
  // runs in receiver order reproduces the sorted multiset exactly.
  std::vector<std::byte>& buf = tls_blob_buf;
  const std::vector<Message>& net = s.network();
  const std::uint32_t R = layout_.n_receivers == 0 ? 1 : layout_.n_receivers;
  std::size_t i = 0;
  for (std::uint32_t r = 0; r < R; ++r) {
    buf.clear();
    // The last component also absorbs any receiver beyond the layout, so the
    // split is total no matter what the layout says.
    while (i < net.size() && (net[i].receiver() == r || r + 1 == R)) {
      encode_message(net[i], buf);
      ++i;
    }
    if (!put(*channel_blobs_, buf.data(), buf.size())) return false;
  }
  return true;
}

ShardedVisited::TryInsert ShardedVisited::try_insert(
    Shard& sh, std::size_t shard_idx, Table& t, const State& s,
    std::uint64_t key, std::uint64_t fp_val, StateHandle parent,
    const Event* via, std::uint32_t perm, VisitedInsert& out) {
  const std::size_t mask = t.mask;
  std::size_t i = static_cast<std::size_t>(key) & mask;
  // Every slot this probe visits resolves to published-or-frozen before we
  // move on, so visiting all capacity slots without a match, an empty or a
  // frozen one proves the table is completely full of other entries.
  std::size_t probes = 0;
  for (;;) {
    if (probes++ > mask) return TryInsert::kTableFull;
    Slot& slot = t.slots[i];
    std::uint64_t v = slot.val.load(std::memory_order_acquire);
    unsigned spins = 0;
    // Resolve this slot to frozen / published / ours.
    for (;;) {
      if (v == kFrozen) {
        return TryInsert::kRetryFrozen;  // migration sealed it: new table
      }
      if (v == kClaimed) {             // another inserter is publishing
        spin_pause(spins);
        v = slot.val.load(std::memory_order_acquire);
        continue;
      }
      if (v == 0) {
        std::uint64_t expected = 0;
        if (slot.val.compare_exchange_weak(expected, kClaimed,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          // Claimed. Write the key (and, interned, the whole node) before the
          // release-store below makes the slot visible to other probes.
          slot.key.store(key, std::memory_order_relaxed);
          if (mode_ == VisitedMode::kFingerprint) {
            slot.val.store(fp_val, std::memory_order_release);
            out = {true, kNoHandle};
          } else {
            const std::uint64_t index = arena_alloc(sh);
            Node* n = arena_node(sh, index);
            n->s = s;
            if (via != nullptr) n->in_event = *via;
            n->parent = parent;
            n->perm = perm;
            slot.val.store(index + 1, std::memory_order_release);
            out = {true, make_handle(shard_idx, index)};
          }
          t.count.fetch_add(1, std::memory_order_relaxed);
          return TryInsert::kDone;
        }
        v = expected;  // lost the claim; re-resolve with the fresh value
        continue;
      }
      break;  // a published payload
    }
    // Published entry: equal means present (first writer wins).
    if (slot.key.load(std::memory_order_relaxed) == key) {
      if (mode_ == VisitedMode::kFingerprint) {
        if (v == fp_val) {
          out = {false, kNoHandle};
          return TryInsert::kDone;
        }
      } else {
        const Node* n = arena_node(sh, v - 1);
        if (n->s == s) {
          out = {false, make_handle(shard_idx, v - 1)};
          return TryInsert::kDone;
        }
      }
    }
    i = (i + 1) & mask;
  }
}

ShardedVisited::TryInsert ShardedVisited::ctry_insert(
    Shard& sh, std::size_t shard_idx, CTable& t, const std::uint32_t* tuple,
    std::uint32_t key32, StateHandle parent, const Event* via,
    std::uint32_t perm, VisitedInsert& out) {
  const std::size_t mask = t.mask;
  std::size_t i = key32 & mask;
  std::size_t probes = 0;
  for (;;) {
    if (probes++ > mask) return TryInsert::kTableFull;
    std::atomic<std::uint64_t>& slot = t.slots[i];
    std::uint64_t v = slot.load(std::memory_order_acquire);
    unsigned spins = 0;
    // Resolve this slot to frozen / published / foreign-claim / ours.
    for (;;) {
      if (v == kCFrozenWord) return TryInsert::kRetryFrozen;
      if (static_cast<std::uint32_t>(v) == kCClaimed) {
        // The claim already carries its key, so only a claim with *our* key
        // can be publishing our state; any other claim is just an occupied
        // slot and the probe moves on without spinning.
        if ((v >> 32) != key32) break;
        spin_pause(spins);
        v = slot.load(std::memory_order_acquire);
        continue;
      }
      if (v == 0) {
        std::uint64_t expected = 0;
        if (slot.compare_exchange_weak(expected, cslot_word(key32, kCClaimed),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          // Claimed. Write the whole node, then publish key and arena index
          // in one release-store. Narrow when every value fits u16; the
          // wide lane takes the overflow (kWideBit marks it in both the
          // index and the slot value's top bit).
          std::uint32_t event = 0;
          if (via != nullptr) {
            std::vector<std::byte>& buf = tls_blob_buf;
            buf.clear();
            encode_event(*via, buf);
            event = event_blobs_->intern(
                        buf.data(), static_cast<std::uint32_t>(buf.size())) +
                    1;
          }
          bool narrow = perm < 0xFFFFu;
          for (std::uint32_t k = 0; narrow && k < width_; ++k) {
            narrow = tuple[k] < 0xFFFFu;
          }
          const std::uint64_t index48 = carena_alloc(sh, !narrow);
          std::byte* p = carena_ptr(sh, index48);
          if (narrow) {
            auto* n = new (p) NNode;
            if (parent == kNoHandle) {
              n->parent_idx = 0xFFFFFFFFu;
              n->parent_shard = 0xFFFFu;
            } else {
              const std::uint64_t pidx = parent & kHandleIndexMask;
              n->parent_idx =
                  (pidx & kWideBit)
                      ? (0x80000000u |
                         static_cast<std::uint32_t>(pidx & (kWideBit - 1)))
                      : static_cast<std::uint32_t>(pidx);
              n->parent_shard =
                  static_cast<std::uint16_t>(parent >> kHandleIndexBits);
            }
            n->perm = static_cast<std::uint16_t>(perm);
            n->event = event;
            auto* t16 = reinterpret_cast<std::uint16_t*>(p + sizeof(NNode));
            for (std::uint32_t k = 0; k < width_; ++k) {
              t16[k] = static_cast<std::uint16_t>(tuple[k]);
            }
          } else {
            auto* n = new (p) CNode;
            n->parent = parent;
            n->perm = perm;
            n->event = event;
            std::memcpy(p + sizeof(CNode), tuple,
                        width_ * sizeof(std::uint32_t));
          }
          const std::uint32_t val =
              static_cast<std::uint32_t>(index48 & (kWideBit - 1)) + 1 +
              ((index48 & kWideBit) ? 0x80000000u : 0u);
          slot.store(cslot_word(key32, val), std::memory_order_release);
          out = {true, make_handle(shard_idx, index48)};
          t.count.fetch_add(1, std::memory_order_relaxed);
          return TryInsert::kDone;
        }
        v = expected;  // lost the claim; re-resolve with the fresh value
        continue;
      }
      break;  // a published payload
    }
    // Published (or foreign-claimed) entry: on a key match the tuple compare
    // decides — tuple equality <=> state equality because components intern
    // exactly once.
    if ((v >> 32) == key32 && static_cast<std::uint32_t>(v) != kCClaimed) {
      const std::uint64_t index48 = cval_index(static_cast<std::uint32_t>(v));
      if (tuple_matches(cview(sh, index48), tuple)) {
        out = {false, make_handle(shard_idx, index48)};
        return TryInsert::kDone;
      }
    }
    i = (i + 1) & mask;
  }
}

void ShardedVisited::grow(Shard& sh, Table* old) {
  std::lock_guard<std::mutex> lock(sh.grow_mu);
  if (sh.table.load(std::memory_order_relaxed) != old) return;  // already done

  const std::size_t old_cap = old->mask + 1;
  auto* fresh = new Table(old_cap * 2);
  bytes_.fetch_add(old_cap * 2 * sizeof(Slot), std::memory_order_relaxed);
  std::size_t copied = 0;
  for (std::size_t i = 0; i <= old->mask; ++i) {
    Slot& slot = old->slots[i];
    unsigned spins = 0;
    for (;;) {
      std::uint64_t v = slot.val.load(std::memory_order_acquire);
      if (v == kClaimed) {  // wait for the in-flight publish, then migrate it
        spin_pause(spins);
        continue;
      }
      if (v == 0) {
        // Seal the empty slot so no new claim can land behind our back; a
        // racing claim simply wins the CAS and we re-resolve.
        if (slot.val.compare_exchange_weak(v, kFrozen,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
          break;
        }
        continue;
      }
      // Published payload: re-slot it in the new table. No other thread can
      // touch `fresh` until the release-store installs it, so plain relaxed
      // stores suffice here.
      const std::uint64_t key = slot.key.load(std::memory_order_relaxed);
      std::size_t j = static_cast<std::size_t>(key) & fresh->mask;
      while (fresh->slots[j].val.load(std::memory_order_relaxed) != 0) {
        j = (j + 1) & fresh->mask;
      }
      fresh->slots[j].key.store(key, std::memory_order_relaxed);
      fresh->slots[j].val.store(v, std::memory_order_relaxed);
      ++copied;
      break;
    }
  }
  fresh->count.store(copied, std::memory_order_relaxed);
  sh.table.store(fresh, std::memory_order_release);
  if (serial_.load(std::memory_order_relaxed)) {
    // Serial search: no concurrent probe can be walking the old table.
    bytes_.fetch_sub(old_cap * sizeof(Slot), std::memory_order_relaxed);
    delete old;
  } else {
    // Old tables are retired, not freed: concurrent probes may still be
    // walking them. Their sizes form a geometric series bounded by the live
    // table.
    sh.retired.push_back(old);
  }
}

void ShardedVisited::cgrow(Shard& sh, CTable* old) {
  std::lock_guard<std::mutex> lock(sh.grow_mu);
  if (sh.ctable.load(std::memory_order_relaxed) != old) return;  // already done

  const std::size_t old_cap = old->mask + 1;
  auto* fresh = new CTable(old_cap * 2);
  bytes_.fetch_add(old_cap * 2 * sizeof(std::atomic<std::uint64_t>),
                   std::memory_order_relaxed);
  std::size_t copied = 0;
  for (std::size_t i = 0; i <= old->mask; ++i) {
    std::atomic<std::uint64_t>& slot = old->slots[i];
    unsigned spins = 0;
    for (;;) {
      std::uint64_t v = slot.load(std::memory_order_acquire);
      if (static_cast<std::uint32_t>(v) == kCClaimed) {
        spin_pause(spins);  // wait for the in-flight publish, then migrate it
        continue;
      }
      if (v == 0) {
        // Seal the empty slot so no new claim can land behind our back.
        if (slot.compare_exchange_weak(v, kCFrozenWord,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          break;
        }
        continue;
      }
      // Published: re-slot by the stored key (the probe position derives
      // from the key alone, which is why the key must seed the probe).
      const auto key = static_cast<std::uint32_t>(v >> 32);
      std::size_t j = key & fresh->mask;
      while (fresh->slots[j].load(std::memory_order_relaxed) != 0) {
        j = (j + 1) & fresh->mask;
      }
      fresh->slots[j].store(v, std::memory_order_relaxed);
      ++copied;
      break;
    }
  }
  fresh->count.store(copied, std::memory_order_relaxed);
  sh.ctable.store(fresh, std::memory_order_release);
  if (serial_.load(std::memory_order_relaxed)) {
    bytes_.fetch_sub(old_cap * sizeof(std::atomic<std::uint64_t>),
                     std::memory_order_relaxed);
    delete old;
  } else {
    sh.cretired.push_back(old);
  }
}

VisitedInsert ShardedVisited::insert(const State& s, const Fingerprint& fp,
                                     StateHandle parent, const Event* via,
                                     std::uint32_t perm) {
  const std::size_t shard_idx = fp.hi & (shards_.size() - 1);
  Shard& sh = shards_[shard_idx];
  VisitedInsert out;
  unsigned spins = 0;
  if (mode_ == VisitedMode::kCollapse) {
    // Intern the components up front: for a fresh state this is the insert's
    // real work, for a duplicate every intern() is a pure lookup returning
    // the existing index.
    tls_tuple.resize(width_);
    build_tuple(s, /*intern_missing=*/true, tls_tuple.data());
    // Probe by fp.lo's top half: the shard index eats fp.hi bits and the
    // bottom half would correlate probe starts across table sizes.
    const auto key32 = static_cast<std::uint32_t>(fp.lo >> 32);
    for (;;) {
      CTable* t = sh.ctable.load(std::memory_order_acquire);
      const TryInsert r = ctry_insert(sh, shard_idx, *t, tls_tuple.data(),
                                      key32, parent, via, perm, out);
      if (r == TryInsert::kDone) break;
      if (r == TryInsert::kTableFull) {
        cgrow(sh, t);
        continue;
      }
      spin_pause(spins);  // kRetryFrozen: a migration is installing the table
    }
    if (out.inserted) {
      total_.fetch_add(1, std::memory_order_relaxed);
      CTable* t = sh.ctable.load(std::memory_order_acquire);
      if ((t->count.load(std::memory_order_relaxed) + 1) * 10 >=
          (t->mask + 1) * 7) {
        cgrow(sh, t);
      }
    }
    return out;
  }
  const std::uint64_t key = fp.lo;
  const std::uint64_t fp_val = occupied_val(fp.hi);
  for (;;) {
    Table* t = sh.table.load(std::memory_order_acquire);
    const TryInsert r =
        try_insert(sh, shard_idx, *t, s, key, fp_val, parent, via, perm, out);
    if (r == TryInsert::kDone) break;
    if (r == TryInsert::kTableFull) {
      // A claim burst outran the grow threshold and filled the table before
      // any migration froze it. Drive the growth ourselves (grow() is
      // idempotent per table: the mutex + identity check make extra callers
      // no-ops) instead of spinning on a table that can never admit us.
      grow(sh, t);
      continue;
    }
    spin_pause(spins);  // kRetryFrozen: a migration is installing the table
  }
  if (out.inserted) {
    total_.fetch_add(1, std::memory_order_relaxed);
    // Slot tables and arena chunks are charged at allocation (ctor, grow,
    // arena_alloc, ChunkStore); the only per-insert cost left is the interned
    // node's out-of-line heap payload — measured off the *stored* node's own
    // buffers at allocator granularity (heap_block_bytes), so the guard sees
    // what the allocator really carved out, not just the requested bytes.
    if (mode_ == VisitedMode::kInterned) {
      const Node* n = node_at(out.handle);
      const std::uint64_t b =
          heap_block_bytes(n->s.locals().data(),
                           n->s.locals().size() * sizeof(Value)) +
          heap_block_bytes(n->s.network().data(),
                           n->s.network().size() * sizeof(Message)) +
          heap_block_bytes(n->in_event.consumed.data(),
                           n->in_event.consumed.size() * sizeof(Message));
      bytes_.fetch_add(b, std::memory_order_relaxed);
    }
    Table* t = sh.table.load(std::memory_order_acquire);
    if ((t->count.load(std::memory_order_relaxed) + 1) * 10 >=
        (t->mask + 1) * 7) {
      grow(sh, t);
    }
  }
  return out;
}

bool ShardedVisited::contains(const State& s, const Fingerprint& fp) const {
  const Shard& sh = shards_[fp.hi & (shards_.size() - 1)];
  // Entries are never removed and a probe chain never crosses a slot that was
  // empty when its entries were inserted, so one table snapshot is enough: a
  // frozen slot was empty at freeze time and reads as "absent" (any entry
  // inserted later lives in a newer table, concurrent with this lookup).
  if (mode_ == VisitedMode::kCollapse) {
    // A lookup never interns. If any component is absent from its blob store
    // the state cannot have been inserted (an insert publishes its
    // components before its slot), so absence is a sound "not visited".
    tls_tuple.resize(width_);
    if (!build_tuple(s, /*intern_missing=*/false, tls_tuple.data())) {
      return false;
    }
    const auto key32 = static_cast<std::uint32_t>(fp.lo >> 32);
    const CTable* t = sh.ctable.load(std::memory_order_acquire);
    std::size_t i = key32 & t->mask;
    std::size_t probes = 0;
    for (;;) {
      if (probes++ > t->mask) return false;
      std::uint64_t v = t->slots[i].load(std::memory_order_acquire);
      unsigned spins = 0;
      // Only a claim carrying our key could be the sought state mid-publish.
      while (static_cast<std::uint32_t>(v) == kCClaimed &&
             (v >> 32) == key32) {
        spin_pause(spins);
        v = t->slots[i].load(std::memory_order_acquire);
      }
      if (v == 0 || v == kCFrozenWord) return false;
      if ((v >> 32) == key32 && static_cast<std::uint32_t>(v) != kCClaimed) {
        const std::uint64_t index48 =
            cval_index(static_cast<std::uint32_t>(v));
        if (tuple_matches(cview(sh, index48), tls_tuple.data())) return true;
      }
      i = (i + 1) & t->mask;
    }
  }
  const std::uint64_t key = fp.lo;
  const std::uint64_t fp_val = occupied_val(fp.hi);
  const Table* t = sh.table.load(std::memory_order_acquire);
  std::size_t i = static_cast<std::size_t>(key) & t->mask;
  std::size_t probes = 0;
  for (;;) {
    if (probes++ > t->mask) return false;  // wrapped a completely full table
    const Slot& slot = t->slots[i];
    std::uint64_t v = slot.val.load(std::memory_order_acquire);
    unsigned spins = 0;
    while (v == kClaimed) {  // could be the sought key mid-publish: wait
      spin_pause(spins);
      v = slot.val.load(std::memory_order_acquire);
    }
    if (v == 0 || v == kFrozen) return false;
    if (slot.key.load(std::memory_order_relaxed) == key) {
      if (mode_ == VisitedMode::kFingerprint) {
        if (v == fp_val) return true;
      } else {
        const Node* n = arena_node(sh, v - 1);
        if (n->s == s) return true;
      }
    }
    i = (i + 1) & t->mask;
  }
}

const ShardedVisited::Node* ShardedVisited::node_at(StateHandle h) const {
  if (h == kNoHandle || mode_ != VisitedMode::kInterned) return nullptr;
  const std::size_t shard_idx = static_cast<std::size_t>(h >> kHandleIndexBits);
  const std::uint64_t index = h & kHandleIndexMask;
  if (shard_idx >= shards_.size()) return nullptr;
  const Shard& sh = shards_[shard_idx];
  if (index >= sh.arena_next.load(std::memory_order_acquire)) return nullptr;
  // Handles only escape through published slots or insert results, both of
  // which happen after the node's fields are fully written; the node is
  // immutable from then on, so no lock is needed to read it.
  return arena_node(sh, index);
}

ShardedVisited::CNodeView ShardedVisited::cview_at(StateHandle h) const {
  if (h == kNoHandle || mode_ != VisitedMode::kCollapse) return {};
  const std::size_t shard_idx = static_cast<std::size_t>(h >> kHandleIndexBits);
  const std::uint64_t index48 = h & kHandleIndexMask;
  if (shard_idx >= shards_.size()) return {};
  const Shard& sh = shards_[shard_idx];
  const std::uint64_t idx = index48 & (kWideBit - 1);
  const auto& next = (index48 & kWideBit) ? sh.warena_next : sh.arena_next;
  if (idx >= next.load(std::memory_order_acquire)) return {};
  return cview(sh, index48);
}

std::vector<Event> ShardedVisited::path_from_root(StateHandle h) const {
  std::vector<Event> events;
  if (mode_ == VisitedMode::kCollapse) {
    for (;;) {
      const CNodeView v = cview_at(h);
      if (v.tuple == nullptr) break;
      if (v.parent == kNoHandle) break;  // the root contributes no event
      if (v.event != 0) {
        events.push_back(decode_event(event_blobs_->get(v.event - 1)));
      }
      h = v.parent;
    }
  } else {
    while (const Node* n = node_at(h)) {
      if (n->parent == kNoHandle) break;  // the root contributes no event
      events.push_back(n->in_event);
      h = n->parent;
    }
  }
  std::reverse(events.begin(), events.end());
  return events;
}

const State* ShardedVisited::state_at(StateHandle h) const {
  const Node* n = node_at(h);
  return n != nullptr ? &n->s : nullptr;
}

std::optional<State> ShardedVisited::materialize(StateHandle h) const {
  if (mode_ == VisitedMode::kInterned) {
    const Node* n = node_at(h);
    if (n == nullptr) return std::nullopt;
    return n->s;
  }
  if (mode_ != VisitedMode::kCollapse) return std::nullopt;
  const CNodeView v = cview_at(h);
  if (v.tuple == nullptr) return std::nullopt;
  // Component indices are stored u16 in the narrow lane, u32 in the wide one.
  const auto comp = [&v](unsigned k) -> std::uint32_t {
    return v.wide ? reinterpret_cast<const std::uint32_t*>(v.tuple)[k]
                  : reinterpret_cast<const std::uint16_t*>(v.tuple)[k];
  };
  unsigned w = 0;
  // Locals: copy each component blob back into its layout slice.
  std::vector<Value> locals;
  if (layout_.locals.empty()) {
    const std::span<const std::byte> blob = locals_blobs_->get(comp(w++));
    locals.resize(blob.size() / sizeof(Value));
    if (!blob.empty()) std::memcpy(locals.data(), blob.data(), blob.size());
  } else {
    std::size_t total = 0;
    for (const auto& [off, len] : layout_.locals) {
      total = std::max(total, static_cast<std::size_t>(off) + len);
    }
    locals.resize(total);
    for (const auto& [off, len] : layout_.locals) {
      const std::span<const std::byte> blob = locals_blobs_->get(comp(w++));
      if (!blob.empty()) {
        std::memcpy(locals.data() + off, blob.data(), blob.size());
      }
    }
  }
  // Network: decode the per-receiver runs; concatenated in receiver order
  // they already form the sorted multiset (the State ctor re-sorts anyway).
  std::vector<Message> net;
  const std::uint32_t R = layout_.n_receivers == 0 ? 1 : layout_.n_receivers;
  for (std::uint32_t r = 0; r < R; ++r) {
    const std::span<const std::byte> blob = channel_blobs_->get(comp(w++));
    std::size_t pos = 0;
    while (pos < blob.size()) net.push_back(decode_message(blob, pos));
  }
  return State(std::move(locals), std::move(net));
}

bool ShardedVisited::parent_link(StateHandle h, StateHandle* parent,
                                 Event* ev) const {
  *parent = kNoHandle;
  *ev = Event{};
  if (mode_ == VisitedMode::kCollapse) {
    const CNodeView v = cview_at(h);
    if (v.tuple == nullptr) return false;
    *parent = v.parent;
    if (v.parent != kNoHandle && v.event != 0) {
      *ev = decode_event(event_blobs_->get(v.event - 1));
    }
    return true;
  }
  const Node* n = node_at(h);
  if (n == nullptr) return false;
  *parent = n->parent;
  if (n->parent != kNoHandle) *ev = n->in_event;
  return true;
}

StateHandle ShardedVisited::parent_of(StateHandle h) const {
  if (mode_ == VisitedMode::kCollapse) {
    return cview_at(h).parent;  // default view carries kNoHandle
  }
  const Node* n = node_at(h);
  return n != nullptr ? n->parent : kNoHandle;
}

std::uint32_t ShardedVisited::perm_of(StateHandle h) const {
  if (mode_ == VisitedMode::kCollapse) {
    return cview_at(h).perm;  // default view carries 0
  }
  const Node* n = node_at(h);
  return n != nullptr ? n->perm : 0;
}

ShardedVisited::DenseNumbering ShardedVisited::dense_numbering() const {
  DenseNumbering d;
  d.base_.reserve(2 * shards_.size() + 1);
  std::uint64_t total = 0;
  const bool graph = visited_stores_graph(mode_);
  for (const Shard& sh : shards_) {
    d.base_.push_back(total);
    if (graph) total += sh.arena_next.load(std::memory_order_acquire);
    d.base_.push_back(total);
    if (graph) total += sh.warena_next.load(std::memory_order_acquire);
  }
  d.base_.push_back(total);
  return d;
}

StateHandle ShardedVisited::DenseNumbering::handle(
    std::uint64_t dense) const noexcept {
  // The last lane whose base is <= dense; empty lanes share their
  // successor's base, so upper_bound skips them.
  const auto lane = static_cast<std::uint64_t>(
      std::upper_bound(base_.begin(), base_.end(), dense) - base_.begin() - 1);
  return make_handle(static_cast<std::size_t>(lane / 2),
                     ((lane & 1) != 0 ? kWideBit : 0) | (dense - base_[lane]));
}

std::uint64_t ShardedVisited::approx_bytes() const noexcept {
  std::uint64_t b = bytes_.load(std::memory_order_relaxed);
  if (mode_ == VisitedMode::kCollapse) {
    // Resident chunk bytes (node arenas + blob entry/payload pools; spilled
    // chunks excluded) plus the blob stores' heap-side slot tables.
    b += store_->resident_bytes() + locals_blobs_->heap_bytes() +
         channel_blobs_->heap_bytes() + event_blobs_->heap_bytes();
  }
  return b;
}

std::uint64_t ShardedVisited::spilled_bytes() const noexcept {
  return mode_ == VisitedMode::kCollapse ? store_->spilled_bytes() : 0;
}

}  // namespace mpb
