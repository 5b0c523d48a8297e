// Sharded visited set for the stateful explorer — and, in interned mode, the
// search's *state graph*.
//
// The visited set is the hottest shared structure of a stateful search: one
// probe+insert per generated successor. This implementation shards the key
// space over N independent open-addressing tables (power-of-two sized, linear
// probing, grown at ~70% load) and makes every probe and insert *lock-free*:
// a slot is a pair of atomics and insertion follows a claim/publish protocol
// (CAS an empty slot's value to a claim sentinel, write the payload, then
// release-store the real value), so concurrent workers never take a mutex on
// the hot path — not even when their states land in the same shard. The only
// mutex left guards table *growth*, which freezes the old table's empty slots
// (CAS 0 -> frozen), migrates the published entries, and swaps in a table of
// twice the size; inserts that race with a migration simply retry on the new
// table. See docs/ARCHITECTURE.md ("The lock-free slot protocol") for the
// ordering argument.
//
// Three storage modes:
//  * kFingerprint — a slot is the state's 128-bit fingerprint (16 bytes).
//    Probabilistic: a fingerprint collision silently merges two states
//    (probability ~ N^2/2^129; the mode the paper's big runs use).
//  * kInterned — exact semantics at near-fingerprint probe cost. Each shard
//    interns its states in a lock-free chunked arena (stable addresses,
//    geometrically growing chunks) and a slot holds {probe key, arena index}.
//    A probe compares the full state only on a 64-bit key match, so the arena
//    is touched at most once per lookup in expectation.
//  * kCollapse — exact semantics at an order of magnitude fewer bytes per
//    state (SPIN's COLLAPSE compression). Each process's locals block, each
//    receiver's channel multiset and each incoming event is interned exactly
//    once in a shared lock-free BlobStore (core/collapse.hpp), and the arena
//    node stores only a fixed-width tuple of small component indices plus the
//    parent handle and event index. Because component interning compares full
//    contents, tuple equality <=> state equality, so a key match resolves by
//    one W-word memcmp instead of a full state compare. The node arena lives
//    in a ChunkStore and can spill cold chunks to an mmap-backed file
//    (core/spill.hpp); the blob pools stay pinned.
//
// Interned entries additionally record how the search first reached them: the
// handle of the parent entry and the incoming event. That turns the arena
// into a spanning tree of the explored state graph, and `path_from_root`
// recovers the event sequence from the initial state to any entry — which is
// how parallel searches reconstruct counterexample traces without a DFS
// stack (replay the events through execute()). The node (state, parent
// handle, incoming event) is fully written *before* the slot's release-store
// publishes its arena index, so a reader can never observe a half-written
// entry. The cost is one Event (a transition id plus the consumed-message
// vector) and 8 parent bytes per unique state; fingerprint mode stores
// neither and cannot reconstruct.
//
// VisitedMode::kExact (the seed's std::unordered_set<State> of full copies)
// is kept in the explorer as the sequential reference implementation for
// differential testing; parallel searches upgrade it to kInterned, which has
// identical (exact) semantics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/collapse.hpp"
#include "core/spill.hpp"
#include "core/state.hpp"
#include "core/transition.hpp"
#include "util/hash.hpp"

namespace mpb {

enum class VisitedMode {
  kExact,        // full State copies, std::unordered_set (sequential reference)
  kFingerprint,  // 128-bit fingerprints only (probabilistic, memory-flat)
  kInterned,     // arena-interned state graph + 16-byte table handles (exact)
  kCollapse,     // component-interned state graph (exact, compressed, spillable)
};

// Modes that record the spanning tree of the explored state graph (parent
// handles + incoming events) and therefore support path_from_root /
// materialize — what the SCC ignoring pass and parallel trace reconstruction
// require.
[[nodiscard]] constexpr bool visited_stores_graph(VisitedMode m) noexcept {
  return m == VisitedMode::kInterned || m == VisitedMode::kCollapse;
}

[[nodiscard]] std::string_view to_string(VisitedMode m) noexcept;
// Inverse of to_string; nullopt on an unknown name. The single parser shared
// by mpbcheck --visited, the MPB_VISITED env knob and the benches.
[[nodiscard]] std::optional<VisitedMode> visited_mode_from_string(
    std::string_view name) noexcept;

// Handle of an interned entry: shard index in the top 16 bits, arena index in
// the low 48. kNoHandle marks "no entry" — the root's parent, and every
// handle produced by the exact/fingerprint modes (which intern nothing).
using StateHandle = std::uint64_t;
inline constexpr StateHandle kNoHandle = ~std::uint64_t{0};
inline constexpr unsigned kHandleIndexBits = 48;  // bits below the shard

struct VisitedInsert {
  bool inserted = false;         // true iff the state was newly inserted
  StateHandle handle = kNoHandle;  // the entry (new or existing); interned only
};

class ShardedVisited {
 public:
  // `shards` is rounded up to a power of two and clamped to [1, 1024]. The
  // two-argument form uses the default collapse layout (one locals component,
  // one channel component) and no spilling when mode is kCollapse.
  explicit ShardedVisited(VisitedMode mode, unsigned shards = 1);
  // Collapse-aware form: `layout` describes the per-process / per-receiver
  // component split (CollapseLayout::from(protocol) for real runs) and
  // `spill` configures the optional mmap spill tier for the node arena. Both
  // are ignored outside kCollapse mode.
  ShardedVisited(VisitedMode mode, unsigned shards, CollapseLayout layout,
                 SpillConfig spill);
  ~ShardedVisited();

  ShardedVisited(const ShardedVisited&) = delete;
  ShardedVisited& operator=(const ShardedVisited&) = delete;

  // Inserts `s` (whose fingerprint is `fp`), recording `parent`, `*via`
  // (the event that produced `s` from the parent entry) and `perm` (the
  // index of the symmetry permutation that mapped the concrete successor
  // onto the stored canonical state; 0 = identity) when the entry is new.
  // `via` may be null for the root. Returns whether the state was new and,
  // in interned mode, the handle of its (new or pre-existing) entry.
  // Thread-safe and lock-free (a racing table growth can briefly make an
  // insert wait for the migrated table).
  VisitedInsert insert(const State& s, const Fingerprint& fp,
                       StateHandle parent, const Event* via,
                       std::uint32_t perm = 0);
  bool insert(const State& s, const Fingerprint& fp) {
    return insert(s, fp, kNoHandle, nullptr).inserted;
  }
  bool insert(const State& s) { return insert(s, s.fingerprint()); }

  [[nodiscard]] bool contains(const State& s, const Fingerprint& fp) const;
  [[nodiscard]] bool contains(const State& s) const {
    return contains(s, s.fingerprint());
  }

  // --- state-graph queries (kInterned/kCollapse; empty/null otherwise) -----
  // Events along the recorded parent path from the root to `h`, in execution
  // order. Each entry's parent chain is fully published before its handle
  // becomes visible, so the walk is safe while other threads insert.
  [[nodiscard]] std::vector<Event> path_from_root(StateHandle h) const;
  // The interned state behind `h` (stable address; entries are immutable once
  // published), or nullptr for kNoHandle / non-interned modes. Collapse mode
  // stores no full copy — use materialize() there.
  [[nodiscard]] const State* state_at(StateHandle h) const;
  // A full copy of the state behind `h`: a plain copy in interned mode, a
  // reconstruction from the component tables in collapse mode. nullopt for
  // kNoHandle / fingerprint mode.
  [[nodiscard]] std::optional<State> materialize(StateHandle h) const;
  [[nodiscard]] StateHandle parent_of(StateHandle h) const;
  // One step of the parent walk: the parent handle and incoming event of
  // entry `h`, exactly as recorded at insert time. Parents are returned
  // verbatim — a caller that stored a foreign-shard handle (the distributed
  // driver's cross-rank links) gets it back unmodified and must resolve it
  // itself, which is what path_from_root cannot do. Returns false for
  // kNoHandle / unknown handles / non-graph modes; for the root `ev` is left
  // empty and `parent` is kNoHandle (the root contributes no event).
  bool parent_link(StateHandle h, StateHandle* parent, Event* ev) const;
  // The symmetry permutation recorded at insert time: the index (into the
  // reducer's permutation table) that maps the concrete state which first
  // reached this entry onto the stored canonical representative. 0 for
  // identity / no symmetry / unknown handles.
  [[nodiscard]] std::uint32_t perm_of(StateHandle h) const;

  [[nodiscard]] std::uint64_t size() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  // Dense numbering of the graph entries, for passes that index flat arrays
  // by state (the SCC ignoring pass). Entry `h` gets base(shard, lane) + its
  // arena index, where the bases are prefix sums of the shards' arena counts
  // in handle order (per shard the narrow lane, then the wide collapse
  // lane). Arena indices are handed out densely, so the numbering is a
  // bijection onto [0, size()) and a < b <=> of(a) < of(b). A snapshot:
  // entries inserted after dense_numbering() returned are not covered.
  class DenseNumbering {
   public:
    [[nodiscard]] std::uint64_t size() const noexcept { return base_.back(); }
    [[nodiscard]] std::uint64_t of(StateHandle h) const noexcept {
      const std::uint64_t lane =
          (h >> kHandleIndexBits) * 2 + ((h & kWideBit) != 0 ? 1 : 0);
      return base_[lane] + (h & (kWideBit - 1));
    }
    // Inverse of of(); `dense` must be below size().
    [[nodiscard]] StateHandle handle(std::uint64_t dense) const noexcept;

   private:
    friend class ShardedVisited;
    std::vector<std::uint64_t> base_;  // 2 * shards + 1 prefix sums
  };
  // Empty outside the graph modes.
  [[nodiscard]] DenseNumbering dense_numbering() const;

  // Bytes of state storage, counted at allocation granularity: every slot
  // table (live and retired), every arena chunk, and — in interned mode —
  // each node's heap payload (state locals + network + the incoming event's
  // consumed messages) as it is inserted. In collapse mode the chunk-backed
  // arenas and blob pools are metered by the ChunkStore and only *resident*
  // bytes count, so chunks spilled to the backing file do not press against
  // the resource guard's memory cap (ExploreConfig::guard), which polls this.
  [[nodiscard]] std::uint64_t approx_bytes() const noexcept;

  // Bytes of node-arena chunks currently advised out to the spill file.
  // Non-zero only in collapse mode with a spill directory configured.
  [[nodiscard]] std::uint64_t spilled_bytes() const noexcept;

  [[nodiscard]] VisitedMode mode() const noexcept { return mode_; }
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  // Serial-search declaration: the caller promises that at most one thread
  // ever probes or inserts at any moment (the sequential and DPOR drivers,
  // and a one-worker pool). Table growth may then free the old table
  // immediately instead of retiring it — without the promise a concurrent
  // probe could still be walking the old slots. Halves the steady-state
  // table footprint (retired sizes form a geometric series equal to the
  // live table). Set before the first insert; queries that only read
  // atomics (size, approx_bytes) remain safe from any thread.
  void set_serial(bool on) noexcept {
    serial_.store(on, std::memory_order_relaxed);
  }

 private:
  // One 16-byte open-addressing slot. `val` is the slot's state machine:
  //   0         empty (claimable)
  //   kClaimed  an inserter won the CAS and is writing key/payload
  //   kFrozen   a migration sealed this empty slot; inserters retry on the
  //             new table, readers treat it as empty
  //   else      published payload: occupied_val(fp.hi) in fingerprint mode,
  //             arena index + 1 in interned mode (collapse uses CTable below)
  // A slot only ever moves 0 -> kClaimed -> payload or 0 -> kFrozen, and
  // `key` is written exactly once, between claim and publish. Readers load
  // `val` with acquire before touching `key` or the arena node, so the
  // publisher's release-store makes both fully visible.
  struct Slot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> val{0};
  };

  struct Table {
    explicit Table(std::size_t capacity)
        : mask(capacity - 1), slots(new Slot[capacity]) {}
    const std::size_t mask;              // capacity - 1 (power of two)
    std::atomic<std::size_t> count{0};   // published entries (grow trigger)
    std::unique_ptr<Slot[]> slots;
  };

  // Collapse-mode table: one 8-byte slot per entry, `key32 << 32 | val32` in
  // a single atomic word. A 32-bit probe key is enough because every key
  // match is confirmed by the tuple memcmp anyway, and the probe position is
  // derived from the stored key itself so migration can re-slot entries
  // without the full fingerprint. The claim embeds the key, so publication
  // is a single release-store and probes for a *different* key can skip a
  // claimed slot without spinning. val32: 0 empty, kCClaimed, the frozen
  // word, else arena index + 1 (the arena caps far below 2^32).
  struct CTable {
    explicit CTable(std::size_t capacity)
        : mask(capacity - 1),
          slots(new std::atomic<std::uint64_t>[capacity]()) {}
    const std::size_t mask;
    std::atomic<std::size_t> count{0};
    std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  };

  // One interned state-graph node. All fields are written once, between the
  // slot claim and the publishing release-store; immutable afterwards.
  struct Node {
    State s;
    Event in_event;
    StateHandle parent = kNoHandle;
    // Symmetry permutation applied by the canonicalizer (0 = identity).
    std::uint32_t perm = 0;
  };

  // Collapse-mode nodes: a fixed header followed inline by width_ component
  // indices (locals components first, then channel components). Nodes live
  // in ChunkStore-backed byte chunks that may be spilled once cold, and
  // follow the same write-once publication discipline as Node. Two flavors
  // share each shard, distinguished by kWideBit in the arena index:
  //
  //  * NNode (narrow) — the common case: u16 component indices, u16 perm,
  //    packed 48-bit parent. Valid while every component index and the perm
  //    stay below 0xFFFF; 12 + 2*width bytes per state.
  //  * CNode (wide) — the overflow lane: full u32 indices and perm, u64
  //    parent. The first state whose encoding no longer fits narrow goes
  //    here (for these protocols that takes >64Ki distinct blobs in one
  //    component class); already-published narrow nodes stay valid because
  //    their values fit by construction.
  struct CNode {
    StateHandle parent;
    std::uint32_t event;  // events blob index + 1; 0 = none (root)
    std::uint32_t perm;
  };
  struct NNode {
    // Parent handle packed into 48 bits: arena index (bit 31 = the parent's
    // own kWideBit, low 31 bits its index) + shard. {0xFFFFFFFF, 0xFFFF}
    // encodes kNoHandle; a real index can never reach it (arena capacity is
    // far below 2^31).
    std::uint32_t parent_idx;
    std::uint16_t parent_shard;
    std::uint16_t perm;
    std::uint32_t event;  // events blob index + 1; 0 = none (root)
  };
  // Arena-index flag separating the two collapse lanes inside the 48-bit
  // handle index space.
  static constexpr std::uint64_t kWideBit = std::uint64_t{1} << 47;

  // Uniform read view over either node flavor. `tuple` is null when the
  // backing chunk is absent (never for a published handle); its element
  // width depends on `wide`.
  struct CNodeView {
    StateHandle parent = kNoHandle;
    std::uint32_t event = 0;
    std::uint32_t perm = 0;
    bool wide = false;
    const std::byte* tuple = nullptr;
  };

  // Lock-free chunked arena: chunk c holds kArenaFirstChunk << c nodes, so a
  // handful of chunk pointers cover the whole 48-bit index space and node
  // addresses never move. Indices are handed out by fetch_add; a chunk is
  // allocated by whoever first needs it (CAS-published, losers free theirs).
  static constexpr std::size_t kArenaFirstChunk = 256;
  static constexpr std::size_t kArenaMaxChunks = 40;
  // Collapse nodes are small and their chunks are the spill tier's eviction
  // unit, so the collapse arena stops growing chunks geometrically at 16Ki
  // nodes (see carena_pos in visited.cpp): the over-allocated tail and the
  // always-resident newest chunk stay bounded by one chunk (~1 MiB), at the
  // cost of a longer chunk directory (~33M nodes per shard; allocated only
  // in collapse mode).
  static constexpr std::size_t kCArenaMaxChunks = 2048;

  struct Shard {
    std::atomic<Table*> table{nullptr};    // exact/fingerprint/interned modes
    std::atomic<CTable*> ctable{nullptr};  // collapse mode
    // Growth only: serializes migrations; never taken by insert/contains.
    std::mutex grow_mu;
    // Old tables, freed in ~ShardedVisited — or immediately on growth when
    // the serial-search promise holds (set_serial).
    std::vector<Table*> retired;
    std::vector<CTable*> cretired;
    std::array<std::atomic<Node*>, kArenaMaxChunks> chunks{};
    // Collapse-mode node arenas: byte chunks of fixed-stride nodes from the
    // shared ChunkStore. chunk_mu serializes chunk *creation* only (the
    // store cannot take back a loser's chunk, so CAS-racing would leak);
    // never the probe or publish path, and never while grow_mu is wanted.
    // cchunks is the narrow lane (capped geometry, kCArenaMaxChunks long);
    // wchunks the rare wide lane (plain geometric, like the interned arena —
    // its over-allocation tail only matters once the overflow lane
    // dominates, at which point the run has outgrown narrow encoding
    // anyway).
    std::unique_ptr<std::atomic<std::byte*>[]> cchunks;
    std::array<std::atomic<std::byte*>, kArenaMaxChunks> wchunks{};
    std::mutex chunk_mu;
    std::atomic<std::uint64_t> arena_next{0};
    std::atomic<std::uint64_t> warena_next{0};
  };

  [[nodiscard]] const Node* node_at(StateHandle h) const;
  [[nodiscard]] Node* arena_node(const Shard& sh, std::uint64_t index) const;
  [[nodiscard]] std::uint64_t arena_alloc(Shard& sh);

  // Collapse-mode arena accessors. `index48` carries kWideBit; the raw
  // pointer is the node base in the lane's stride.
  [[nodiscard]] std::byte* carena_ptr(const Shard& sh,
                                      std::uint64_t index48) const;
  [[nodiscard]] std::uint64_t carena_alloc(Shard& sh, bool wide);
  // Decoded view of the node at `index48` in `sh` (tuple null if the chunk
  // is absent), and the same addressed by handle (mode/bounds-checked).
  [[nodiscard]] CNodeView cview(const Shard& sh, std::uint64_t index48) const;
  [[nodiscard]] CNodeView cview_at(StateHandle h) const;
  // Does the stored tuple equal the probe tuple (u32 words)? A narrow node
  // can only match when every probe word fits u16, which the elementwise
  // compare gives for free.
  [[nodiscard]] bool tuple_matches(const CNodeView& v,
                                   const std::uint32_t* probe) const noexcept;
  // Split `s` into component blobs and write their indices into out[0..
  // width_). With intern_missing, absent components are interned; otherwise
  // any absent component returns false (the state cannot be in the set).
  bool build_tuple(const State& s, bool intern_missing,
                   std::uint32_t* out) const;

  // Outcome of one table-level insert attempt: done, or retry on the next
  // table — either because a frozen slot showed a migration in flight, or
  // because the probe wrapped a completely full table (possible when a burst
  // of concurrent claims lands between the grow threshold and the freeze;
  // the caller then drives the growth itself so nobody livelocks).
  enum class TryInsert { kDone, kRetryFrozen, kTableFull };
  TryInsert try_insert(Shard& sh, std::size_t shard_idx, Table& t,
                       const State& s, std::uint64_t key, std::uint64_t fp_val,
                       StateHandle parent, const Event* via, std::uint32_t perm,
                       VisitedInsert& out);
  void grow(Shard& sh, Table* old);
  // Collapse-mode twins over the 8-byte-slot CTable. `tuple` is the state's
  // component tuple (width_ words); `key32` the probe key (fp.lo's top half).
  TryInsert ctry_insert(Shard& sh, std::size_t shard_idx, CTable& t,
                        const std::uint32_t* tuple, std::uint32_t key32,
                        StateHandle parent, const Event* via,
                        std::uint32_t perm, VisitedInsert& out);
  void cgrow(Shard& sh, CTable* old);

  VisitedMode mode_;
  mutable std::vector<Shard> shards_;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<bool> serial_{false};  // see set_serial
  // Slot tables + interned node payloads; collapse chunk/blob bytes are
  // metered by store_/the blob stores and added in approx_bytes().
  std::atomic<std::uint64_t> bytes_{0};

  // Collapse mode only (null otherwise). store_ backs the node arenas of all
  // shards (spillable chunks) and the blob pools (pinned chunks).
  CollapseLayout layout_;
  std::uint32_t width_ = 0;    // component indices per node
  std::uint32_t nstride_ = 0;  // bytes per NNode incl. u16 tuple, 4-aligned
  std::uint32_t wstride_ = 0;  // bytes per CNode incl. u32 tuple, 8-aligned
  std::unique_ptr<ChunkStore> store_;
  std::unique_ptr<BlobStore> locals_blobs_;
  std::unique_ptr<BlobStore> channel_blobs_;
  std::unique_ptr<BlobStore> event_blobs_;
};

}  // namespace mpb
