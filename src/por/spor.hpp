// Static partial-order reduction via stubborn sets — the MP-LPOR stand-in
// (Sections III-A, IV; tech report [9] describes the original).
//
// In every visited state the strategy:
//   1. picks a *seed transition* among the enabled ones using a heuristic
//      (the paper's "opposite transaction heuristic" prefers transitions that
//      start/continue a protocol instance — encoded as the `priority`
//      annotation);
//   2. closes the set: an enabled member pulls in everything dependent on it;
//      a disabled member pulls in one of its *necessary enabling sets* (NES):
//      the transitions that could furnish its missing messages, or the
//      same-process writers that could flip its guard. With
//      `state_dependent_nes` (the LPOR-NET mode of the user guide) the NES is
//      chosen by inspecting why the transition is disabled in this very state;
//      otherwise the conservative union of both sets is used (plain LPOR);
//   3. applies two provisos. Visibility (Valmari's V-condition): if the set
//      would execute a *visible* transition, every visible transition —
//      enabled or not — is added and the closure re-run, so no
//      property-relevant ordering is committed before its enablers are in
//      scope. Cycle (the ignoring problem; the paper assumes acyclic graphs,
//      we enforce it): either the classic *stack* proviso — no chosen
//      successor may close a DFS-stack cycle — or the parallel-safe
//      *visited-set* proviso — no chosen successor may land on an
//      already-inserted state (see spor.cpp for the proof of why the visited
//      set must reject *closed* states too). The visited-set proviso needs
//      no DFS stack, so SPOR runs on the parallel worker pool with it. A
//      third discharge defers the problem entirely: under CycleProviso::kScc
//      the search applies no in-search cycle proviso and the engine repairs
//      ignoring afterwards by re-expanding one state per ignored SCC of the
//      interned graph (core/engine.hpp), trading a cheap post-pass for the
//      reduction the visited probe loses to cross edges.
//      A seed whose set fails a proviso or yields no reduction is abandoned
//      and the next-best seed is tried; full expansion is the sound fallback.
//
// Every enabled transition of the closure is a key transition: all of its
// dependents are inside the set, so no outside transition can disable it —
// giving Valmari-style deadlock preservation.
#pragma once

#include <atomic>
#include <string>

#include "core/explorer.hpp"
#include "por/independence.hpp"

namespace mpb {

enum class SeedHeuristic {
  kOppositeTransaction,  // highest priority first (the paper's heuristic)
  kTransaction,          // lowest priority first ([5]-style, for the ablation)
  kFirst,                // lowest transition id (uninformed baseline)
};

[[nodiscard]] std::string_view to_string(SeedHeuristic h) noexcept;

// How the cycle proviso (the ignoring problem) is discharged.
enum class CycleProviso {
  kAuto,     // stack when a DFS stack is available, visited-set otherwise
  kStack,    // classic DFS-stack proviso; sequential searches only
  kVisited,  // visited-set proviso; parallel-safe (see spor.cpp for soundness)
  kScc,      // no in-search proviso; the engine's SCC-based ignoring fix
             // re-expands one state per ignored SCC as a post-pass over the
             // interned state graph (engine::ExpansionCore). Parallel-safe,
             // and recovers the reduction the visited probe loses to cross
             // edges; forces an interned visited set.
  kOff,      // no cycle proviso (unsound on cyclic graphs; ablations only)
};

[[nodiscard]] std::string_view to_string(CycleProviso p) noexcept;

struct SporOptions {
  SeedHeuristic seed = SeedHeuristic::kOppositeTransaction;
  bool state_dependent_nes = true;  // LPOR-NET when true, plain LPOR when false
  bool visibility_proviso = true;
  CycleProviso proviso = CycleProviso::kAuto;
  // Try further seeds when the preferred seed's stubborn set yields no
  // reduction or fails a proviso (an improvement over MP-LPOR, which computes
  // a single stubborn set per state; disable for the faithful single-seed
  // behaviour, where the heuristic's choice is decisive).
  bool seed_retry = true;
  // Evaluate every enabled seed and keep the smallest admissible stubborn set
  // instead of accepting the heuristic's first reducing seed. More stubborn-
  // set computations per state, often fewer states; the heuristic becomes the
  // tie-break. Used by the seed-heuristics ablation bench.
  bool exhaustive_seed = false;
};

class SporStrategy final : public ReductionStrategy {
 public:
  explicit SporStrategy(const Protocol& proto, SporOptions opts = {});

  // Reads only the immutable members built at construction and per-thread
  // scratch; thread-safe, so one instance may serve every worker of a
  // parallel search.
  std::vector<std::size_t> select(const State& s, std::span<const Event> events,
                                  const StrategyContext& ctx) override;

  [[nodiscard]] std::string_view name() const override { return "spor"; }

  // Only the stack proviso pins the search to a single DFS; every other
  // configuration can be driven by the parallel worker pool.
  [[nodiscard]] bool needs_dfs_stack() const override {
    return opts_.proviso == CycleProviso::kStack;
  }

  // The scc proviso applies no in-search cycle proviso and relies on the
  // engine's post-pass (see CycleProviso::kScc).
  [[nodiscard]] bool wants_scc_ignoring_pass() const override {
    return opts_.proviso == CycleProviso::kScc;
  }

  [[nodiscard]] std::uint64_t proviso_fallbacks() const override {
    return fallbacks_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const StaticRelations& relations() const noexcept { return rel_; }

  // Stubborn transition set of the heuristic's preferred seed for the given
  // enabled events, closed by the same routine as select() (no visibility
  // step, no cycle proviso); exposed for tests and bench/micro_core.cpp.
  // Returns the enabled transition ids in the set.
  [[nodiscard]] std::vector<TransitionId> stubborn_set(
      const State& s, std::span<const Event> events) const;

 private:
  // Per-thread selection scratch (spor.cpp). Each thread has one, reused by
  // every call it makes, so concurrent pool workers never share it; a probe
  // or successor callback must not re-enter select() on the same thread.
  struct Scratch;
  static Scratch& scratch();

  // Saturate the scratch's candidate set under the stubborn-set closure
  // rules. Gives up, returning false, once the set holds `stop_at` enabled
  // transitions (the closure only grows, so such a set cannot shrink back).
  bool close_over(const State& s, Scratch& sc, std::size_t stop_at) const;

  const Protocol& proto_;
  SporOptions opts_;
  StaticRelations rel_;
  // Candidate sets abandoned because of the cycle proviso (monotone; searches
  // report per-run deltas in ExploreStats::proviso_fallbacks).
  std::atomic<std::uint64_t> fallbacks_{0};
};

}  // namespace mpb
