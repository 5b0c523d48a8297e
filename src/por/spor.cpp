#include "por/spor.hpp"

#include <algorithm>

#include "core/enabled.hpp"

namespace mpb {

std::string_view to_string(SeedHeuristic h) noexcept {
  switch (h) {
    case SeedHeuristic::kOppositeTransaction: return "opposite-transaction";
    case SeedHeuristic::kTransaction: return "transaction";
    case SeedHeuristic::kFirst: return "first";
  }
  return "?";
}

std::string_view to_string(CycleProviso p) noexcept {
  switch (p) {
    case CycleProviso::kAuto: return "auto";
    case CycleProviso::kStack: return "stack";
    case CycleProviso::kVisited: return "visited";
    case CycleProviso::kScc: return "scc";
    case CycleProviso::kOff: return "off";
  }
  return "?";
}

SporStrategy::SporStrategy(const Protocol& proto, SporOptions opts)
    : proto_(proto), opts_(opts), rel_(proto) {}

// Per-thread scratch of select() and stubborn_set(), reused across calls so
// that selection allocates nothing but its result. Membership is stamped
// instead of cleared: stamps come from one per-thread 64-bit counter that
// only grows, so a stale stamp (from an earlier call, seed, or another
// strategy instance run by the same thread) never equals the current one.
//   is_enabled[t] == call  t is enabled in the state under selection;
//   in_set[t] == set       t is in the current seed's candidate set;
//   nes_at[t] == call      nes[t] caches pool_insufficient(s, t).
// `n_enabled_in` counts the enabled members of the current set.
struct SporStrategy::Scratch {
  std::vector<TransitionId> enabled;  // distinct enabled tids, ascending
  std::vector<TransitionId> seeds;    // `enabled` in heuristic order
  std::vector<TransitionId> work;
  std::vector<std::uint64_t> is_enabled;
  std::vector<std::uint64_t> in_set;
  std::vector<std::uint64_t> nes_at;
  std::vector<char> nes;
  std::uint64_t stamp = 0;
  std::uint64_t call = 0;
  std::uint64_t set = 0;
  std::size_t n_enabled_in = 0;

  // Begin a selection in a state whose distinct enabled tids are `enabled`.
  void begin_call(unsigned n_transitions) {
    if (in_set.size() < n_transitions) {
      is_enabled.resize(n_transitions, 0);
      in_set.resize(n_transitions, 0);
      nes_at.resize(n_transitions, 0);
      nes.resize(n_transitions, 0);
    }
    call = ++stamp;
    for (TransitionId t : enabled) is_enabled[t] = call;
  }

  // Begin an empty candidate set.
  void begin_set() {
    set = ++stamp;
    n_enabled_in = 0;
    work.clear();
  }

  void add(TransitionId t) {
    if (in_set[t] == set) return;
    in_set[t] = set;
    work.push_back(t);
    if (is_enabled[t] == call) ++n_enabled_in;
  }

  [[nodiscard]] bool contains(TransitionId t) const { return in_set[t] == set; }
};

SporStrategy::Scratch& SporStrategy::scratch() {
  thread_local Scratch sc;
  return sc;
}

namespace {

// Distinct enabled transition ids of `events` (grouped by tid, ascending).
void collect_enabled(std::span<const Event> events,
                     std::vector<TransitionId>& out) {
  out.clear();
  for (const Event& e : events) {
    if (out.empty() || out.back() != e.tid) out.push_back(e.tid);
  }
}

// Deterministic seed order for a heuristic: the preferred seed first. Ties
// keep ascending tid, so this equals a stable sort of `enabled` by priority
// (without the stable sort's temporary buffer).
void seed_order(const Protocol& proto, std::span<const TransitionId> enabled,
                SeedHeuristic h, std::vector<TransitionId>& out) {
  out.assign(enabled.begin(), enabled.end());
  auto prio = [&](TransitionId t) { return proto.transition(t).priority; };
  switch (h) {
    case SeedHeuristic::kOppositeTransaction:
      std::sort(out.begin(), out.end(), [&](TransitionId a, TransitionId b) {
        return prio(a) != prio(b) ? prio(a) > prio(b) : a < b;
      });
      break;
    case SeedHeuristic::kTransaction:
      std::sort(out.begin(), out.end(), [&](TransitionId a, TransitionId b) {
        return prio(a) != prio(b) ? prio(a) < prio(b) : a < b;
      });
      break;
    case SeedHeuristic::kFirst:
      break;  // ascending tid, as enumerated
  }
}

}  // namespace

bool SporStrategy::close_over(const State& s, Scratch& sc,
                              std::size_t stop_at) const {
  while (!sc.work.empty()) {
    if (sc.n_enabled_in >= stop_at) return false;
    const TransitionId t = sc.work.back();
    sc.work.pop_back();
    if (sc.is_enabled[t] == sc.call) {
      // Enabled member: everything dependent on it must be inside, so that t
      // stays a key transition and the commutation arguments apply.
      for (TransitionId d : rel_.dependents_of(t)) sc.add(d);
    } else {
      // Disabled member: one necessary enabling set (NES) must be inside.
      // If the pending pool cannot satisfy the arity, any enabling path must
      // first run a producer — producers alone are a valid NES. Otherwise the
      // guard rejected every candidate set, and it could be flipped either by
      // a same-process local write *or* by additional messages (a quorum
      // guard inspecting contents), so the union of both sets is required.
      // Every seed's closure asks the same question of `s`, so the answer is
      // memoized per call.
      bool producers_suffice = false;
      if (opts_.state_dependent_nes) {
        if (sc.nes_at[t] != sc.call) {
          sc.nes_at[t] = sc.call;
          sc.nes[t] = pool_insufficient(proto_, s, t) ? 1 : 0;
        }
        producers_suffice = sc.nes[t] != 0;
      }
      for (TransitionId p : rel_.producers_of(t)) sc.add(p);
      if (!producers_suffice) {
        for (TransitionId p : rel_.local_enablers_of(t)) sc.add(p);
      }
    }
  }
  return sc.n_enabled_in < stop_at;
}

std::vector<TransitionId> SporStrategy::stubborn_set(
    const State& s, std::span<const Event> events) const {
  Scratch& sc = scratch();
  collect_enabled(events, sc.enabled);
  if (sc.enabled.empty()) return {};
  seed_order(proto_, sc.enabled, opts_.seed, sc.seeds);
  sc.begin_call(rel_.n_transitions());
  sc.begin_set();
  sc.add(sc.seeds.front());
  close_over(s, sc, /*stop_at=*/sc.enabled.size() + 1);  // never stops early

  std::vector<TransitionId> result;
  for (TransitionId t : sc.enabled) {
    if (sc.contains(t)) result.push_back(t);
  }
  return result;
}

std::vector<std::size_t> SporStrategy::select(const State& s,
                                              std::span<const Event> events,
                                              const StrategyContext& ctx) {
  auto all = [&] {
    std::vector<std::size_t> idx(events.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    return idx;
  };
  if (events.size() <= 1) return all();

  Scratch& sc = scratch();
  collect_enabled(events, sc.enabled);
  if (sc.enabled.size() <= 1 &&
      !proto_.transition(sc.enabled.front()).visible) {
    // A single enabled transition must be taken in all its variants anyway.
    return all();
  }
  sc.begin_call(rel_.n_transitions());
  seed_order(proto_, sc.enabled, opts_.seed, sc.seeds);
  const std::size_t n_enabled = sc.enabled.size();

  // Try seeds in heuristic order; accept the first stubborn set that yields a
  // genuine reduction and passes both provisos (or, with exhaustive_seed, the
  // smallest such set). Falling through to the next seed (or to full
  // expansion) is always sound.
  //
  // A set that holds every enabled transition selects every event: no
  // reduction. The closure and the visibility step only ever add members, so
  // the moment the enabled count reaches n_enabled the seed is abandoned
  // without finishing either — the outcome is the one a completed set would
  // give.
  std::vector<std::size_t> best;
  bool have_best = false;
  for (const TransitionId seed : sc.seeds) {
    sc.begin_set();
    sc.add(seed);
    bool reduces = close_over(s, sc, n_enabled);

    // Visibility (Valmari's V-condition): if the set executes a visible
    // transition, *every* visible transition — enabled or not — must be in
    // the set, so its enablers are explored before orderings are committed.
    if (reduces && opts_.visibility_proviso) {
      bool executes_visible = false;
      for (TransitionId t : sc.enabled) {
        if (sc.contains(t) && proto_.transition(t).visible) {
          executes_visible = true;
          break;
        }
      }
      if (executes_visible) {
        for (TransitionId t = 0; t < rel_.n_transitions(); ++t) {
          if (proto_.transition(t).visible) sc.add(t);
        }
        reduces = close_over(s, sc, n_enabled);
      }
    }

    if (!reduces) {
      if (!opts_.seed_retry) break;  // single-seed mode: give up, expand fully
      continue;  // no reduction; next seed
    }
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (sc.contains(events[i].tid)) chosen.push_back(i);
    }

    // Cycle proviso — the ignoring problem: around a cycle of the reduced
    // graph, transitions outside every chosen set would be postponed forever.
    //
    //  * kStack (sequential DFS): no chosen successor may lie on the DFS
    //    stack. Sound because any cycle's back edge targets a stack state.
    //  * kVisited (parallel-safe): no chosen successor may already be in the
    //    visited set — open *or* closed. Soundness under any schedule: each
    //    state is expanded once, after being inserted. If every state of a
    //    reduced-graph cycle kept its reduced set, then each cycle successor
    //    t of each member s was absent from the visited set when s evaluated
    //    the proviso (the set is linearizable, so insert(t) > eval(s) >
    //    insert(s)) — insertion times would increase strictly around the
    //    cycle, a contradiction. Rejecting only *open* (unfinished) states
    //    would be unsound: s can close before its fresh successor t expands,
    //    so a two-state cycle s <-> t would pass (t sees s closed) and both
    //    stay reduced. Unlike the stack proviso, the visited probe also
    //    fires on cross edges (diamonds), so it trades reduction strength
    //    for schedule independence; fallbacks are counted per run in
    //    ExploreStats::proviso_fallbacks.
    const CycleProviso proviso =
        opts_.proviso == CycleProviso::kAuto
            ? (ctx.on_stack ? CycleProviso::kStack
               : ctx.in_visited ? CycleProviso::kVisited
                                : CycleProviso::kOff)
            : opts_.proviso;
    // kScc applies no in-search proviso: the engine's SCC ignoring fix
    // repairs the ignoring problem after the search (engine.hpp). That pass
    // only runs over a stateful interned graph — exactly the searches that
    // supply a visited probe — so when `in_visited` is absent (a stateless
    // search) kScc must NOT silently drop the proviso: it degrades below to
    // the sound fallback (the absent probe "always closes", forcing full
    // expansion), like any proviso whose oracle the search cannot supply.
    const bool scc_deferred =
        proviso == CycleProviso::kScc && static_cast<bool>(ctx.in_visited);
    if (proviso != CycleProviso::kOff && !scc_deferred) {
      const std::function<bool(const State&)>& probe =
          proviso == CycleProviso::kStack ? ctx.on_stack : ctx.in_visited;
      // A requested proviso whose probe the search cannot supply degrades to
      // "always closes": full expansion is the sound fallback.
      bool closes_cycle = !probe;
      for (std::size_t i : chosen) {
        if (closes_cycle) break;
        closes_cycle = probe(ctx.successor(events[i]));
      }
      if (closes_cycle) {
        fallbacks_.fetch_add(1, std::memory_order_relaxed);
        if (!opts_.seed_retry) break;
        continue;
      }
    }
    if (!opts_.exhaustive_seed) return chosen;
    if (!have_best || chosen.size() < best.size()) {
      best = std::move(chosen);
      have_best = true;
    }
  }
  return have_best ? best : all();
}

}  // namespace mpb
