#include "core/enabled.hpp"

#include <algorithm>
#include <cassert>

#include "util/combinatorics.hpp"

namespace mpb {

namespace {

// The deduped pending pool of transition `t` in `s`, grouped by sender:
// groups[i] = (sender, distinct message values from that sender).
struct Pool {
  std::vector<std::pair<ProcessId, std::vector<Message>>> groups;
  [[nodiscard]] unsigned n_senders() const noexcept {
    return static_cast<unsigned>(groups.size());
  }
};

Pool collect_pool(const State& s, const Transition& t) {
  Pool pool;
  const auto [lo, hi] = s.pending_range(t.proc, t.in_type);
  const auto& net = s.network();
  for (std::size_t i = lo; i < hi; ++i) {
    const Message& m = net[i];
    if (!mask_contains(t.allowed_senders, m.sender())) continue;
    // net is sorted, so duplicates are adjacent; skip repeats.
    if (i > lo && net[i] == net[i - 1]) continue;
    if (!pool.groups.empty() && pool.groups.back().first == m.sender()) {
      pool.groups.back().second.push_back(m);
    } else {
      pool.groups.push_back({m.sender(), {m}});
    }
  }
  return pool;
}

void emit_if_enabled(const Protocol& proto, const State& s, const Transition& t,
                     TransitionId tid, std::vector<Message> consumed,
                     std::vector<Event>& out) {
  std::sort(consumed.begin(), consumed.end());
  const ProcessInfo& pi = proto.proc(t.proc);
  const GuardView view{s.local_slice(pi.local_offset, pi.local_len), consumed};
  if (t.guard_holds(view)) {
    out.push_back(Event{tid, std::move(consumed)});
  }
}

}  // namespace

void enumerate_events_of(const Protocol& proto, const State& s, TransitionId tid,
                         std::vector<Event>& out) {
  const Transition& t = proto.transition(tid);

  if (t.arity == kSpontaneous) {
    emit_if_enabled(proto, s, t, tid, {}, out);
    return;
  }

  const Pool pool = collect_pool(s, t);

  if (t.arity == 1) {
    for (const auto& [sender, msgs] : pool.groups) {
      for (const Message& m : msgs) {
        emit_if_enabled(proto, s, t, tid, {m}, out);
      }
    }
    return;
  }

  if (t.arity == kPowersetArity) {
    // General case: every subset of the deduped pool. Flatten first.
    std::vector<Message> flat;
    for (const auto& [sender, msgs] : pool.groups) {
      flat.insert(flat.end(), msgs.begin(), msgs.end());
    }
    for_each_subset(static_cast<unsigned>(flat.size()),
                    [&](std::span<const unsigned> idx) {
                      if (idx.empty()) return true;  // X must be non-empty
                      std::vector<Message> consumed;
                      consumed.reserve(idx.size());
                      for (unsigned i : idx) consumed.push_back(flat[i]);
                      emit_if_enabled(proto, s, t, tid, std::move(consumed), out);
                      return true;
                    });
    return;
  }

  // Exact quorum of q distinct senders (Def. 2): choose q sender groups, then
  // one pending message per chosen sender.
  const auto q = static_cast<unsigned>(t.arity);
  if (pool.n_senders() < q) return;
  for_each_combination(pool.n_senders(), q, [&](std::span<const unsigned> senders) {
    std::vector<unsigned> sizes(q);
    for (unsigned j = 0; j < q; ++j) {
      sizes[j] = static_cast<unsigned>(pool.groups[senders[j]].second.size());
    }
    for_each_product(sizes, [&](std::span<const unsigned> choice) {
      std::vector<Message> consumed;
      consumed.reserve(q);
      for (unsigned j = 0; j < q; ++j) {
        consumed.push_back(pool.groups[senders[j]].second[choice[j]]);
      }
      emit_if_enabled(proto, s, t, tid, std::move(consumed), out);
      return true;
    });
    return true;
  });
}

std::vector<Event> enumerate_events(const Protocol& proto, const State& s) {
  std::vector<Event> out;
  enumerate_events(proto, s, out);
  return out;
}

void enumerate_events(const Protocol& proto, const State& s,
                      std::vector<Event>& out) {
  out.clear();
  for (TransitionId tid = 0; tid < proto.n_transitions(); ++tid) {
    enumerate_events_of(proto, s, tid, out);
  }
}

bool transition_enabled(const Protocol& proto, const State& s, TransitionId tid) {
  std::vector<Event> out;
  enumerate_events_of(proto, s, tid, out);
  return !out.empty();
}

bool pool_insufficient(const Protocol& proto, const State& s, TransitionId tid) {
  const Transition& t = proto.transition(tid);
  if (t.arity == kSpontaneous) return false;  // never lacks messages
  // Count distinct allowed senders in the pending run (sorted by sender, so
  // one sender's messages are adjacent) and stop as soon as the arity is
  // covered; no pool is built.
  const unsigned need =
      t.arity == kPowersetArity || t.arity == 1 ? 1u
                                                : static_cast<unsigned>(t.arity);
  const auto [lo, hi] = s.pending_range(t.proc, t.in_type);
  const auto& net = s.network();
  unsigned senders = 0;
  ProcessId last = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const ProcessId from = net[i].sender();
    if (!mask_contains(t.allowed_senders, from)) continue;
    if (senders != 0 && from == last) continue;
    last = from;
    if (++senders >= need) return false;
  }
  return true;
}

}  // namespace mpb
