// The distributed launcher: builds the socketpair mesh, forks the ranks,
// supervises them over per-rank control sockets, and merges their finals
// into one ExploreResult (see dist.hpp for the architecture).
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "core/engine.hpp"
#include "dist/dist.hpp"
#include "dist/mesh.hpp"
#include "dist/rank.hpp"

namespace mpb::dist {

namespace {

[[nodiscard]] double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Mesh {
  unsigned n = 0;
  // pair_fds[i][j] (i != j): rank i's end of the i<->j socketpair.
  std::vector<std::vector<int>> pair_fds;
  std::vector<int> control_child;   // rank's end of its control socket
  std::vector<int> control_parent;  // launcher's end

  explicit Mesh(unsigned nranks) : n(nranks) {
    pair_fds.assign(n, std::vector<int>(n, -1));
    for (unsigned i = 0; i < n; ++i) {
      for (unsigned j = i + 1; j < n; ++j) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
          close_all();
          throw DistError("dist: socketpair failed for the peer mesh");
        }
        pair_fds[i][j] = sv[0];
        pair_fds[j][i] = sv[1];
      }
      int cv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, cv) != 0) {
        close_all();
        throw DistError("dist: socketpair failed for a control channel");
      }
      control_child.push_back(cv[0]);
      control_parent.push_back(cv[1]);
    }
  }

  // In child `rank`: close every fd that is not this rank's.
  void keep_rank(unsigned rank) {
    for (unsigned i = 0; i < n; ++i) {
      for (unsigned j = 0; j < n; ++j) {
        if (i != rank && pair_fds[i][j] >= 0) {
          ::close(pair_fds[i][j]);
          pair_fds[i][j] = -1;
        }
      }
      if (i != rank && i < control_child.size()) ::close(control_child[i]);
      if (i < control_parent.size()) ::close(control_parent[i]);
    }
  }

  // In the parent: close every child-side fd after the forks.
  void close_child_ends() {
    for (auto& row : pair_fds) {
      for (int& fd : row) {
        if (fd >= 0) {
          ::close(fd);
          fd = -1;
        }
      }
    }
    for (int& fd : control_child) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }

  void close_all() {
    close_child_ends();
    for (int& fd : control_parent) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
  }
};

[[nodiscard]] int verdict_severity(Verdict v) {
  switch (v) {
    case Verdict::kViolated: return 3;
    case Verdict::kResourceLimit: return 2;
    case Verdict::kBudgetExceeded: return 1;
    case Verdict::kHolds: return 0;
  }
  return 0;
}

[[nodiscard]] Verdict rank_verdict(const RankFinal& f) {
  if (f.verdict == Verdict::kViolated) return Verdict::kViolated;
  const auto k = static_cast<engine::LimitKind>(f.limit);
  if (k != engine::LimitKind::kNone) return engine::verdict_of(k);
  return Verdict::kHolds;
}

// Merge the per-rank finals into one result, exactly shaped like a
// single-process run: counters sum (state ownership is disjoint, so the
// sums are exact, not approximations), depths max, the worst verdict wins
// with the lowest such rank supplying the property/trace.
[[nodiscard]] ExploreResult merge_finals(const std::vector<RankFinal>& finals,
                                         double seconds) {
  ExploreResult out;
  int best = -1;
  for (std::size_t r = 0; r < finals.size(); ++r) {
    const RankFinal& f = finals[r];
    ExploreStats& a = out.stats;
    const ExploreStats& b = f.stats;
    a.states_stored += b.states_stored;
    a.states_visited += b.states_visited;
    a.events_executed += b.events_executed;
    a.events_selected += b.events_selected;
    a.events_enabled += b.events_enabled;
    a.terminal_states += b.terminal_states;
    a.full_expansions += b.full_expansions;
    a.proviso_fallbacks += b.proviso_fallbacks;
    a.scc_reexpansions += b.scc_reexpansions;
    a.sleep_blocked += b.sleep_blocked;
    a.scc_pass_ms += b.scc_pass_ms;
    a.forwarded_states += b.forwarded_states;
    a.forward_batches += b.forward_batches;
    a.wire_bytes += b.wire_bytes;
    a.full_hash_passes += b.full_hash_passes;
    a.hash_queries += b.hash_queries;
    a.visited_bytes += b.visited_bytes;
    a.max_depth_seen = std::max(a.max_depth_seen, b.max_depth_seen);
    const Verdict v = rank_verdict(f);
    if (best < 0 ||
        verdict_severity(v) > verdict_severity(rank_verdict(finals[best]))) {
      best = static_cast<int>(r);
    }
    out.terminal_fingerprints.insert(out.terminal_fingerprints.end(),
                                     f.terminals.begin(), f.terminals.end());
  }
  if (best >= 0) {
    out.verdict = rank_verdict(finals[best]);
    out.violated_property = finals[best].violated_property;
  }
  out.stats.threads_used = static_cast<unsigned>(finals.size());
  out.stats.seconds = seconds;
  std::sort(out.terminal_fingerprints.begin(), out.terminal_fingerprints.end());
  out.terminal_fingerprints.erase(std::unique(out.terminal_fingerprints.begin(),
                                              out.terminal_fingerprints.end()),
                                  out.terminal_fingerprints.end());
  return out;
}

void reap_all(std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    if (pid > 0) (void)::waitpid(pid, nullptr, 0);
  }
  pids.clear();
}

void kill_all(const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    if (pid > 0) (void)::kill(pid, SIGKILL);
  }
}

}  // namespace

ExploreResult run_distributed(const Protocol& proto, const ExploreConfig& cfg,
                              const DistConfig& dc,
                              const StrategyFactory& make_strategy) {
  DistConfig d = dc;
  d.ranks = std::clamp(d.ranks, 1u, kMaxRanks);
  const unsigned n = d.ranks;
  const double t0 = now_seconds();

  Mesh mesh(n);
  std::vector<pid_t> pids(n, -1);
  for (unsigned r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      kill_all(pids);
      reap_all(pids);
      mesh.close_all();
      throw DistError("dist: fork failed");
    }
    if (pid == 0) {
      // Child: drop everything that isn't rank r's, build the rank's own
      // strategy, run, and _exit (no atexit handlers — the parent owns the
      // process-level reporting).
      mesh.keep_rank(r);
      RankWiring w;
      w.rank = r;
      w.nranks = n;
      w.peer_fds = mesh.pair_fds[r];
      w.control_fd = mesh.control_child[r];
      int code = 2;
      try {
        std::unique_ptr<ReductionStrategy> strategy;
        if (make_strategy) strategy = make_strategy();
        code = run_rank(proto, cfg, d, strategy.get(), w);
      } catch (...) {
      }
      ::_exit(code);
    }
    pids[r] = pid;
  }
  mesh.close_child_ends();
#if defined(__GLIBC__)
  // Each rank inherits the launcher's heap copy-on-write, including the free
  // pages the allocator keeps after earlier searches in this process, and
  // its first allocations reuse exactly those chunks. While the launcher
  // still maps such a page, the rank's first write to it copies the page.
  // Handing the launcher's free pages back to the kernel leaves them to the
  // ranks, so a lone rank's first write reuses its page in place instead.
  // Done after the forks, the trim runs while the ranks already search. It
  // only pays when the launcher holds a freed heap (after earlier searches
  // in the same process, as in a bench sweep); a fresh one-shot launcher
  // has next to nothing to hand back.
  (void)malloc_trim(0);
#endif

  std::vector<FrameConn> control;
  control.reserve(n);
  for (unsigned r = 0; r < n; ++r) {
    control.emplace_back(mesh.control_parent[r]);
  }

  // Backstop deadline: the ranks enforce the budgets/guards themselves; this
  // only catches a wedged mesh (which the termination tests assert never
  // happens) so a supervised run cannot hang forever.
  double deadline = std::numeric_limits<double>::infinity();
  if (cfg.guard.watchdog_seconds !=
      std::numeric_limits<double>::infinity()) {
    deadline = t0 + cfg.guard.watchdog_seconds * 1.5 + 5.0;
  } else if (cfg.max_seconds != std::numeric_limits<double>::infinity()) {
    deadline = t0 + cfg.max_seconds * 1.5 + 5.0;
  }

  std::vector<RankFinal> finals(n);
  std::vector<bool> have_final(n, false);
  std::vector<RankProgress> progress(n);
  unsigned n_finals = 0;
  // When the last kFinal arrived: the merged verdict is known from here on,
  // so this (not the reap below) closes the run's timed span.
  double t_verdict = 0.0;
  bool cancelled = false;
  std::string death;

  std::vector<pollfd> pfds;
  std::vector<Frame> frames;
  while (n_finals < n && death.empty()) {
    pfds.clear();
    for (unsigned r = 0; r < n; ++r) {
      short ev = POLLIN;
      if (!control[r].outbox_empty()) ev |= POLLOUT;
      pfds.push_back({control[r].fd(), ev, 0});
    }
    (void)::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 20);

    if (!cancelled && cfg.cancel &&
        cfg.cancel->load(std::memory_order_relaxed)) {
      cancelled = true;
      for (unsigned r = 0; r < n; ++r) {
        control[r].send(FrameType::kCancel, {});
      }
    }
    if (now_seconds() > deadline) {
      death = "dist: launcher watchdog expired with ranks unreported";
      break;
    }

    for (unsigned r = 0; r < n; ++r) {
      frames.clear();
      const bool alive = control[r].drain(&frames);
      for (Frame& f : frames) {
        FrameCursor c(f.payload);
        switch (f.type) {
          case FrameType::kFinal:
            if (!have_final[r]) {
              finals[r] = decode_final(c);
              have_final[r] = true;
              if (++n_finals == n) t_verdict = now_seconds();
            }
            break;
          case FrameType::kProgress: {
            progress[r] = decode_progress(c);
            if (cfg.on_progress) {
              ExploreStats snap;
              for (unsigned q = 0; q < n; ++q) {
                snap.states_stored += progress[q].states_stored;
                snap.events_executed += progress[q].events_executed;
                snap.frontier += progress[q].frontier;
                snap.forwarded_states += progress[q].forwarded_states;
                snap.wire_bytes += progress[q].wire_bytes;
              }
              snap.threads_used = n;
              snap.seconds = now_seconds() - t0;
              cfg.on_progress(snap);
            }
            break;
          }
          case FrameType::kPeerDead: {
            const unsigned peer = c.u32();
            death = "dist: rank " + std::to_string(peer) +
                    " died mid-search (peer socket EOF)";
            break;
          }
          default:
            break;
        }
      }
      if (!alive && !have_final[r] && death.empty()) {
        death = "dist: rank " + std::to_string(r) +
                " exited before reporting a result";
      }
      (void)control[r].flush();
    }
  }

  // Release every rank (they serve parent lookups until told to exit), then
  // reap. On a death path the kExit is best-effort and SIGKILL backstops.
  for (unsigned r = 0; r < n; ++r) {
    control[r].send(FrameType::kExit, {});
    (void)control[r].flush();
  }
  if (!death.empty()) kill_all(pids);
  reap_all(pids);
  mesh.close_all();
  if (!death.empty()) throw DistError(death);

  ExploreResult out = merge_finals(finals, t_verdict - t0);
  if (out.verdict == Verdict::kViolated) {
    if (cfg.on_violation) cfg.on_violation(out.violated_property);
    // Lowest-ranked violator with a reconstructed chain supplies the trace.
    for (unsigned r = 0; r < n; ++r) {
      if (rank_verdict(finals[r]) == Verdict::kViolated &&
          finals[r].has_trace) {
        ExecuteOptions opts;
        opts.validate_annotations = cfg.validate_annotations;
        out.counterexample =
            replay_trace(proto, finals[r].trace_events, opts);
        break;
      }
    }
  }
  return out;
}

}  // namespace mpb::dist
