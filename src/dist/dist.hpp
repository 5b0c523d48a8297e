// The distributed driver: fingerprint-sharded multi-process search.
//
// run_distributed() forks N single-threaded rank processes on this box.
// Each rank owns the slice of the canonical fingerprint space whose high
// bits name it (frame.hpp::owner_of) and runs its owned frontier on the
// same ExpansionCore the in-process drivers use; successors owned by
// another rank are forwarded over a full socketpair mesh in size/time-
// batched binary frames with credit-based backpressure (mesh.hpp).
// Quiescence is detected by a Safra/Mattern counting token, the SCC
// ignoring pass (spor --proviso scc) runs as rank-0-coordinated repair
// rounds over the globally merged reduced graph, and counterexample traces
// are reconstructed across ranks through a parent_lookup RPC — parent
// handles are stored in a global {rank | shard | index} form, so a trace
// walk just asks each foreign handle's owner for its link.
//
// fork() (not exec) keeps the launch trivial and fast: child ranks inherit
// the built Protocol and the installed symmetry hooks copy-on-write, so no
// model is serialized or rebuilt per rank. The launcher (the calling
// process) collects per-rank finals over a control socket per rank, merges
// stats/terminals/verdicts, replays the winning trace, and reaps every
// child; a rank dying before it reports surfaces as a DistError, never a
// hang (every rank polls its control socket and obeys kExit even while its
// own search is wedged on a dead peer).
//
// Supported searches: `full`, and `spor` under the SCC proviso. The other
// provisos are unsound or meaningless here — the stack proviso needs one
// DFS stack, and the visited-set proviso would treat a remotely-owned (and
// therefore locally-unknown) successor as unvisited, silently re-losing
// the ignoring problem the proviso exists to close. The check facade
// enforces this (check.cpp) with precise errors.
#pragma once

#include <functional>
#include <memory>

#include "core/explorer.hpp"
#include "core/protocol.hpp"
#include "dist/frame.hpp"

namespace mpb::dist {

struct DistConfig {
  // Rank processes to fork; clamped to [1, kMaxRanks]. 1 is a real
  // distributed run with no peers (the overhead-measurement baseline the
  // bench gate compares against full/t1).
  unsigned ranks = 2;
  // Batch flush triggers: a peer's pending forwards are sent when
  // batch_entries accumulate (size trigger) or the oldest entry has waited
  // flush_us microseconds (time trigger); going idle force-flushes.
  unsigned batch_entries = 64;
  std::uint64_t flush_us = 2000;
  // Outstanding un-acknowledged batches allowed per peer before sends park.
  unsigned credits = 32;
  // When a credit-starved peer's parked backlog reaches this many entries
  // the rank stops expanding local work (it keeps draining receives, so
  // this stalls — never deadlocks — the sender) until credits return.
  unsigned stall_entries = 1024;
  // Test-only fault injection: rank `fault_rank` calls _exit() abruptly
  // after expanding `fault_after_states` states (rank-death testing).
  unsigned fault_rank = ~0u;
  std::uint64_t fault_after_states = 0;
};

using StrategyFactory = std::function<std::unique_ptr<ReductionStrategy>()>;

// Run the distributed search and return the merged result, exactly shaped
// like a single-process ExploreResult (stats summed across ranks, terminal
// fingerprints merged sorted-unique, counterexample replayed concretely).
// Budgets and resource guards in `cfg` apply *per rank* (docs/SERVICE.md);
// a tripped rank stops the whole mesh and the merged verdict is the worst
// across ranks. `make_strategy` may be null (full expansion); it is invoked
// once inside each child, so every rank owns an independent strategy.
// Throws DistError if a rank dies before reporting.
//
// stats.seconds runs from before the mesh is built and the ranks are forked
// (both real partition cost) to the arrival of the last rank's kFinal, when
// the verdict is known; the ranks' exit and reap, and the counterexample
// replay, are outside it. That ends the span where the in-process drivers
// end theirs (before teardown), so dist/r1 over full/t1 compares like with
// like (core/explorer.hpp, ExploreStats::seconds).
[[nodiscard]] ExploreResult run_distributed(const Protocol& proto,
                                            const ExploreConfig& cfg,
                                            const DistConfig& dc,
                                            const StrategyFactory& make_strategy);

}  // namespace mpb::dist
