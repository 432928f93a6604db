//===- perfbench/src/Passes.h - Untraced and traced passes --------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced mode's three passes over one operation sequence:
///
///  A.  the workload's real operations, untraced, for a share of the run;
///  B1. the same operations replayed layer by layer with the span log off;
///  B2. the same replay with the span log on, alternating with B1.
///
/// B2 gives the per-layer table; B2 against B1 gives the tracing overhead;
/// every replayed operation's output CRC must equal the real one's.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PASSES_H
#define PERFBENCH_PASSES_H

#include "Bench.h"
#include "Layers.h"

#include <climits>
#include <functional>
#include <vector>

namespace perfbench {

/// What one operation produced.
struct OpRecord {
  uint64_t Crc = 0;
  SimSample Sim;
  bool Simulated = false;
  double SimSeconds = 0.0; ///< Simulated time at the modelled frequency.
  double Flops = 0.0;
};

using OpFn = std::function<bool(int64_t Index, OpRecord &Record)>;

struct TracedPasses {
  std::vector<OpRecord> Real;     ///< Pass A.
  std::vector<OpRecord> Replayed; ///< Pass B2.
  double OverheadPct = 0.0;
};

/// Runs passes A (for \p ShareA of the run's seconds), B1 and B2, checking
/// CRC equality into \p Out.
TracedPasses runTracedPasses(const Options &Opts, Outcome &Out, double ShareA,
                             const OpFn &Real, const OpFn &Replay);

/// Passes B1 and B2 over the operations of \p P.Real, which the caller ran
/// as pass A, alternating operation by operation. \p BeforePass, when set,
/// runs untimed before the first; a replay that keeps state must keep one
/// per side (see SpanLog::enabled()).
void runReplayPasses(Outcome &Out, TracedPasses &P, const OpFn &Replay,
                     const std::function<void()> &BeforePass = {});

/// The untraced mode for a workload of independent operations: runs
/// \p Real for the run's seconds and reports the end-to-end metrics of its
/// first \p Summarized operations (a workload whose operations differ sets
/// it, so that the figures do not depend on how far a run gets).
LoopResult runUntracedOps(const Options &Opts, Outcome &Out, const OpFn &Real,
                          int64_t Summarized = INT64_MAX);

/// Sets the per-layer sim/pipeline metrics from pass B2's records and the
/// tracing overhead.
void reportReplayLayers(Outcome &Out, const TracedPasses &P);

} // namespace perfbench

#endif // PERFBENCH_PASSES_H
