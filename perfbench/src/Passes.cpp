//===- perfbench/src/Passes.cpp - Untraced and traced passes -------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include <algorithm>
#include <climits>
#include <cstdio>

namespace perfbench {

TracedPasses runTracedPasses(const Options &Opts, Outcome &Out, double ShareA,
                             const OpFn &Real, const OpFn &Replay) {
  TracedPasses P;
  SpanLog &Log = SpanLog::get();
  Log.setEnabled(false);
  LoopResult A = timedLoop(Opts.Seconds * ShareA, [&](int64_t Index) {
    OpRecord R;
    bool Ok = Real(Index, R);
    P.Real.push_back(R);
    return Ok;
  });
  Out.Attempted += static_cast<int64_t>(A.NormMs.size());
  Out.Failed += A.Failed;
  runReplayPasses(Out, P, Replay);
  return P;
}

void runReplayPasses(Outcome &Out, TracedPasses &P, const OpFn &Replay,
                     const std::function<void()> &BeforePass) {
  SpanLog &Log = SpanLog::get();
  if (BeforePass)
    BeforePass();
  // B1 and B2 alternate operation by operation, so a drift in the host's
  // speed lands on both sides of the overhead ratio alike.
  double Seconds[2] = {0.0, 0.0};
  for (size_t Index = 0; Index != P.Real.size(); ++Index) {
    for (bool Traced : {false, true}) {
      Log.setEnabled(Traced);
      Log.setOp(static_cast<int64_t>(Index));
      OpRecord R;
      bool Ok;
      Clock::time_point Start = Clock::now();
      {
        ScopedSpan Op("op");
        Ok = Replay(static_cast<int64_t>(Index), R);
      }
      Seconds[Traced] += secondsSince(Start);
      Log.setEnabled(false);
      ++Out.Attempted;
      if (!Ok)
        ++Out.Failed;
      Out.check(R.Crc == P.Real[Index].Crc,
                "replayed operation " + std::to_string(Index) +
                    " produced other outputs than the real one");
      if (Traced)
        P.Replayed.push_back(R);
    }
  }
  P.OverheadPct =
      Seconds[0] > 0.0 ? 100.0 * (Seconds[1] - Seconds[0]) / Seconds[0] : 0.0;
  std::fprintf(stderr,
               "traced mode: %zu operation(s); replay %.3f s untraced, "
               "%.3f s traced (%+.2f%%)\n",
               P.Real.size(), Seconds[0], Seconds[1], P.OverheadPct);
}

LoopResult runUntracedOps(const Options &Opts, Outcome &Out, const OpFn &Real,
                          int64_t Summarized) {
  double Cycles = 0.0, SimSeconds = 0.0, Flops = 0.0;
  int64_t SummarizedFailed = 0;
  LoopResult L = timedLoop(Opts.Seconds, [&](int64_t Index) {
    OpRecord R;
    bool Ok = Real(Index, R);
    if (Index >= Summarized)
      return Ok;
    SummarizedFailed += !Ok;
    if (Ok && R.Simulated) {
      Cycles += R.Sim.Cycles;
      SimSeconds += R.SimSeconds;
      Flops += R.Flops;
    }
    return Ok;
  });
  Out.Attempted += std::ssize(L.NormMs);
  Out.Failed += L.Failed;
  std::vector<double> NormMs(
      L.NormMs.begin(),
      L.NormMs.begin() + std::min(Summarized, std::ssize(L.NormMs)));
  if (Summarized != INT64_MAX && std::ssize(NormMs) < Summarized)
    std::fprintf(stderr,
                 "the end-to-end metrics cover %zu operations, not %lld: "
                 "the run was too short\n",
                 NormMs.size(), static_cast<long long>(Summarized));
  double Done = static_cast<double>(std::ssize(NormMs) - SummarizedFailed);
  double NormSeconds = sumOf(NormMs) / 1e3;
  Out.set("ops_per_norm_s", Done / NormSeconds, "op/norm-s");
  Out.set("op_norm_p50_ms", median(NormMs), "norm-ms");
  Out.set("sim_cycles_per_norm_s", Cycles / NormSeconds, "cycle/norm-s");
  Out.set("sim_gops", SimSeconds > 0.0 ? Flops / SimSeconds / 1e9 : 0.0,
          "GOp/s");
  return L;
}

void reportReplayLayers(Outcome &Out, const TracedPasses &P) {
  std::vector<SimSample> Samples;
  for (const OpRecord &R : P.Replayed)
    if (R.Simulated)
      Samples.push_back(R.Sim);
  reportPipelineLayers(Out, Samples);
  Out.set("trace.overhead_pct", P.OverheadPct, "%");
}

} // namespace perfbench
