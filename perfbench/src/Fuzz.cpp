//===- perfbench/src/Fuzz.cpp - Differential fuzz campaign workload ------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded differential campaign: each operation generates one program
/// (fuzz::generateProgram) and runs it under the base configuration plus 5
/// sampled matrix points (fuzz::runDifferential) — engines, every kernel
/// tier including the JIT, temporal degrees {1, 2, 4}, fault plans and
/// checkpoint/resume. It is the only workload that runs the JIT tier's
/// host-compiler invocations, checkpoint I/O, fault plans, temporal
/// unrolling and the parallel engine.
///
/// The campaign is a fixed sequence of program seeds, and every
/// GenConfig / MatrixOptions field is set here, so a change of the
/// library's defaults does not change the work. The benchmark seed
/// re-seeds the generated programs' input data only. A run works through
/// the sequence from its start, so every run does the same programs in the
/// same order; none is repeated within a run, so the JIT cache never
/// serves a program twice.
///
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "compute/Jit.h"
#include "fuzz/Differential.h"
#include "fuzz/Generate.h"
#include "runtime/Session.h"

#include <algorithm>

using namespace stencilflow;

namespace perfbench {

namespace {

constexpr uint64_t CampaignSeed = 0x5f0e2021;
/// The end-to-end metrics cover the campaign's first programs only, so they
/// do not depend on how far a run gets: programs differ in cost, and the
/// process keeps every JIT-compiled kernel, so later programs would change
/// both the mix and the peak memory (14.1 MB after 93-110 programs, 17.7 MB
/// after 148-152). A 25 s run finished 93-152 programs on a shared 4-core
/// x86-64 host.
constexpr int64_t SummarizedPrograms = 64;

fuzz::GenConfig campaignGenConfig() {
  fuzz::GenConfig G;
  G.MinRank = 1;
  G.MaxRank = 3;
  G.MinExtent = 4;
  G.MaxExtent = 16;
  G.VectorizeProbability = 0.25;
  G.MinNodes = 1;
  G.MaxNodes = 5;
  G.MaxInputs = 3;
  G.MaxExtraOperands = 2;
  G.WideDagProbability = 0.35;
  G.LineInputProbability = 0.2;
  G.MaxRadius = 4;
  G.DeepRingProbability = 0.25;
  G.MaxTapsPerField = 5;
  G.MaxLocals = 3;
  G.MaxDepth = 3;
  G.SelectProbability = 0.2;
  G.IntrinsicProbability = 0.2;
  G.CopyBoundaryProbability = 0.3;
  G.Float64Probability = 0.3;
  G.TimeLoopProbability = 0.4;
  G.MultiBindingProbability = 0.3;
  G.ZeroCoefficientProbability = 0.05;
  G.CopyChainProbability = 0.05;
  G.ConstantNodeProbability = 0.05;
  return G;
}

fuzz::DiffOptions campaignDiffOptions(const Options &Opts) {
  fuzz::DiffOptions D;
  D.Matrix.ParallelEngine = true;
  D.Matrix.JitTiers = true;
  D.Matrix.FaultAxis = true;
  D.Matrix.ResumeAxis = true;
  D.Matrix.TemporalDegrees = {1, 2, 4};
  D.Matrix.ConfigsPerProgram = 5;
  D.FindingsDir = Opts.WorkDir + "/findings";
  D.ScratchDir = Opts.WorkDir + "/scratch";
  return D;
}

uint64_t programSeed(int64_t Index) {
  return CampaignSeed + static_cast<uint64_t>(Index);
}

/// The campaign's program \p Index with input data from the run's seed.
StencilProgram campaignProgram(int64_t Index, uint64_t RunSeed,
                               const fuzz::GenConfig &G) {
  StencilProgram P = fuzz::generateProgram(programSeed(Index), G);
  uint64_t Salt = 0;
  for (Field &Input : P.Inputs)
    if (Input.Source.SourceKind == DataSource::Kind::Random)
      Input.Source.Seed =
          mix64(RunSeed ^ mix64(programSeed(Index) * 31 + ++Salt)) &
          ((uint64_t(1) << 53) - 1);
  return P;
}

const char *configKind(const fuzz::DiffConfig &C) {
  if (C.Kernel == "jit" || C.Kernel == "auto")
    return "fuzz.config.jit";
  if (C.Resume)
    return "fuzz.config.resume";
  if (C.Parallel)
    return "fuzz.config.parallel";
  return "fuzz.config.other";
}

/// A token of what one program's campaign decided: the configurations it
/// ran and their verdicts.
uint64_t verdictCrc(const std::vector<fuzz::DiffConfig> &Configs,
                    const std::vector<bool> &Diverged) {
  std::map<std::string, std::vector<double>> Fields;
  std::vector<std::string> Order;
  for (size_t I = 0; I != Configs.size(); ++I) {
    Order.push_back(Configs[I].id());
    Fields[Order.back()] = {Diverged[I] ? 1.0 : 0.0};
  }
  return outputsCrc(Order, Fields);
}

} // namespace

void runFuzz(const Options &Opts, Outcome &Out) {
  const fuzz::GenConfig Gen = campaignGenConfig();
  const fuzz::DiffOptions Diff = campaignDiffOptions(Opts);
  const int ExpectedConfigs = 1 + Diff.Matrix.ConfigsPerProgram;

  // Per-program results of the real campaign (pass A in traced mode).
  std::vector<std::vector<fuzz::DiffConfig>> ConfigsOf;
  std::vector<double> RunsOf, CompilesOf;
  double SummarizedRssMb = 0.0;

  OpFn Real = [&](int64_t Index, OpRecord &R) {
    StencilProgram P = campaignProgram(Index, Opts.Seed, Gen);
    size_t Before = compute::jit::cacheStats().Misses;
    fuzz::DiffResult Result =
        fuzz::runDifferential(P, programSeed(Index), Diff);
    CompilesOf.push_back(
        static_cast<double>(compute::jit::cacheStats().Misses - Before));
    Out.check(static_cast<int>(Result.Configs.size()) == ExpectedConfigs,
              "fuzz program " + std::to_string(Index) + " ran " +
                  std::to_string(Result.Configs.size()) +
                  " configurations, the matrix implies " +
                  std::to_string(ExpectedConfigs));
    for (const fuzz::FuzzFinding &F : Result.Findings)
      Out.check(false, "fuzz program " + std::to_string(Index) + ": " +
                           fuzz::findingKindName(F.Kind) + " under " +
                           F.Config.id() + ": " + F.Detail);
    std::vector<bool> Diverged(Result.Configs.size(), false);
    for (const fuzz::FuzzFinding &F : Result.Findings)
      for (size_t I = 0; I != Result.Configs.size(); ++I)
        Diverged[I] = Diverged[I] || Result.Configs[I].id() == F.Config.id();
    R.Crc = verdictCrc(Result.Configs, Diverged);
    RunsOf.push_back(static_cast<double>(Result.Runs));
    ConfigsOf.push_back(std::move(Result.Configs));
    if (Index + 1 == SummarizedPrograms)
      SummarizedRssMb = peakRssMb();
    return Result.Findings.empty();
  };

  // Set-up: one untimed program outside the campaign (warms the host
  // compiler's caches, as any earlier campaign would have).
  {
    StencilProgram Warm = fuzz::generateProgram(CampaignSeed - 1, Gen);
    fuzz::DiffResult Result = fuzz::runDifferential(Warm, CampaignSeed - 1,
                                                    Diff);
    Out.check(Result.Findings.empty(), "fuzz warm-up program has findings");
  }
  Out.setupDone();

  if (!Opts.Trace) {
    compute::jit::CacheStats Before = compute::jit::cacheStats();
    LoopResult L = runUntracedOps(Opts, Out, Real, SummarizedPrograms);
    Out.set("peak_rss_mb",
            SummarizedRssMb > 0.0 ? SummarizedRssMb : peakRssMb(), "MB");
    compute::jit::CacheStats After = compute::jit::cacheStats();
    Out.check(After.Misses > Before.Misses,
              "fuzz: the JIT tier compiled nothing (no host compiler?)");
    Out.check(After.Failures == Before.Failures &&
                  After.Timeouts == Before.Timeouts,
              "fuzz: JIT compiles failed or timed out");
    // Simulated-time view of the campaign's first programs, whatever the
    // run's length: their base configuration (serial, specialized, ideal
    // memory, as runDifferential runs it) simulated once more after the
    // timed phase, against the normalized CPU time the timed phase spent
    // on each program's whole differential check (host compiler included).
    const int64_t Sampled =
        std::min<int64_t>(SummarizedPrograms, std::ssize(L.NormMs));
    double Cycles = 0.0, NormSeconds = 0.0;
    std::vector<double> Gops;
    for (int64_t Index = 0; Index != Sampled; ++Index) {
      Session S = Session::fromProgram(campaignProgram(Index, Opts.Seed, Gen));
      S.unconstrainedMemory(true).kernelEngine(
          compute::KernelEngine::Specialized);
      Expected<PipelineResult> Base = S.run();
      if (!Base) {
        Out.check(false, "fuzz program " + std::to_string(Index) +
                             ", base configuration: " + Base.message());
        continue;
      }
      double Run = static_cast<double>(Base->Simulation.Stats.Cycles);
      Cycles += Run;
      NormSeconds += L.NormMs[static_cast<size_t>(Index)] / 1e3;
      Gops.push_back(static_cast<double>(Base->Runtime.TotalFlops) /
                     (Run / (Base->FrequencyMHz * 1e6)) / 1e9);
    }
    Out.set("sim_cycles_per_norm_s",
            NormSeconds > 0.0 ? Cycles / NormSeconds : 0.0, "cycle/norm-s");
    Out.set("sim_gops", median(Gops), "GOp/s");
    return;
  }

  // Traced mode: replay each program's configurations one by one.
  OpFn Replay = [&](int64_t Index, OpRecord &R) {
    std::optional<StencilProgram> P;
    {
      ScopedSpan S("fuzz.generate");
      P.emplace(campaignProgram(Index, Opts.Seed, Gen));
    }
    const std::vector<fuzz::DiffConfig> &Configs =
        ConfigsOf[static_cast<size_t>(Index)];
    std::vector<bool> Diverged;
    for (const fuzz::DiffConfig &C : Configs) {
      {
        // runConfig starts with this same oracle call; timed once more on
        // its own, it gives the oracle's share of each configuration.
        ScopedSpan S("fuzz.oracle");
        (void)fuzz::oracleCrc(*P, C.TemporalDegree);
      }
      ScopedSpan S(configKind(C));
      Diverged.push_back(
          fuzz::runConfig(*P, programSeed(Index), C, Diff).has_value());
    }
    R.Crc = verdictCrc(Configs, Diverged);
    return true;
  };
  TracedPasses P = runTracedPasses(Opts, Out, 1.0 / 3.0, Real, Replay);
  const SpanLog &Log = SpanLog::get();
  double Programs = static_cast<double>(std::max<size_t>(1, P.Real.size()));
  Out.set("fuzz.generate_us", Log.perOpMedianUs("fuzz.generate"), "us");
  Out.set("fuzz.oracle_us", Log.perCallMedianUs("fuzz.oracle"), "us");
  Out.set("fuzz.config_jit_ms", Log.perCallMedianUs("fuzz.config.jit") / 1e3,
          "ms");
  Out.set("fuzz.config_resume_ms",
          Log.perCallMedianUs("fuzz.config.resume") / 1e3, "ms");
  Out.set("fuzz.config_parallel_ms",
          Log.perCallMedianUs("fuzz.config.parallel") / 1e3, "ms");
  Out.set("fuzz.config_other_ms",
          Log.perCallMedianUs("fuzz.config.other") / 1e3, "ms");
  Out.set("fuzz.runs", sumOf(RunsOf) / Programs, "count");
  Out.set("compute.jit_compiles", sumOf(CompilesOf) / Programs, "count");
  Out.set("trace.overhead_pct", P.OverheadPct, "%");

  std::vector<double> EvalNs, Evaluations;
  for (int64_t Index = 0; Index != 8; ++Index) {
    Expected<CompiledPlan> Plan =
        compilePipeline(campaignProgram(Index, Opts.Seed, Gen));
    if (!Plan)
      continue;
    EvalNs.push_back(evaluateNs(Plan->Compiled,
                                compute::KernelEngine::Specialized,
                                Plan->Compiled.program().VectorWidth));
    Evaluations.push_back(evaluationsPerRun(Plan->Compiled));
  }
  Out.set("compute.evaluate_ns", median(EvalNs), "ns");
  Out.set("compute.evaluations", median(Evaluations), "count");
}

} // namespace perfbench
