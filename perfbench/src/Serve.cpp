//===- perfbench/src/Serve.cpp - Served-request workload -----------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tenant traffic against an in-process serve::Server configured as the
/// sf_serve daemon configures it (2 workers, queue 16, cache 64, device
/// pool 8, ideal memory, serial engine, specialized tier, validation on).
/// A closed loop of one client; every request and response crosses the
/// JSON-lines protocol (client encode, server decode, server encode, client
/// decode). Requests are timed in normalized process CPU time (see
/// normalizedMs): on a shared host, wall-clock latency of the same code
/// moved 20-30% between runs.
///
/// Requests come in rounds of 32, shuffled per round by the seed:
///  - 24 hits: one per catalogue key (6 paper kernels at tenant size x
///    vector width {1, 4} x temporal degree {1, 2}), all compiled during
///    set-up. Every key recurs within 63 requests, which bring at most 16
///    fresh plans, so the 64-plan LRU cache never evicts a catalogue key;
///  - 5 misses: a catalogue program under a target utilization no earlier
///    request of the run used (the key quantum is 1e-3), so the plan key
///    is fresh and the whole compile half runs;
///  - 2 fused misses: the same at vector width 1, with stencil fusion;
///  - 1 tuned miss: the same, with miss-path autotuning.
///
/// The seed also re-seeds every catalogue input's data, so program
/// fingerprints and outputs differ between seeds while the work does not.
///
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Iterate.h"
#include "sdfg/StencilFusion.h"
#include "sdfg/TemporalUnroll.h"
#include "serve/PlanCache.h"
#include "serve/Server.h"
#include "tuner/Tuner.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <optional>

using namespace stencilflow;
using namespace stencilflow::serve;

namespace perfbench {

namespace {

constexpr int MissesPerRound = 5;
constexpr int FusedPerRound = 2;
constexpr int TunedPerRound = 1;
constexpr int TuneBudget = 8;
/// Fresh target utilizations per key: 0.500 .. 1.000 without 0.850.
constexpr int FreshUtilizations = 500;

enum class Kind : uint8_t { Hit, Miss, FusedMiss, Tuned };

struct Entry {
  std::string Name;
  json::Value Program;
  int Width = 1;
  int Degree = 1;
  uint64_t ExpectedCrc = 0;
  uint64_t FusedCrc = 0; ///< Outputs of the fused plan (fused misses).
  double Flops = 0.0;
  std::shared_ptr<const CompiledPlan> Plan; ///< For the kernel timing.
};

struct Slot {
  Kind Type = Kind::Hit;
  size_t EntryIndex = 0;
  int Fresh = 0; ///< Fresh-utilization index for misses.
};

/// What the checks and metrics need of one served request. Kept small: a
/// run records every request, and this bookkeeping counts in peak_rss_mb.
struct Record {
  uint64_t OutputsCrc = 0;
  int64_t Cycles = 0;
  float LatencyMs = 0.0f; ///< Wall time, client encode to client decode.
  float NormMs = 0.0f;    ///< Process CPU time, normalized (normalizedMs).
  float FrequencyMHz = 0.0f;
  int32_t QueueMicros = 0, CompileMicros = 0, ExecuteMicros = 0;
  uint16_t EntryIndex = 0;
  uint16_t Fresh = 0;
  Kind Type = Kind::Hit;
  bool Ok = false;
  bool ValidationPassed = false;
  bool CacheHit = false;
  std::unique_ptr<std::string> Error; ///< Set when the request failed.
};

PipelineOptions daemonBase() {
  PipelineOptions Base;
  Base.Simulator.UnconstrainedMemory = true;
  return Base;
}

double utilizationFor(int Fresh) {
  int Milli = 500 + Fresh;
  if (Milli >= 850)
    ++Milli;
  return Milli / 1000.0;
}

class Catalogue {
public:
  std::vector<Entry> Entries;
  std::vector<size_t> Tunable; ///< Entries tuned misses draw from.
  /// Entries fused misses draw from: width 1 only, since a fused width-4
  /// stencil can outgrow one device at the low target utilizations.
  std::vector<size_t> Fusable;
  int RoundSize = 0;

  Error build(uint64_t Seed) {
    struct Source {
      const char *Name;
      StencilProgram Program;
      std::optional<ChainKind> Chain;
      int Length;
    };
    std::vector<Source> Sources;
    Sources.push_back({"diffusion2d", workloads::diffusion2dChain(2, 32, 32),
                       ChainKind::Diffusion2d, 2});
    Sources.push_back({"jacobi2d", workloads::jacobi2dChain(2, 32, 32),
                       ChainKind::Jacobi2d, 2});
    Sources.push_back({"jacobi3d", workloads::jacobi3dChain(2, 8, 16, 16),
                       ChainKind::Jacobi3d, 2});
    Sources.push_back(
        {"wave2d_r2", workloads::wave2dChain(2, 2, 32, 32), std::nullopt, 0});
    Sources.push_back(
        {"hotspot", workloads::hotspot2dChain(2, 32, 32), std::nullopt, 0});
    Sources.push_back({"hdiff", workloads::horizontalDiffusion(4, 16, 16),
                       std::nullopt, 0});
    uint64_t InputIndex = 0;
    for (Source &S : Sources) {
      for (Field &Input : S.Program.Inputs)
        Input.Source = DataSource::random(mix64(Seed * 7919 + ++InputIndex) &
                                          ((uint64_t(1) << 53) - 1));
      // The tenant's program is its JSON description: the oracle runs
      // what the server parses, not the in-memory builder output.
      json::Value Description = programToJson(S.Program);
      Expected<StencilProgram> Served = programFromJson(Description);
      if (!Served)
        return Served.takeError();
      for (int Degree : {1, 2}) {
        Expected<uint64_t> Crc = oracle(*Served, Degree, S.Chain, S.Length);
        if (!Crc)
          return Crc.takeError();
        Expected<uint64_t> Fused = fusedOracle(*Served, Degree);
        if (!Fused)
          return Fused.takeError();
        for (int Width : {1, 4}) {
          Entry E;
          E.Name = std::string(S.Name) + "-w" + std::to_string(Width) + "-t" +
                   std::to_string(Degree);
          E.Program = Description;
          E.Width = Width;
          E.Degree = Degree;
          E.ExpectedCrc = *Crc;
          E.FusedCrc = *Fused;
          // The plan the server compiles for this key: its flop count
          // weighs sim_gops, and its kernels are timed in isolation.
          StencilProgram Vectorized = Served->clone();
          Vectorized.VectorWidth = Width;
          PipelineOptions PO = daemonBase();
          PO.TemporalDegree = Degree;
          Expected<CompiledPlan> Plan =
              compilePipeline(std::move(Vectorized), PO);
          if (!Plan)
            return Plan.takeError();
          E.Flops = static_cast<double>(Plan->Runtime.TotalFlops);
          E.Plan = std::make_shared<const CompiledPlan>(Plan.takeValue());
          if (Degree == 1 && Width == 1 && S.Chain)
            Tunable.push_back(Entries.size());
          if (Width == 1)
            Fusable.push_back(Entries.size());
          Entries.push_back(std::move(E));
        }
      }
    }
    RoundSize = static_cast<int>(Entries.size()) + MissesPerRound +
                FusedPerRound + TunedPerRound;
    return Error::success();
  }

  /// The request slot of sequence index \p Index (deterministic in the
  /// seed; independent of which client claims it).
  Slot slot(uint64_t Seed, int64_t Index) const {
    int64_t Round = Index / RoundSize;
    int Position = static_cast<int>(Index % RoundSize);
    // Fisher-Yates over the round's slot kinds, seeded per round.
    std::vector<int> Order(static_cast<size_t>(RoundSize));
    for (int I = 0; I != RoundSize; ++I)
      Order[static_cast<size_t>(I)] = I;
    uint64_t State = mix64(Seed ^ mix64(static_cast<uint64_t>(Round)));
    for (int I = RoundSize - 1; I > 0; --I) {
      State = mix64(State);
      std::swap(Order[static_cast<size_t>(I)],
                Order[static_cast<size_t>(State % static_cast<uint64_t>(I + 1))]);
    }
    int Kinded = Order[static_cast<size_t>(Position)];
    int Hits = static_cast<int>(Entries.size());
    Slot S;
    if (Kinded < Hits) {
      S.Type = Kind::Hit;
      S.EntryIndex = static_cast<size_t>(Kinded);
    } else if (Kinded < Hits + MissesPerRound + FusedPerRound) {
      // Plain and fused misses keep separate fresh-key counters: the fuse
      // flag is part of the key.
      bool Fused = Kinded >= Hits + MissesPerRound;
      int PerRound = Fused ? FusedPerRound : MissesPerRound;
      int64_t Serial = Round * PerRound +
                       (Kinded - Hits - (Fused ? MissesPerRound : 0));
      S.Type = Fused ? Kind::FusedMiss : Kind::Miss;
      if (Fused) {
        S.EntryIndex = Fusable[static_cast<size_t>(Serial) % Fusable.size()];
        S.Fresh =
            static_cast<int>(Serial / static_cast<int64_t>(Fusable.size()));
      } else {
        S.EntryIndex = static_cast<size_t>(Serial) % Entries.size();
        S.Fresh =
            static_cast<int>(Serial / static_cast<int64_t>(Entries.size()));
      }
    } else {
      int64_t Serial = Round * TunedPerRound;
      S.Type = Kind::Tuned;
      S.EntryIndex = Tunable[static_cast<size_t>(Serial) % Tunable.size()];
      S.Fresh = static_cast<int>(Serial / static_cast<int64_t>(Tunable.size()));
    }
    return S;
  }

  /// Rounds a run may use before a fresh key would repeat.
  int64_t maxRounds() const {
    int64_t ByMisses =
        FreshUtilizations * static_cast<int64_t>(Entries.size()) /
        MissesPerRound;
    int64_t ByFused = FreshUtilizations *
                      static_cast<int64_t>(Fusable.size()) / FusedPerRound;
    int64_t ByTuned = FreshUtilizations *
                      static_cast<int64_t>(Tunable.size()) / TunedPerRound;
    return std::min({ByMisses, ByFused, ByTuned});
  }

  Request request(const Slot &S, const std::string &Id) const {
    const Entry &E = Entries[S.EntryIndex];
    Request R;
    R.Id = Id;
    R.Op = RequestOp::Run;
    R.Program = E.Program;
    R.Options.Vectorize = E.Width;
    R.Options.TemporalDegree = E.Degree;
    if (S.Type != Kind::Hit)
      R.Options.TargetUtilization = utilizationFor(S.Fresh);
    R.Options.Fuse = S.Type == Kind::FusedMiss;
    if (S.Type == Kind::Tuned) {
      R.Options.Tune = true;
      R.Options.TuneBudget = TuneBudget;
    }
    return R;
  }

private:
  /// The output CRC of the reference executor on the program a fused miss
  /// compiles: unrolled, then fused. A fused program computes through the
  /// halo, so its boundary cells differ from the unfused oracle's.
  static Expected<uint64_t> fusedOracle(const StencilProgram &P, int Degree) {
    StencilProgram Fused = P.clone();
    if (Degree > 1) {
      Expected<StencilProgram> Unrolled = sdfg::unrollTimeSteps(P, Degree);
      if (!Unrolled)
        return Unrolled.takeError();
      Fused = Unrolled.takeValue();
    }
    Expected<FusionReport> Report = fuseAllStencils(Fused);
    if (!Report)
      return Report.takeError();
    Expected<CompiledProgram> Compiled = CompiledProgram::compile(std::move(Fused));
    if (!Compiled)
      return Compiled.takeError();
    Expected<ExecutionResult> Ran =
        runReference(*Compiled, materializeInputs(Compiled->program()));
    if (!Ran)
      return Ran.takeError();
    return outputsCrc(Compiled->program().Outputs, Ran->Fields);
  }

  /// The output CRC of the reference executor (iterated \p Degree steps),
  /// computed by the benchmark; for a chain kernel, the oracle must also
  /// be within float32 rounding of the benchmark's own plain loop.
  static Expected<uint64_t> oracle(const StencilProgram &P, int Degree,
                                   std::optional<ChainKind> Chain,
                                   int Length) {
    Expected<CompiledProgram> Compiled = CompiledProgram::compile(P.clone());
    if (!Compiled)
      return Compiled.takeError();
    auto Inputs = materializeInputs(Compiled->program());
    std::vector<double> First = Inputs.begin()->second;
    Expected<ExecutionResult> Ran =
        Degree == 1 ? runReference(*Compiled, Inputs)
                    : iterateReference(*Compiled, std::move(Inputs), P.TimeLoop,
                                       Degree);
    if (!Ran)
      return Ran.takeError();
    if (Chain) {
      int Steps = Length * Degree;
      std::vector<double> Plain =
          plainChain(*Chain, P.IterationSpace.extents(), First, Steps);
      if (!withinFloatRounding(Ran->field(P.Outputs.front()), Plain, Steps))
        return makeError(ErrorCode::ValidationMismatch,
                         P.Name + ": the oracle is not within float32 "
                                  "rounding of the plain-loop evaluator");
    }
    return outputsCrc(P.Outputs, Ran->Fields);
  }
};

ServerOptions daemonOptions() {
  // examples/sf_serve.cpp defaults, without --constrained-memory.
  ServerOptions O;
  O.Workers = 2;
  O.QueueDepth = 16;
  O.CacheCapacity = 64;
  O.DevicePool = 8;
  O.Base = daemonBase();
  return O;
}

/// One request through the protocol, as a client and the daemon's
/// transport would carry it.
Record roundTrip(Server &S, const Catalogue &C, const Slot &Sl,
                 int64_t Index) {
  Record Rec;
  Rec.Type = Sl.Type;
  Rec.EntryIndex = static_cast<uint16_t>(Sl.EntryIndex);
  Rec.Fresh = static_cast<uint16_t>(Sl.Fresh);
  Request R = C.request(Sl, "r" + std::to_string(Index));
  Clock::time_point Start = Clock::now();
  std::string Line = R.toJsonText();
  Expected<Request> Decoded = Request::fromJsonText(Line);
  if (!Decoded) {
    Rec.LatencyMs = static_cast<float>(millisSince(Start));
    Rec.Error = std::make_unique<std::string>("request decode: " +
                                              Decoded.message());
    return Rec;
  }
  Response Served = S.submit(Decoded.takeValue()).get();
  Expected<Response> Back = Response::fromJsonText(Served.toJsonText());
  Rec.LatencyMs = static_cast<float>(millisSince(Start));
  if (!Back) {
    Rec.Error =
        std::make_unique<std::string>("response decode: " + Back.message());
    return Rec;
  }
  Rec.Ok = Back->Ok;
  if (!Rec.Ok)
    Rec.Error = std::make_unique<std::string>(Back->ErrorMessage);
  Rec.ValidationPassed = Back->ValidationPassed;
  Rec.CacheHit = Back->CacheHit.value_or(false);
  Rec.OutputsCrc = Back->OutputsCrc;
  Rec.Cycles = Back->Cycles;
  Rec.FrequencyMHz = static_cast<float>(Back->FrequencyMHz);
  Rec.QueueMicros = static_cast<int32_t>(Back->QueueMicros);
  Rec.CompileMicros = static_cast<int32_t>(Back->CompileMicros);
  Rec.ExecuteMicros = static_cast<int32_t>(Back->ExecuteMicros);
  return Rec;
}

/// The closed loop of one client on the calling thread: it sends its next
/// request when the previous one completed, in whole rounds until
/// \p Seconds passed. With one request in flight, the process CPU time a
/// request spans is that request's own cost: the client's codecs and the
/// worker that served it (the idle worker sleeps). A reference reading
/// between every two rounds converts it to normalized time.
std::vector<Record> closedLoop(Server &S, const Catalogue &C, uint64_t Seed,
                               double Seconds) {
  const int64_t MaxOps = C.maxRounds() * C.RoundSize;
  // Reserved up front: growing by doubling would leave peak memory to
  // depend on where the run stopped.
  std::vector<Record> All;
  All.reserve(static_cast<size_t>(MaxOps));
  Clock::time_point Start = Clock::now();
  double RefBefore = referenceMs();
  for (int64_t Index = 0; secondsSince(Start) < Seconds && Index < MaxOps;) {
    std::vector<double> CpuMs;
    for (int I = 0; I != C.RoundSize; ++I, ++Index) {
      double OpStart = cpuSeconds();
      All.push_back(roundTrip(S, C, C.slot(Seed, Index), Index));
      CpuMs.push_back((cpuSeconds() - OpStart) * 1e3);
    }
    double RefAfter = referenceMs();
    for (int I = 0; I != C.RoundSize; ++I)
      All[All.size() - C.RoundSize + I].NormMs = static_cast<float>(
          normalizedMs(CpuMs[static_cast<size_t>(I)], RefBefore, RefAfter));
    RefBefore = RefAfter;
  }
  return All;
}

/// The output CRC a tuned miss must return: the reference executor's
/// outputs for the mapping the tuner picks. Tuned mappings may fuse, and a
/// fused program computes through the halo, so this differs from the
/// untuned oracle at boundary cells.
Expected<uint64_t> tunedOracle(const Entry &E, int Fresh,
                               std::map<std::string, uint64_t> &ByMapping) {
  Expected<StencilProgram> P = programFromJson(E.Program);
  if (!P)
    return P.takeError();
  P->VectorWidth = E.Width;
  PipelineOptions PO = daemonBase();
  PO.TemporalDegree = E.Degree;
  PO.Partitioning.TargetUtilization = utilizationFor(Fresh);
  tuner::TuneOptions TO;
  TO.Simulate = false;
  TO.Search.CandidateBudget = TuneBudget;
  Expected<tuner::TuningOutcome> Tuned = tuner::tuneProgram(*P, PO, TO);
  if (!Tuned)
    return Tuned.takeError();
  std::string Key = E.Name + "/" + Tuned->Best.id();
  if (auto It = ByMapping.find(Key); It != ByMapping.end())
    return It->second;
  Expected<StencilProgram> Applied = tuner::applyMapping(*P, Tuned->Best);
  if (!Applied)
    return Applied.takeError();
  Expected<CompiledProgram> Compiled =
      CompiledProgram::compile(Applied.takeValue());
  if (!Compiled)
    return Compiled.takeError();
  Expected<ExecutionResult> Ran =
      runReference(*Compiled, materializeInputs(Compiled->program()));
  if (!Ran)
    return Ran.takeError();
  uint64_t Crc = outputsCrc(Compiled->program().Outputs, Ran->Fields);
  ByMapping[Key] = Crc;
  return Crc;
}

/// Output checks of every response; counts failed operations.
void checkRecords(Outcome &Out, const Catalogue &C,
                  const std::vector<Record> &Records) {
  Out.Attempted += static_cast<int64_t>(Records.size());
  std::map<std::string, uint64_t> TunedCrcs;
  for (size_t I = 0; I != Records.size(); ++I) {
    const Record &R = Records[I];
    const Entry &E = C.Entries[R.EntryIndex];
    std::string Where = "serve request " + std::to_string(I) + " (" + E.Name +
                        ")";
    if (!R.Ok) {
      ++Out.Failed;
      Out.check(false, Where + ": " + (R.Error ? *R.Error : std::string()));
      continue;
    }
    Out.check(R.ValidationPassed, Where + ": validation failed");
    uint64_t Expected =
        R.Type == Kind::FusedMiss ? E.FusedCrc : E.ExpectedCrc;
    if (R.Type == Kind::Tuned) {
      auto Tuned = tunedOracle(E, R.Fresh, TunedCrcs);
      Out.check(static_cast<bool>(Tuned),
                Where + ": tuned oracle: " +
                    (Tuned ? std::string() : Tuned.message()));
      Expected = Tuned ? *Tuned : 0;
    }
    Out.check(R.OutputsCrc == Expected,
              Where + ": outputs_crc differs from the oracle's");
    bool Hit = R.CacheHit;
    Out.check(Hit == (R.Type == Kind::Hit),
              Where + (Hit ? ": fresh key served from the cache"
                           : ": catalogue key missed the cache"));
  }
}

} // namespace

void runServe(const Options &Opts, Outcome &Out) {
  Catalogue C;
  if (Error Err = C.build(Opts.Seed)) {
    Out.check(false, "serve catalogue: " + Err.message());
    return;
  }
  const ServerOptions Daemon = daemonOptions();
  Server S(Daemon);
  S.start();
  // Warm-up: one request per catalogue key compiles every plan.
  for (size_t I = 0; I != C.Entries.size(); ++I) {
    Slot Sl;
    Sl.EntryIndex = I;
    Record R = roundTrip(S, C, Sl, -1 - static_cast<int64_t>(I));
    Out.check(R.Ok && R.OutputsCrc == C.Entries[I].ExpectedCrc,
              "serve warm-up of " + C.Entries[I].Name + " failed");
  }

  if (!Opts.Trace) {
    Out.setupDone();
    std::vector<Record> Records = closedLoop(S, C, Opts.Seed, Opts.Seconds);
    S.stop();
    checkRecords(Out, C, Records);
    std::vector<double> Norm;
    double NormSeconds = 0.0;
    double Cycles = 0.0, Flops = 0.0, SimSeconds = 0.0;
    for (const Record &R : Records) {
      NormSeconds += R.NormMs / 1e3; // A failed request's work was spent.
      if (!R.Ok)
        continue;
      Norm.push_back(R.NormMs);
      Cycles += static_cast<double>(R.Cycles);
      if (R.Type == Kind::Hit || R.Type == Kind::Miss) {
        Flops += C.Entries[R.EntryIndex].Flops;
        SimSeconds +=
            static_cast<double>(R.Cycles) / (R.FrequencyMHz * 1e6);
      }
    }
    Out.set("ops_per_norm_s", static_cast<double>(Norm.size()) / NormSeconds,
            "op/norm-s");
    Out.set("op_norm_p50_ms", median(Norm), "norm-ms");
    Out.set("sim_cycles_per_norm_s", Cycles / NormSeconds, "cycle/norm-s");
    Out.set("sim_gops", SimSeconds > 0.0 ? Flops / SimSeconds / 1e9 : 0.0,
            "GOp/s");
    return;
  }

  // Traced mode. Pass A: the served closed loop, untraced.
  Out.setupDone();
  std::vector<Record> Records =
      closedLoop(S, C, Opts.Seed, Opts.Seconds / 4.0);
  S.stop();
  checkRecords(Out, C, Records);
  TracedPasses P;
  std::vector<double> Queue, Execute, Compile, Latency;
  int64_t Hits = 0;
  for (const Record &R : Records) {
    Latency.push_back(R.LatencyMs);
    OpRecord Op;
    Op.Crc = R.OutputsCrc;
    P.Real.push_back(Op);
    Queue.push_back(static_cast<double>(R.QueueMicros));
    Execute.push_back(static_cast<double>(R.ExecuteMicros));
    if (R.Type != Kind::Hit)
      Compile.push_back(static_cast<double>(R.CompileMicros));
    Hits += R.CacheHit;
  }
  Out.set("serve.request_p99_ms", quantile(Latency, 0.99), "ms");
  Out.set("serve.queue_us", median(Queue), "us");
  Out.set("serve.execute_us", median(Execute), "us");
  Out.set("serve.compile_us", median(Compile), "us");
  Out.set("serve.hit_ratio",
          Records.empty() ? 0.0
                          : static_cast<double>(Hits) /
                                static_cast<double>(Records.size()),
          "ratio");

  // Passes B1/B2: the layer calls Server::process makes, one request at a
  // time, in sequence order, against the replay's own plan map (one per
  // side, so both sides compile their misses).
  std::map<std::string, std::shared_ptr<const CompiledPlan>> PlansOf[2];
  int WarmSide = -1; ///< The side being warmed, with the span log off.
  OpFn Replay = [&](int64_t Index, OpRecord &Rec) {
    // Negative indices are the warm-up requests, one per catalogue key.
    Slot Sl;
    if (Index >= 0)
      Sl = C.slot(Opts.Seed, Index);
    else
      Sl.EntryIndex = static_cast<size_t>(-1 - Index);
    Request Req = C.request(Sl, "r" + std::to_string(Index));
    std::optional<Request> R;
    {
      ScopedSpan Sp("serve.protocol");
      Expected<Request> Decoded = Request::fromJsonText(Req.toJsonText());
      if (!Decoded)
        return false;
      R.emplace(Decoded.takeValue());
    }
    std::string KeyId;
    {
      ScopedSpan Sp("serve.fingerprint");
      PlanKey Key;
      Key.ProgramHash = fingerprintProgramJson(R->Program);
      Key.Fuse = R->Options.Fuse;
      Key.Simplify = R->Options.Simplify;
      Key.VectorWidth = R->Options.Vectorize;
      Key.TemporalDegree = std::max(1, R->Options.TemporalDegree);
      Key.MaxDevices = R->Options.MaxDevices;
      Key.TargetUtilization = R->Options.TargetUtilization;
      Key.KernelExec = R->Options.KernelExec;
      Key.Tuned = R->Options.Tune;
      Key.TuneBudget = R->Options.TuneBudget;
      KeyId = Key.id();
    }
    auto &Plans = PlansOf[WarmSide >= 0 ? WarmSide : SpanLog::get().enabled()];
    std::shared_ptr<const CompiledPlan> Plan = Plans[KeyId];
    if (!Plan) {
      // Server::compileForRequest.
      std::optional<StencilProgram> Prog;
      {
        ScopedSpan Sp("frontend.from_json");
        Expected<StencilProgram> Parsed = programFromJson(R->Program);
        if (!Parsed)
          return false;
        Prog.emplace(Parsed.takeValue());
      }
      if (R->Options.Vectorize > 0)
        Prog->VectorWidth = R->Options.Vectorize;
      PipelineOptions PO = Daemon.Base;
      PO.FuseStencils = R->Options.Fuse;
      PO.SimplifyCode = R->Options.Simplify;
      PO.TemporalDegree = std::max(1, R->Options.TemporalDegree);
      PO.Partitioning.MaxDevices = R->Options.MaxDevices;
      PO.Partitioning.TargetUtilization = R->Options.TargetUtilization;
      PO.Simulator.KernelExec = R->Options.KernelExec;
      PO.EmitCode = false;
      if (R->Options.Tune) {
        ScopedSpan Sp("tuner.tune");
        tuner::TuneOptions TO;
        TO.Simulate = false;
        TO.Search.CandidateBudget = std::max(1, R->Options.TuneBudget);
        Expected<tuner::TuningOutcome> Tuned =
            tuner::tuneProgram(*Prog, PO, TO);
        if (!Tuned)
          return false;
        Expected<StencilProgram> Applied =
            tuner::applyMapping(*Prog, Tuned->Best);
        if (!Applied)
          return false;
        Prog.emplace(Applied.takeValue());
        PO.FuseStencils = false;
        PO.Partitioning.MaxDevices = Tuned->Best.MaxDevices;
        PO.Partitioning.TargetUtilization = Tuned->Best.TargetUtilization;
      }
      Expected<CompiledPlan> Compiled = compileLayered(std::move(*Prog), PO);
      if (!Compiled)
        return false;
      Plan = std::make_shared<const CompiledPlan>(Compiled.takeValue());
      Plans[KeyId] = Plan;
    }
    // Server::process.
    PipelineOptions EO = Daemon.Base;
    EO.Simulate = true;
    EO.Validate = R->Options.Validate;
    EO.Simulator.Engine = R->Options.Engine == "parallel"
                              ? sim::SimEngine::Parallel
                              : sim::SimEngine::Serial;
    EO.Simulator.Threads = R->Options.Threads;
    EO.Simulator.KernelExec = R->Options.KernelExec;
    Expected<PlanExecution> Exec = executeLayered(*Plan, EO);
    if (!Exec)
      return false;
    Rec.Crc = outputsCrc(Plan->Compiled.program().Outputs,
                         Exec->Simulation.Outputs);
    Rec.Sim = sampleOf(Exec->Simulation.Stats);
    Rec.Simulated = true;
    ScopedSpan Sp("serve.protocol");
    Response Resp;
    Resp.Id = R->Id;
    Resp.Ok = true;
    Resp.CacheHit = true;
    Resp.Cycles = Exec->Simulation.Stats.Cycles;
    Resp.ValidationPassed = Exec->ValidationPassed;
    Resp.OutputsCrc = Rec.Crc;
    Expected<Response> Back = Response::fromJsonText(Resp.toJsonText());
    return static_cast<bool>(Back) && Exec->ValidationPassed;
  };
  auto Warm = [&] {
    for (WarmSide = 0; WarmSide != 2; ++WarmSide)
      for (size_t I = 0; I != C.Entries.size(); ++I) {
        OpRecord Ignored;
        Replay(-1 - static_cast<int64_t>(I), Ignored);
      }
    WarmSide = -1;
  };
  runReplayPasses(Out, P, Replay, Warm);
  reportReplayLayers(Out, P);
  Out.set("serve.protocol_us", SpanLog::get().perOpMedianUs("serve.protocol"),
          "us");
  Out.set("serve.fingerprint_us",
          SpanLog::get().perOpMedianUs("serve.fingerprint"), "us");

  // Kernel timing on the catalogue's own kernels at each key's width.
  std::vector<double> EvalNs, Evaluations;
  for (const Entry &E : C.Entries) {
    EvalNs.push_back(evaluateNs(E.Plan->Compiled, Daemon.Base.Simulator.KernelExec,
                                E.Width));
    Evaluations.push_back(evaluationsPerRun(E.Plan->Compiled));
  }
  Out.set("compute.evaluate_ns", median(EvalNs), "ns");
  Out.set("compute.evaluations", median(Evaluations), "count");
}

} // namespace perfbench
