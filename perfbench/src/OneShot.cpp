//===- perfbench/src/OneShot.cpp - hdiff and jacobi3d_8dev workloads -----------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two workloads of identical one-shot runs:
///
///  - hdiff: the COSMO horizontal-diffusion program (paper Sec. IX) on one
///    device with the finite memory controller, from JSON through Session
///    (compile, simulate, validate), as `run_program --constrained-memory`
///    runs it. Long non-chain tapes put the work on kernel evaluation, the
///    memory controller and the oracle; nothing is cached between runs.
///  - jacobi3d_8dev: a 16-stencil Jacobi 3D chain split over 8 simulated
///    devices, 2 stencils each, with ideal memory (the paper's multi-FPGA
///    configuration). Trivial kernels leave channel work, remote streams
///    and the stepping loop as the cost.
///
/// The seed re-seeds every input field's data, so values differ between
/// seeds while the work stays the same.
///
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "frontend/ProgramLoader.h"
#include "runtime/InputData.h"
#include "runtime/Session.h"
#include "workloads/Workloads.h"

using namespace stencilflow;

namespace perfbench {

namespace {

/// Replaces every input's data source with one derived from \p Seed.
void reseedInputs(StencilProgram &P, uint64_t Seed) {
  uint64_t Index = 0;
  for (Field &Input : P.Inputs)
    Input.Source = DataSource::random(mix64(Seed * 1000003 + ++Index) &
                                      ((uint64_t(1) << 53) - 1));
}

/// Shared per-run checks of one completed pipeline run.
void checkCycles(Outcome &Out, const sim::SimStats &Stats,
                 const RuntimeEstimate &Model) {
  Out.check(Stats.Cycles >= Model.TotalCycles,
            "simulated cycles " + std::to_string(Stats.Cycles) +
                " below the runtime model's L + N = " +
                std::to_string(Model.TotalCycles));
}

void fillRecord(OpRecord &R, const CompiledProgram &Compiled,
                const sim::SimResult &Sim, const RuntimeEstimate &Model,
                double FrequencyMHz) {
  R.Crc = outputsCrc(Compiled.program().Outputs, Sim.Outputs);
  R.Sim = sampleOf(Sim.Stats);
  R.Simulated = true;
  R.SimSeconds = static_cast<double>(Sim.Stats.Cycles) / (FrequencyMHz * 1e6);
  R.Flops = static_cast<double>(Model.TotalFlops);
}

} // namespace

//===----------------------------------------------------------------------===//
// hdiff
//===----------------------------------------------------------------------===//

void runHdiff(const Options &Opts, Outcome &Out) {
  StencilProgram Program = workloads::horizontalDiffusion(16, 64, 64);
  reseedInputs(Program, Opts.Seed);
  const std::string Json = programToJson(Program).toString();
  const ByteBounds Bounds = offChipBounds(Program);

  // As run_program --constrained-memory configures its Session.
  auto Configure = [](Session &S) {
    S.fuseStencils(false)
        .simplifyCode(false)
        .unconstrainedMemory(false)
        .stallTimeout(0);
  };
  auto CheckRun = [&](const sim::SimStats &Stats, bool Validated,
                      const RuntimeEstimate &Model) {
    Out.check(Validated, "hdiff: validation against the oracle failed");
    double Bytes = sumOf(Stats.MemoryBytesMoved);
    Out.check(Bytes >= Bounds.Lower && Bytes <= Bounds.Upper,
              "hdiff: off-chip bytes " + std::to_string(Bytes) +
                  " outside [" + std::to_string(Bounds.Lower) + ", " +
                  std::to_string(Bounds.Upper) + "]");
    checkCycles(Out, Stats, Model);
  };

  uint64_t ExpectedCrc = 0;
  OpFn Real = [&](int64_t, OpRecord &R) {
    Expected<Session> S = Session::fromJsonText(Json);
    if (!S) {
      Out.check(false, "hdiff: " + S.message());
      return false;
    }
    Configure(*S);
    Expected<PipelineResult> Result = S->run();
    if (!Result) {
      Out.check(false, "hdiff: " + Result.message());
      return false;
    }
    CheckRun(Result->Simulation.Stats, Result->ValidationPassed,
             Result->Runtime);
    fillRecord(R, Result->Compiled, Result->Simulation, Result->Runtime,
               Result->FrequencyMHz);
    Out.check(ExpectedCrc == 0 || R.Crc == ExpectedCrc,
              "hdiff: outputs differ between identical runs");
    return true;
  };

  // Set-up: the first, untimed run.
  OpRecord First;
  bool FirstOk = Real(0, First);
  ExpectedCrc = First.Crc;

  if (!Opts.Trace) {
    Out.setupDone();
    if (FirstOk)
      runUntracedOps(Opts, Out, Real);
    return;
  }

  // The Session's configuration, for the layer-by-layer replay.
  Expected<Session> Template = Session::fromJsonText(Json);
  if (!Template) {
    Out.check(false, "hdiff: " + Template.message());
    return;
  }
  Configure(*Template);
  const PipelineOptions PO = Template->pipelineOptions();
  Expected<CompiledPlan> Plan = compilePipeline(Program.clone(), PO);
  if (!Plan) {
    Out.check(false, "hdiff: " + Plan.message());
    return;
  }
  Out.setupDone();

  OpFn Replay = [&](int64_t, OpRecord &R) {
    std::optional<StencilProgram> Parsed;
    {
      ScopedSpan S("frontend.from_json");
      Expected<StencilProgram> P = programFromJsonText(Json);
      if (!P) {
        Out.check(false, "hdiff: " + P.message());
        return false;
      }
      Parsed.emplace(P.takeValue());
    }
    Expected<CompiledPlan> Compiled = compileLayered(std::move(*Parsed), PO);
    if (!Compiled) {
      Out.check(false, "hdiff: " + Compiled.message());
      return false;
    }
    Expected<PlanExecution> Exec = executeLayered(*Compiled, PO);
    if (!Exec) {
      Out.check(false, "hdiff: " + Exec.message());
      return false;
    }
    CheckRun(Exec->Simulation.Stats, Exec->ValidationPassed,
             Compiled->Runtime);
    fillRecord(R, Compiled->Compiled, Exec->Simulation, Compiled->Runtime,
               Compiled->FrequencyMHz);
    return true;
  };
  TracedPasses P = runTracedPasses(Opts, Out, 1.0 / 3.0, Real, Replay);
  reportReplayLayers(Out, P);
  Out.set("compute.evaluate_ns",
          evaluateNs(Plan->Compiled, PO.Simulator.KernelExec,
                     Plan->Compiled.program().VectorWidth),
          "ns");
  Out.set("compute.evaluations", evaluationsPerRun(Plan->Compiled), "count");
}

//===----------------------------------------------------------------------===//
// jacobi3d_8dev
//===----------------------------------------------------------------------===//

void runJacobi8(const Options &Opts, Outcome &Out) {
  const int Chain = 16, PerDevice = 2, Devices = 8;
  const std::vector<int64_t> Extents = {16, 48, 48};
  StencilProgram Program =
      workloads::jacobi3dChain(Chain, Extents[0], Extents[1], Extents[2]);
  reseedInputs(Program, Opts.Seed);
  const ByteBounds Bounds = offChipBounds(Program);

  // Ideal memory, default engine; the device budget holds PerDevice
  // 7-DSP stencils, so the partitioner splits the chain 2 per device.
  PipelineOptions PO;
  PO.Validate = false;
  PO.Simulator.UnconstrainedMemory = true;
  PO.Partitioning.TargetUtilization = 1.0;
  PO.Partitioning.Device.DSPs = 7 * Program.VectorWidth * PerDevice;
  PO.Partitioning.MaxDevices = Devices;

  uint64_t ExpectedCrc = 0;
  auto CheckRun = [&](const sim::SimStats &Stats, size_t NumDevices,
                      const RuntimeEstimate &Model, uint64_t Crc) {
    Out.check(NumDevices == static_cast<size_t>(Devices),
              "jacobi3d_8dev: placed on " + std::to_string(NumDevices) +
                  " devices, expected 8");
    Out.check(Stats.NetworkBytesMoved ==
                  static_cast<double>(NumDevices - 1) * Bounds.FieldBytes,
              "jacobi3d_8dev: network bytes " +
                  std::to_string(Stats.NetworkBytesMoved) +
                  " != (devices - 1) x field bytes");
    Out.check(sumOf(Stats.MemoryBytesMoved) == Bounds.Lower,
              "jacobi3d_8dev: off-chip bytes " +
                  std::to_string(sumOf(Stats.MemoryBytesMoved)) +
                  " != input + output field bytes");
    checkCycles(Out, Stats, Model);
    Out.check(ExpectedCrc == 0 || Crc == ExpectedCrc,
              "jacobi3d_8dev: outputs differ between identical runs");
  };

  OpFn Real = [&](int64_t, OpRecord &R) {
    Session S = Session::fromProgram(Program.clone());
    S.options(PO);
    Expected<PipelineResult> Result = S.run();
    if (!Result) {
      Out.check(false, "jacobi3d_8dev: " + Result.message());
      return false;
    }
    fillRecord(R, Result->Compiled, Result->Simulation, Result->Runtime,
               Result->FrequencyMHz);
    CheckRun(Result->Simulation.Stats, Result->Placement.numDevices(),
             Result->Runtime, R.Crc);
    return true;
  };

  // Set-up: the first, untimed run, checked against the plain loop.
  Session First = Session::fromProgram(Program.clone());
  First.options(PO);
  Expected<PipelineResult> FirstRun = First.run();
  if (!FirstRun) {
    Out.check(false, "jacobi3d_8dev: " + FirstRun.message());
    return;
  }
  const std::string OutName = Program.Outputs.front();
  std::vector<double> Plain = plainChain(
      ChainKind::Jacobi3d, Extents,
      materializeInputs(FirstRun->Compiled.program()).at("a0"), Chain);
  Out.check(withinFloatRounding(FirstRun->Simulation.Outputs.at(OutName),
                                Plain, Chain),
            "jacobi3d_8dev: outputs not within float32 rounding of the "
            "plain-loop Jacobi 3D");
  ExpectedCrc = outputsCrc(Program.Outputs, FirstRun->Simulation.Outputs);
  CheckRun(FirstRun->Simulation.Stats, FirstRun->Placement.numDevices(),
           FirstRun->Runtime, ExpectedCrc);

  if (!Opts.Trace) {
    Out.setupDone();
    runUntracedOps(Opts, Out, Real);
    return;
  }
  Out.setupDone();

  OpFn Replay = [&](int64_t, OpRecord &R) {
    Expected<CompiledPlan> Plan = compileLayered(Program.clone(), PO);
    if (!Plan) {
      Out.check(false, "jacobi3d_8dev: " + Plan.message());
      return false;
    }
    Expected<PlanExecution> Exec = executeLayered(*Plan, PO);
    if (!Exec) {
      Out.check(false, "jacobi3d_8dev: " + Exec.message());
      return false;
    }
    fillRecord(R, Plan->Compiled, Exec->Simulation, Plan->Runtime,
               Plan->FrequencyMHz);
    CheckRun(Exec->Simulation.Stats, Exec->Placement.numDevices(),
             Plan->Runtime, R.Crc);
    return true;
  };
  TracedPasses P = runTracedPasses(Opts, Out, 1.0 / 3.0, Real, Replay);
  reportReplayLayers(Out, P);
  Out.set("compute.evaluate_ns",
          evaluateNs(FirstRun->Compiled, PO.Simulator.KernelExec,
                     FirstRun->Compiled.program().VectorWidth),
          "ns");
  Out.set("compute.evaluations", evaluationsPerRun(FirstRun->Compiled),
          "count");
}

} // namespace perfbench
