//===- perfbench/src/Layers.cpp - Layer-by-layer pipeline replay ---------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "compute/Engine.h"
#include "runtime/InputData.h"
#include "sdfg/StencilFusion.h"
#include "sdfg/TemporalUnroll.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

using namespace stencilflow;

namespace perfbench {

Expected<CompiledPlan> compileLayered(StencilProgram Program,
                                      const PipelineOptions &Options) {
  if (Options.SimplifyCode || Options.EmitCode)
    return makeError(ErrorCode::InvalidInput,
                     "the layered replay covers neither simplification nor "
                     "code generation");
  CompiledPlan Plan;
  if (Options.TemporalDegree != 1) {
    ScopedSpan S("sdfg.unroll");
    Expected<StencilProgram> Unrolled =
        sdfg::unrollTimeSteps(Program, Options.TemporalDegree);
    if (!Unrolled)
      return Unrolled.takeError().addContext("temporal unrolling");
    Program = Unrolled.takeValue();
  }
  if (Options.FuseStencils) {
    ScopedSpan S("sdfg.fuse");
    Expected<FusionReport> Fusion = fuseAllStencils(Program);
    if (!Fusion)
      return Fusion.takeError().addContext("stencil fusion");
    Plan.FusedPairs = Fusion->FusedPairs;
  }
  {
    ScopedSpan S("core.compile");
    Expected<CompiledProgram> Compiled =
        CompiledProgram::compile(std::move(Program), Options.Kernel);
    if (!Compiled)
      return Compiled.takeError().addContext("compilation");
    Plan.Compiled = Compiled.takeValue();
  }
  {
    ScopedSpan S("core.dataflow");
    Expected<DataflowAnalysis> Dataflow =
        analyzeDataflow(Plan.Compiled, Options.Latencies);
    if (!Dataflow)
      return Dataflow.takeError().addContext("dataflow analysis");
    Plan.Dataflow = Dataflow.takeValue();
  }
  {
    ScopedSpan S("core.estimate");
    Plan.Runtime = computeRuntimeEstimate(Plan.Compiled, Plan.Dataflow);
    Plan.Resources = estimateProgramResources(
        Plan.Compiled, Plan.Dataflow, Options.Partitioning.ResourceConfig);
    Plan.FrequencyMHz =
        estimateFrequencyMHz(Plan.Resources, Options.Partitioning.Device,
                             Options.Partitioning.ResourceConfig);
  }
  {
    ScopedSpan S("core.partition");
    PartitionOptions PartOptions = Options.Partitioning;
    if (!Options.AllowMultiDevice)
      PartOptions.MaxDevices = 1;
    Expected<Partition> Placement =
        partitionProgram(Plan.Compiled, Plan.Dataflow, PartOptions);
    if (!Placement)
      return Placement.takeError().addContext("partitioning");
    Plan.Placement = Placement.takeValue();
  }
  return Plan;
}

Expected<PlanExecution> executeLayered(const CompiledPlan &Plan,
                                       const PipelineOptions &Options) {
  PlanExecution Exec;
  Exec.Placement = Plan.Placement;
  std::map<std::string, std::vector<double>> Inputs;
  {
    ScopedSpan S("runtime.inputs");
    Inputs = materializeInputs(Plan.Compiled.program());
  }
  std::optional<sim::Machine> M;
  {
    ScopedSpan S("sim.build");
    Expected<sim::Machine> Built = sim::Machine::build(
        Plan.Compiled, Plan.Dataflow,
        Plan.Placement.numDevices() > 1 ? &Plan.Placement : nullptr,
        Options.Simulator);
    if (!Built)
      return Built.takeError().addContext("simulator construction");
    M.emplace(Built.takeValue());
  }
  {
    ScopedSpan S("sim.run");
    Expected<sim::SimResult, sim::SimFailure> Sim = M->run(Inputs);
    if (!Sim)
      return Error(Sim.takeError()).addContext("simulation");
    Exec.Simulation = Sim.takeValue();
  }
  if (!Options.Validate)
    return Exec;
  std::optional<ExecutionResult> Reference;
  {
    ScopedSpan S("runtime.oracle");
    Expected<ExecutionResult> Ran = runReference(Plan.Compiled, Inputs);
    if (!Ran)
      return Ran.takeError().addContext("reference execution");
    Reference.emplace(Ran.takeValue());
  }
  ScopedSpan S("runtime.validate");
  for (const std::string &Output : Plan.Compiled.program().Outputs) {
    ValidationReport Report =
        validateField(Output, Exec.Simulation.Outputs.at(Output),
                      Reference->field(Output), Options.Tolerance);
    Exec.ValidationPassed &= Report.Passed;
    Exec.Validations.push_back(std::move(Report));
  }
  return Exec;
}

SimSample sampleOf(const sim::SimStats &Stats) {
  SimSample S;
  S.Cycles = static_cast<double>(Stats.Cycles);
  auto AddStalls = [&S](const auto &Map) {
    for (const auto &[Name, B] : Map) {
      S.StallInput += static_cast<double>(B[sim::StallCause::InputStarved]);
      S.StallOutput += static_cast<double>(B[sim::StallCause::OutputBlocked]);
      S.StallMemory += static_cast<double>(B[sim::StallCause::MemoryDenied]);
      S.StallNetwork +=
          static_cast<double>(B[sim::StallCause::NetworkDenied]);
    }
  };
  AddStalls(Stats.UnitStalls);
  AddStalls(Stats.ReaderStalls);
  AddStalls(Stats.WriterStalls);
  S.MemoryBytes = sumOf(Stats.MemoryBytesMoved);
  S.NetworkBytes = Stats.NetworkBytesMoved;
  return S;
}

void reportPipelineLayers(Outcome &Out,
                          const std::vector<SimSample> &Samples) {
  const SpanLog &Log = SpanLog::get();
  static const std::pair<const char *, const char *> Layers[] = {
      {"frontend.from_json", "frontend.from_json_us"},
      {"sdfg.unroll", "sdfg.unroll_us"},
      {"sdfg.fuse", "sdfg.fuse_us"},
      {"core.compile", "core.compile_us"},
      {"core.dataflow", "core.dataflow_us"},
      {"core.estimate", "core.estimate_us"},
      {"core.partition", "core.partition_us"},
      {"tuner.tune", "tuner.tune_us"},
      {"runtime.inputs", "runtime.inputs_us"},
      {"runtime.oracle", "runtime.oracle_us"},
      {"runtime.validate", "runtime.validate_us"},
      {"sim.build", "sim.build_us"},
      {"sim.run", "sim.run_us"},
  };
  for (const auto &[Span, Metric] : Layers)
    Out.set(Metric, Log.perOpMedianUs(Span), "us");

  auto MedianOf = [&Samples](double SimSample::*Field) {
    std::vector<double> Values;
    for (const SimSample &S : Samples)
      Values.push_back(S.*Field);
    return median(std::move(Values));
  };
  Out.set("sim.cycles", MedianOf(&SimSample::Cycles), "cycle");
  Out.set("sim.stall_input_cycles", MedianOf(&SimSample::StallInput), "cycle");
  Out.set("sim.stall_output_cycles", MedianOf(&SimSample::StallOutput),
          "cycle");
  Out.set("sim.stall_memory_cycles", MedianOf(&SimSample::StallMemory),
          "cycle");
  Out.set("sim.stall_network_cycles", MedianOf(&SimSample::StallNetwork),
          "cycle");
  Out.set("sim.memory_bytes", MedianOf(&SimSample::MemoryBytes), "B");
  Out.set("sim.network_bytes", MedianOf(&SimSample::NetworkBytes), "B");

  // Host nanoseconds per simulated cycle, paired run by run.
  std::vector<double> RunUs;
  for (const Span &S : Log.spans())
    if (std::string_view(S.Name) == "sim.run")
      RunUs.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1000.0);
  std::vector<double> NsPerCycle;
  for (size_t I = 0; I < RunUs.size() && I < Samples.size(); ++I)
    if (Samples[I].Cycles > 0)
      NsPerCycle.push_back(RunUs[I] * 1000.0 / Samples[I].Cycles);
  Out.set("sim.ns_per_cycle", median(std::move(NsPerCycle)), "ns");
}

double evaluateNs(const CompiledProgram &Compiled, compute::KernelEngine Tier,
                  int Lanes) {
  std::vector<double> PerKernel;
  for (size_t Node = 0; Node != Compiled.program().Nodes.size(); ++Node) {
    const compute::Kernel &K = Compiled.kernel(Node);
    compute::KernelEvaluator Eval =
        compute::KernelEvaluator::compile(K, Tier, Lanes);
    size_t Slots = std::max<size_t>(1, K.inputs().size());
    std::vector<double> In(Slots * static_cast<size_t>(Lanes));
    for (size_t I = 0; I != In.size(); ++I)
      In[I] = 0.25 + 0.5 * static_cast<double>(I % 7) / 7.0;
    std::vector<double> Out(static_cast<size_t>(Lanes));
    std::vector<double> Scratch(std::max<size_t>(1, Eval.scratchDoubles()));
    for (int Warm = 0; Warm != 256; ++Warm)
      Eval.evaluate(In.data(), Out.data(), Scratch.data());
    const int Calls = 20000;
    Clock::time_point Start = Clock::now();
    for (int Call = 0; Call != Calls; ++Call)
      Eval.evaluate(In.data(), Out.data(), Scratch.data());
    PerKernel.push_back(millisSince(Start) * 1e6 / Calls);
  }
  return median(std::move(PerKernel));
}

double evaluationsPerRun(const CompiledProgram &Compiled) {
  const StencilProgram &P = Compiled.program();
  double Vectors = std::ceil(static_cast<double>(P.IterationSpace.numCells()) /
                             std::max(1, P.VectorWidth));
  return Vectors * static_cast<double>(P.Nodes.size());
}

ByteBounds offChipBounds(const StencilProgram &Program) {
  ByteBounds B;
  int64_t Cells = Program.IterationSpace.numCells();
  for (const Field &Input : Program.Inputs) {
    double Bytes = static_cast<double>(
        Input.shapeWithin(Program.IterationSpace).numCells() *
        static_cast<int64_t>(dataTypeSize(Input.Type)));
    if (Input.isFullRank())
      B.Lower += Bytes;
    else
      B.Upper += Bytes;
  }
  for (const std::string &Output : Program.Outputs)
    B.Lower += static_cast<double>(
        Cells * static_cast<int64_t>(dataTypeSize(Program.fieldType(Output))));
  B.Upper += B.Lower;
  B.FieldBytes = static_cast<double>(
      Cells * static_cast<int64_t>(
                  dataTypeSize(Program.fieldType(Program.Outputs.front()))));
  return B;
}

std::vector<double> plainChain(ChainKind Kind,
                               const std::vector<int64_t> &Extents,
                               const std::vector<double> &Input, int Steps) {
  // Taps in source order (see workloads/Workloads.cpp).
  std::vector<std::vector<int64_t>> Taps;
  std::vector<float> Weights; // Diffusion: per-tap coefficients.
  float Scale = 1.0f;         // Jacobi: common factor.
  switch (Kind) {
  case ChainKind::Jacobi2d:
    Taps = {{0, 0}, {0, -1}, {0, 1}, {-1, 0}, {1, 0}};
    Scale = 0.2f;
    break;
  case ChainKind::Diffusion2d:
    Taps = {{0, 0}, {0, -1}, {0, 1}, {-1, 0}, {1, 0}};
    Weights = {0.6f, 0.1f, 0.1f, 0.1f, 0.1f};
    break;
  case ChainKind::Jacobi3d:
    Taps = {{0, 0, 0},  {-1, 0, 0}, {1, 0, 0}, {0, -1, 0},
            {0, 1, 0},  {0, 0, -1}, {0, 0, 1}};
    Scale = 0.142857f;
    break;
  }
  size_t Rank = Extents.size();
  int64_t Cells = 1;
  for (int64_t E : Extents)
    Cells *= E;
  std::vector<float> Cur(Input.begin(), Input.end()), Next(Cur.size());
  std::vector<int64_t> Index(Rank);
  for (int Step = 0; Step != Steps; ++Step) {
    for (int64_t Cell = 0; Cell != Cells; ++Cell) {
      int64_t Rest = Cell;
      for (size_t D = Rank; D-- > 0;) {
        Index[D] = Rest % Extents[D];
        Rest /= Extents[D];
      }
      float Acc = 0.0f;
      for (size_t T = 0; T != Taps.size(); ++T) {
        int64_t Flat = 0;
        bool Inside = true;
        for (size_t D = 0; D != Rank; ++D) {
          int64_t At = Index[D] + Taps[T][D];
          Inside &= At >= 0 && At < Extents[D];
          Flat = Flat * Extents[D] + At;
        }
        float V = Inside ? Cur[static_cast<size_t>(Flat)] : 0.0f;
        if (Weights.empty())
          Acc = T == 0 ? V : Acc + V;
        else
          Acc = T == 0 ? Weights[T] * V : Acc + Weights[T] * V;
      }
      Next[static_cast<size_t>(Cell)] = Weights.empty() ? Scale * Acc : Acc;
    }
    Cur.swap(Next);
  }
  return std::vector<double>(Cur.begin(), Cur.end());
}

bool withinFloatRounding(const std::vector<double> &Actual,
                         const std::vector<double> &Expected, int Steps) {
  if (Actual.size() != Expected.size())
    return false;
  double Tolerance = 4.0 * FLT_EPSILON * std::max(1, Steps);
  for (size_t I = 0; I != Actual.size(); ++I)
    if (!(std::fabs(Actual[I] - Expected[I]) <=
          Tolerance * std::max(1.0, std::fabs(Expected[I]))))
      return false;
  return true;
}

double sumOf(const std::vector<double> &Values) {
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum;
}

} // namespace perfbench
