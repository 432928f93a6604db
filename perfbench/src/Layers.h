//===- perfbench/src/Layers.h - Layer-by-layer pipeline replay ----*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced mode's view of the stack: the compile half and the execute
/// half of the pipeline rebuilt from their public phases, in the order
/// `compilePipeline` and `executePlan` call them, with one span per phase.
/// Also the independent checks the benchmark carries itself: plain-loop
/// chain evaluators and the off-chip byte bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "runtime/Pipeline.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `compilePipeline` phase by phase: unroll, fuse, kernel compilation,
/// dataflow analysis, estimates, partitioning. Code generation and
/// algebraic simplification are not used by any workload and are refused.
stencilflow::Expected<stencilflow::CompiledPlan>
compileLayered(stencilflow::StencilProgram Program,
               const stencilflow::PipelineOptions &Options);

/// `executePlan` phase by phase for a fault-free run without resume:
/// inputs, machine build, run, reference oracle, validation.
stencilflow::Expected<stencilflow::PlanExecution>
executeLayered(const stencilflow::CompiledPlan &Plan,
               const stencilflow::PipelineOptions &Options);

/// The simulator statistics one operation produced.
struct SimSample {
  double Cycles = 0, StallInput = 0, StallOutput = 0, StallMemory = 0,
         StallNetwork = 0, MemoryBytes = 0, NetworkBytes = 0;
};
SimSample sampleOf(const stencilflow::sim::SimStats &Stats);

/// Fills the frontend/sdfg/core/tuner/runtime/sim per-layer metrics from
/// the span log and \p Samples (one per simulated operation).
void reportPipelineLayers(Outcome &Out, const std::vector<SimSample> &Samples);

/// Nanoseconds per `KernelEvaluator::evaluate` call, median over the
/// program's kernels, each compiled for \p Tier at \p Lanes and timed in
/// isolation on fixed inputs.
double evaluateNs(const stencilflow::CompiledProgram &Compiled,
                  stencilflow::compute::KernelEngine Tier, int Lanes);

/// Kernel evaluations one run of \p Compiled makes: one per output vector
/// of every stencil unit.
double evaluationsPerRun(const stencilflow::CompiledProgram &Compiled);

/// Off-chip traffic bounds of one run: one read of every full-rank input
/// and one write of every output at least; at most that plus one read of
/// every lower-dimensional input.
struct ByteBounds {
  double Lower = 0.0;
  double Upper = 0.0;
  double FieldBytes = 0.0; ///< One full-rank field of the first output's type.
};
ByteBounds offChipBounds(const stencilflow::StencilProgram &Program);

/// The chain kernels the benchmark evaluates with its own plain loops.
enum class ChainKind { Jacobi2d, Jacobi3d, Diffusion2d };

/// Applies \p Steps chain stencils to \p Input (row-major over
/// \p Extents, zero outside the domain) in float32, term by term in
/// source order.
std::vector<double> plainChain(ChainKind Kind,
                               const std::vector<int64_t> &Extents,
                               const std::vector<double> &Input, int Steps);

/// True when every element of \p Actual is within float32 rounding of
/// \p Expected after \p Steps stencil applications.
bool withinFloatRounding(const std::vector<double> &Actual,
                         const std::vector<double> &Expected, int Steps);

/// Sum of a vector.
double sumOf(const std::vector<double> &Values);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
