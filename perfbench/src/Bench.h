//===- perfbench/src/Bench.h - Shared benchmark plumbing ----------*- C++ -*-==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the command-line options, the result a run
/// prints, the timed loop, order statistics, and an in-memory span log for
/// the traced mode.
///
/// Spans are recorded from the benchmark's own code around each call into
/// a layer's public entry point; nothing inside the library is touched.
/// The log is single-threaded by design: traced passes replay operations
/// one at a time on the main thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Captured during static initialization, i.e. at process start.
extern const Clock::time_point ProcessStart;

double secondsSince(Clock::time_point Start);
double millisSince(Clock::time_point Start);

/// CPU seconds this process has used so far: every thread's, plus those of
/// the children it has waited for (the JIT tier's host compiler). Time the
/// host's hypervisor steals or other processes take is not counted.
double cpuSeconds();

/// Runs the benchmark's fixed reference kernel once (two 7-point stencil
/// sweeps and a 6,000-key std::map of strings built in an arena of its own:
/// about 2 ms of work that no change to the library can alter) and
/// returns its CPU time in milliseconds.
double referenceMs();

/// Every referenceMs() reading this process made, in order.
const std::vector<double> &referenceReadings();

/// What referenceMs() reads on a CPU at the reference speed: about its
/// median on the shared 4-core x86-64 host the benchmark was built on.
constexpr double NominalReferenceMs = 2.0;

/// CPU time \p CpuMs spent next to reference readings \p RefBeforeMs and
/// \p RefAfterMs, converted to the reference speed: the time the same work
/// takes on a CPU whose reference reading is NominalReferenceMs. A shared
/// host's CPU speed moves by 20-30% between runs; this unit does not.
double normalizedMs(double CpuMs, double RefBeforeMs, double RefAfterMs);

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Private scratch directory of this run (mkdtemp; removed at exit).
  std::string WorkDir;
  /// Where the traced mode writes its trace files; defaults to WorkDir.
  std::string TraceDir;
};

/// What a run prints as its last line.
struct Outcome {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Name -> (value, unit), in insertion-independent (sorted) order.
  std::map<std::string, std::pair<double, std::string>> Metrics;
  /// Human-readable reasons for Correct == false (printed to stderr).
  std::vector<std::string> Problems;
  /// Seconds from process start to the end of set-up.
  double SetupSeconds = 0.0;

  void check(bool Ok, const std::string &What);
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Records the end of set-up (the first call wins).
  void setupDone();
};

/// Linear-interpolated quantile (0 <= Q <= 1); 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// Peak resident set size of this process in MB.
double peakRssMb();

/// FNV-1a over output names and bit patterns, in \p Order — the protocol's
/// documented `outputs_crc`, computed independently of the library.
uint64_t outputsCrc(const std::vector<std::string> &Order,
                    const std::map<std::string, std::vector<double>> &Fields);

/// splitmix64: derives independent 64-bit values from one seed.
uint64_t mix64(uint64_t X);

/// Runs \p Op(Index) for Index = 0, 1, ... until \p Seconds have passed.
/// \p Op returns false for a failed operation.
/// Each operation is timed in normalized CPU time (normalizedMs), with a
/// reference reading between every two operations.
struct LoopResult {
  std::vector<double> NormMs; ///< One entry per attempted operation.
  int64_t Failed = 0;
};
LoopResult timedLoop(double Seconds, const std::function<bool(int64_t)> &Op);

//===----------------------------------------------------------------------===//
// Span log (traced mode)
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = nullptr; ///< A string literal.
  int64_t StartNs = 0;        ///< Since ProcessStart.
  int64_t EndNs = 0;
  int32_t Parent = -1; ///< Index into the log, -1 for a root span.
  int64_t OpId = -1;   ///< Operation the span belongs to.
};

/// Per-layer summary row.
struct LayerRow {
  std::string Name;
  int64_t Count = 0;
  double MedianUs = 0.0;
  double TotalUs = 0.0;
  double SelfUs = 0.0; ///< Total minus the time covered by child spans.
};

class SpanLog {
public:
  static SpanLog &get();

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Operation id stamped on spans begun from now on.
  void setOp(int64_t Id) { CurrentOp = Id; }

  int32_t begin(const char *Name);
  void end(int32_t Index);

  const std::vector<Span> &spans() const { return Spans; }

  /// Median over operations of the time each operation spent in spans
  /// named \p Name (summed per operation), in microseconds; 0 when no
  /// operation called the layer.
  double perOpMedianUs(const char *Name) const;
  /// Median duration of one span named \p Name, in microseconds.
  double perCallMedianUs(const char *Name) const;

  std::vector<LayerRow> table() const;

  /// Writes the Chrome trace-event file and the per-layer table.
  bool write(const std::string &TracePath, const std::string &TablePath) const;

private:
  bool Enabled = false;
  int64_t CurrentOp = -1;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span; costs one branch when the log is disabled.
class ScopedSpan {
public:
  explicit ScopedSpan(const char *Name)
      : Index(SpanLog::get().enabled() ? SpanLog::get().begin(Name) : -1) {}
  ~ScopedSpan() {
    if (Index >= 0)
      SpanLog::get().end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int32_t Index;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runServe(const Options &Opts, Outcome &Out);
void runHdiff(const Options &Opts, Outcome &Out);
void runJacobi8(const Options &Opts, Outcome &Out);
void runFuzz(const Options &Opts, Outcome &Out);

/// Every per-layer metric the traced mode reports, with its unit. A
/// workload that does not call a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();
/// Every end-to-end metric the untraced mode reports, with its unit.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
