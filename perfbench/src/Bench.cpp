//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ---------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <string>

namespace perfbench {

const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double cpuSeconds() {
  timespec Self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Self);
  rusage Children{};
  getrusage(RUSAGE_CHILDREN, &Children);
  auto Seconds = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return static_cast<double>(Self.tv_sec) +
         static_cast<double>(Self.tv_nsec) * 1e-9 +
         Seconds(Children.ru_utime) + Seconds(Children.ru_stime);
}

static std::vector<double> ReferenceReadings;

double referenceMs() {
  constexpr size_t Planes = 16, Rows = 32, Cols = 32;
  constexpr size_t Cells = Planes * Rows * Cols;
  constexpr uint64_t Keys = 6000;
  // Fixed inputs: every call does the same work on the same values. The
  // map allocates from a buffer of its own, so the library's use of the
  // heap cannot change what the kernel costs.
  static std::vector<double> In, Mid(Cells, 0.0), Out(Cells, 0.0);
  static std::vector<std::byte> Arena(1 << 20);
  if (In.empty())
    for (size_t I = 0; I != Cells; ++I)
      In.push_back(static_cast<double>(mix64(I) % 1000) / 1000.0);
  auto Sweep = [&](const std::vector<double> &From, std::vector<double> &To) {
    for (size_t K = 1; K + 1 < Planes; ++K)
      for (size_t J = 1; J + 1 < Rows; ++J)
        for (size_t I = 1; I + 1 < Cols; ++I) {
          size_t C = (K * Rows + J) * Cols + I;
          To[C] = 0.25 * From[C] +
                  0.125 * (From[C - 1] + From[C + 1] + From[C - Cols] +
                           From[C + Cols] + From[C - Rows * Cols] +
                           From[C + Rows * Cols]);
        }
  };
  double Start = cpuSeconds();
  Sweep(In, Mid);
  Sweep(Mid, Out);
  uint64_t Sum = 0;
  {
    std::pmr::monotonic_buffer_resource Pool(Arena.data(), Arena.size());
    std::pmr::map<std::pmr::string, uint64_t> Map(&Pool);
    for (uint64_t I = 0; I != Keys; ++I) {
      std::pmr::string Key(std::to_string(mix64(I) % 1000000), &Pool);
      Key += "_key";
      Map.emplace(std::move(Key), I);
    }
    for (const auto &[Key, Value] : Map)
      Sum += Key.size() + Value;
  }
  double Ms = (cpuSeconds() - Start) * 1e3;
  // Keeps the work observable.
  static volatile double Sink;
  Sink = Out[Cells / 2] + static_cast<double>(Sum & 0xff);
  ReferenceReadings.push_back(Ms);
  return Ms;
}

const std::vector<double> &referenceReadings() { return ReferenceReadings; }

double normalizedMs(double CpuMs, double RefBeforeMs, double RefAfterMs) {
  return CpuMs * NominalReferenceMs * 2.0 / (RefBeforeMs + RefAfterMs);
}

void Outcome::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  Correct = false;
  if (Problems.size() < 32)
    Problems.push_back(What);
}

void Outcome::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

void Outcome::setupDone() {
  if (SetupSeconds == 0.0)
    SetupSeconds = secondsSince(ProcessStart);
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

uint64_t outputsCrc(const std::vector<std::string> &Order,
                    const std::map<std::string, std::vector<double>> &Fields) {
  uint64_t Hash = 1469598103934665603ull;
  auto Mix = [&Hash](const void *Bytes, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Bytes);
    for (size_t I = 0; I != Size; ++I) {
      Hash ^= P[I];
      Hash *= 1099511628211ull;
    }
  };
  for (const std::string &Name : Order) {
    auto It = Fields.find(Name);
    if (It == Fields.end())
      continue;
    Mix(Name.data(), Name.size());
    Mix(It->second.data(), It->second.size() * sizeof(double));
  }
  return Hash;
}

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

LoopResult timedLoop(double Seconds, const std::function<bool(int64_t)> &Op) {
  LoopResult R;
  Clock::time_point Start = Clock::now();
  double RefBefore = referenceMs();
  for (int64_t Index = 0; secondsSince(Start) < Seconds; ++Index) {
    double OpStart = cpuSeconds();
    if (!Op(Index))
      ++R.Failed;
    double CpuMs = (cpuSeconds() - OpStart) * 1e3;
    double RefAfter = referenceMs();
    R.NormMs.push_back(normalizedMs(CpuMs, RefBefore, RefAfter));
    RefBefore = RefAfter;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Span log
//===----------------------------------------------------------------------===//

static int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessStart)
      .count();
}

SpanLog &SpanLog::get() {
  static SpanLog Log;
  return Log;
}

int32_t SpanLog::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.OpId = CurrentOp;
  S.StartNs = nowNs();
  int32_t Index = static_cast<int32_t>(Spans.size());
  Spans.push_back(S);
  Stack.push_back(Index);
  return Index;
}

void SpanLog::end(int32_t Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

static double durationUs(const Span &S) {
  return static_cast<double>(S.EndNs - S.StartNs) / 1000.0;
}

double SpanLog::perOpMedianUs(const char *Name) const {
  std::map<int64_t, double> PerOp;
  std::string Key = Name;
  for (const Span &S : Spans)
    if (Key == S.Name)
      PerOp[S.OpId] += durationUs(S);
  std::vector<double> Values;
  for (const auto &[Op, Us] : PerOp)
    Values.push_back(Us);
  return median(std::move(Values));
}

double SpanLog::perCallMedianUs(const char *Name) const {
  std::vector<double> Values;
  std::string Key = Name;
  for (const Span &S : Spans)
    if (Key == S.Name)
      Values.push_back(durationUs(S));
  return median(std::move(Values));
}

std::vector<LayerRow> SpanLog::table() const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[static_cast<size_t>(S.Parent)] += durationUs(S);
  std::map<std::string, std::vector<double>> Durations;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    Durations[Spans[I].Name].push_back(durationUs(Spans[I]));
    Self[Spans[I].Name] += durationUs(Spans[I]) - ChildUs[I];
  }
  std::vector<LayerRow> Rows;
  for (auto &[Name, Values] : Durations) {
    LayerRow Row;
    Row.Name = Name;
    Row.Count = static_cast<int64_t>(Values.size());
    for (double V : Values)
      Row.TotalUs += V;
    Row.MedianUs = median(Values);
    Row.SelfUs = Self[Name];
    Rows.push_back(Row);
  }
  std::sort(Rows.begin(), Rows.end(), [](const LayerRow &A, const LayerRow &B) {
    return A.SelfUs > B.SelfUs;
  });
  return Rows;
}

bool SpanLog::write(const std::string &TracePath,
                    const std::string &TablePath) const {
  FILE *Trace = std::fopen(TracePath.c_str(), "w");
  if (!Trace)
    return false;
  std::fprintf(Trace, "{\"traceEvents\":[\n");
  std::fprintf(Trace, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"args\":{\"name\":\"perfbench host time\"}}");
  for (const Span &S : Spans)
    std::fprintf(Trace,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"parent\":\"%s\"}}",
                 S.Name, static_cast<double>(S.StartNs) / 1000.0,
                 durationUs(S), static_cast<long long>(S.OpId),
                 S.Parent >= 0 ? Spans[static_cast<size_t>(S.Parent)].Name
                               : "");
  std::fprintf(Trace, "\n]}\n");
  bool Ok = std::fclose(Trace) == 0;

  FILE *Table = std::fopen(TablePath.c_str(), "w");
  if (!Table)
    return false;
  std::fprintf(Table, "layer\tcount\tmedian_us\ttotal_us\tself_us\n");
  for (const LayerRow &Row : table())
    std::fprintf(Table, "%s\t%lld\t%.3f\t%.3f\t%.3f\n", Row.Name.c_str(),
                 static_cast<long long>(Row.Count), Row.MedianUs, Row.TotalUs,
                 Row.SelfUs);
  return std::fclose(Table) == 0 && Ok;
}

//===----------------------------------------------------------------------===//
// Metric catalogue (must match BENCHMARK.json)
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> List = {
      {"ops_per_norm_s", "op/norm-s"},
      {"op_norm_p50_ms", "norm-ms"},
      {"sim_cycles_per_norm_s", "cycle/norm-s"},
      {"sim_gops", "GOp/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return List;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> List = {
      {"serve.request_p99_ms", "ms"},
      {"serve.queue_us", "us"},
      {"serve.execute_us", "us"},
      {"serve.compile_us", "us"},
      {"serve.hit_ratio", "ratio"},
      {"serve.protocol_us", "us"},
      {"serve.fingerprint_us", "us"},
      {"frontend.from_json_us", "us"},
      {"sdfg.unroll_us", "us"},
      {"sdfg.fuse_us", "us"},
      {"core.compile_us", "us"},
      {"core.dataflow_us", "us"},
      {"core.estimate_us", "us"},
      {"core.partition_us", "us"},
      {"tuner.tune_us", "us"},
      {"runtime.inputs_us", "us"},
      {"runtime.oracle_us", "us"},
      {"runtime.validate_us", "us"},
      {"sim.build_us", "us"},
      {"sim.run_us", "us"},
      {"sim.ns_per_cycle", "ns"},
      {"sim.cycles", "cycle"},
      {"sim.stall_input_cycles", "cycle"},
      {"sim.stall_output_cycles", "cycle"},
      {"sim.stall_memory_cycles", "cycle"},
      {"sim.stall_network_cycles", "cycle"},
      {"sim.memory_bytes", "B"},
      {"sim.network_bytes", "B"},
      {"compute.evaluate_ns", "ns"},
      {"compute.evaluations", "count"},
      {"compute.jit_compiles", "count"},
      {"fuzz.generate_us", "us"},
      {"fuzz.oracle_us", "us"},
      {"fuzz.config_jit_ms", "ms"},
      {"fuzz.config_resume_ms", "ms"},
      {"fuzz.config_parallel_ms", "ms"},
      {"fuzz.config_other_ms", "ms"},
      {"fuzz.runs", "count"},
      {"trace.overhead_pct", "%"},
  };
  return List;
}

} // namespace perfbench
