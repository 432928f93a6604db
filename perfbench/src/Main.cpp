//===- perfbench/src/Main.cpp - Benchmark entry point --------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sf_perfbench --workload NAME --seed N --seconds S --trace 0|1
///              [--trace-dir DIR]
///
/// Runs one workload, checks its outputs, and prints one JSON object as the
/// last line of standard output: {"correct", "attempted", "failed",
/// "metrics"}. Untraced runs report the end-to-end metrics; traced runs
/// (--trace 1) report the per-layer metrics and write a Chrome trace-event
/// file plus a per-layer table (into --trace-dir, or into the run's private
/// scratch directory, which is removed at exit).
///
/// Every file a run writes goes under a private mkdtemp directory in
/// `.bench_runs/` of the working directory; TMPDIR points there too, so
/// the JIT tier's scratch files stay inside it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <ftw.h>
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

using namespace perfbench;

namespace {

int removeEntry(const char *Path, const struct stat *, int, struct FTW *) {
  return ::remove(Path);
}

/// Removes the run's scratch directory on every exit path of main().
struct ScratchDir {
  std::string Path;
  ~ScratchDir() {
    if (!Path.empty())
      ::nftw(Path.c_str(), removeEntry, 16, FTW_DEPTH | FTW_PHYS);
  }
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: sf_perfbench --workload "
               "serve|hdiff|jacobi3d_8dev|fuzz --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n",
               Why);
  return 2;
}

void printResult(Outcome &Out, bool Traced) {
  const auto &Wanted = Traced ? perLayerMetrics() : endToEndMetrics();
  std::string Json = "{\"correct\": ";
  std::string Metrics;
  for (const auto &[Name, Unit] : Wanted) {
    auto It = Out.Metrics.find(Name);
    double Value = 0.0;
    if (It != Out.Metrics.end())
      Value = It->second.first;
    else if (!Traced)
      Out.check(false, "end-to-end metric " + Name + " was not measured");
    if (!std::isfinite(Value)) {
      Out.check(false, "metric " + Name + " is not finite");
      Value = 0.0;
    }
    char Buffer[128];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += "\"" + Name + "\": {\"value\": " + Buffer + ", \"unit\": \"" +
               Unit + "\"}";
  }
  if (Out.Attempted < 1)
    Out.check(false, "no operation was attempted");
  for (const std::string &Problem : Out.Problems)
    std::fprintf(stderr, "check failed: %s\n", Problem.c_str());
  Json += Out.Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {" + Metrics + "}}";
  std::fflush(stderr);
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      Opts.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      Opts.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End || Value.find_first_not_of("0123456789") !=
                                       std::string::npos)
        return usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      Opts.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(Opts.Seconds > 0.0) ||
          Opts.Seconds > 60.0)
        return usage("--seconds takes a number in (0, 60]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Flag == "--trace-dir") {
      Opts.TraceDir = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  static const std::set<std::string> Known = {"serve", "hdiff",
                                              "jacobi3d_8dev", "fuzz"};
  if (!HaveWorkload || !Known.count(Opts.Workload))
    return usage("--workload must name one of the workloads");

  ::mkdir(".bench_runs", 0755); // EEXIST is fine; mkdtemp reports the rest.
  ScratchDir Scratch;
  char Template[] = ".bench_runs/run-XXXXXX";
  if (!::mkdtemp(Template)) {
    std::fprintf(stderr, "error: cannot create a scratch directory: %s\n",
                 std::strerror(errno));
    return 1;
  }
  char *Absolute = ::realpath(Template, nullptr);
  Scratch.Path = Absolute ? Absolute : Template;
  std::free(Absolute);
  Opts.WorkDir = Scratch.Path;
  ::setenv("TMPDIR", Opts.WorkDir.c_str(), 1);
  if (Opts.TraceDir.empty())
    Opts.TraceDir = Opts.WorkDir;
  else
    ::mkdir(Opts.TraceDir.c_str(), 0755); // EEXIST is fine; write() reports.

  // One request is in flight at a time and hdiff and jacobi3d_8dev are
  // single-threaded, so these workloads run on the one CPU the process
  // started on: the client, the serving worker and the reference kernel
  // then share that CPU's speed, and no handoff crosses CPUs. fuzz keeps
  // every CPU for the parallel engine's threads and the host compiler.
  if (Opts.Workload != "fuzz") {
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(std::max(0, ::sched_getcpu()), &One);
    if (::sched_setaffinity(0, sizeof(One), &One) != 0)
      std::fprintf(stderr, "warning: cannot pin to one CPU: %s\n",
                   std::strerror(errno));
  }

  Outcome Out;
  try {
    if (Opts.Workload == "serve")
      runServe(Opts, Out);
    else if (Opts.Workload == "hdiff")
      runHdiff(Opts, Out);
    else if (Opts.Workload == "jacobi3d_8dev")
      runJacobi8(Opts, Out);
    else
      runFuzz(Opts, Out);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }

  if (!referenceReadings().empty())
    std::fprintf(stderr,
                 "reference kernel: median %.4f ms over %zu readings "
                 "(nominal %.4f ms)\n",
                 median(referenceReadings()), referenceReadings().size(),
                 NominalReferenceMs);
  if (Opts.Trace) {
    std::string TracePath = Opts.TraceDir + "/" + Opts.Workload + ".trace.json";
    std::string TablePath = Opts.TraceDir + "/" + Opts.Workload + ".layers.tsv";
    Out.check(SpanLog::get().write(TracePath, TablePath),
              "cannot write the trace files into " + Opts.TraceDir);
    std::fprintf(stderr, "%-22s %8s %12s %14s %14s\n", "layer", "count",
                 "median_us", "total_us", "self_us");
    for (const LayerRow &Row : SpanLog::get().table())
      std::fprintf(stderr, "%-22s %8lld %12.1f %14.1f %14.1f\n",
                   Row.Name.c_str(), static_cast<long long>(Row.Count),
                   Row.MedianUs, Row.TotalUs, Row.SelfUs);
  } else {
    Out.set("setup_s", Out.SetupSeconds, "s");
    if (!Out.Metrics.count("peak_rss_mb"))
      Out.set("peak_rss_mb", peakRssMb(), "MB");
  }
  printResult(Out, Opts.Trace);
  return 0;
}
