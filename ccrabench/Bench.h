//===- ccrabench/Bench.h - Shared pieces of the ccra benchmark --*- C++ -*-===//
///
/// \file
/// What every workload of the benchmark shares: the command-line
/// arguments, the result record printed as the last line of output, the
/// correctness-check exception, order statistics, process resource usage,
/// and the corpus/input helpers.
///
/// Every end-to-end metric is reported by every workload (the result line
/// must carry the full set); see ccrabench/README.md for what each one
/// means on each workload.
///
//===----------------------------------------------------------------------===//

#ifndef CCRABENCH_BENCH_H
#define CCRABENCH_BENCH_H

#include "ir/Module.h"
#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ccrabench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

struct RunArgs {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Repository root: examples/corpus_c lives under it.
  std::string Root = ".";
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// One run's outcome: the benchmark prints it as one JSON line.
struct Result {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Every end-to-end metric, in the order they are printed.
struct EndToEnd {
  double SetupS = 0;
  double ThroughputKinstS = 0;
  double CpuMsPerOp = 0;
  double LatencyP50Ms = 0, LatencyP90Ms = 0, LatencyP99Ms = 0;
  double MaxRateRps = 0;
  double PeakRssMb = 0;
  double AllocOverheadCycles = 0;
};
void addEndToEnd(Result &R, const EndToEnd &E);

/// The timing half of EndToEnd for a closed loop with one caller: latency
/// percentiles of \p LatenciesMs, thousand input instructions per second
/// of operation time, CPU per operation, and operations completed per
/// second of the \p WindowS window (the rate one caller sustains).
void fillClosedLoop(EndToEnd &E, const std::vector<double> &LatenciesMs,
                    double KInst, double WindowS, double CpuS);

/// A correctness check failed: the run prints no result and exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void check(bool Ok, const std::string &What) {
  if (!Ok)
    throw CheckFailure(What);
}

/// Nearest-rank percentile (\p P in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> Values, double P);
double median(std::vector<double> Values);

/// Process user + system CPU seconds so far (getrusage).
double cpuSeconds();
/// Peak resident set of this process so far, in MB (ru_maxrss).
double peakRssMb();

/// Instructions in every block of every function: the size unit of
/// throughput_kinst_s.
unsigned countInstructions(const ccra::Module &M);
/// Functions with a body: the ones allocation runs on.
unsigned countBodies(const ccra::Module &M);
/// True when no function of \p R reports FunctionAllocation::VerifyErrors.
bool noVerifyErrors(const ccra::ModuleAllocationResult &R);
std::string printed(const ccra::Module &M);

/// A program of examples/corpus_c, read (not compiled) at input time.
struct CorpusProgram {
  std::string Name;
  std::string Source;
  unsigned Lines = 0;
};
/// The corpus in file-name order; throws CheckFailure when it is missing.
std::vector<CorpusProgram> loadCorpus(const std::string &Root);

/// A uniformly random permutation of 0..N-1 (Fisher-Yates).
std::vector<unsigned> permutation(unsigned N, ccra::Rng &R);

/// Hash of everything an allocation decided for \p M: per function (in
/// module order) the cost breakdown, the statistics, the verifier findings
/// and every register's location. Equal fingerprints stand for
/// bit-identical allocations.
std::uint64_t fingerprint(const ccra::Module &M,
                          const ccra::ModuleAllocationResult &R);

/// The five allocator families the paper compares (§3-10), in the order
/// bench/real_corpus_sweep.cpp reports them.
struct Family {
  const char *Name;
  ccra::AllocatorOptions Options;
};
const std::vector<Family> &allocatorFamilies();

/// Median of \p Reps timings of \p SetUp, in seconds. Every repetition
/// builds from scratch and the state of the last one is what the run goes
/// on with; \p TearDown (untimed) releases the previous repetition's state.
template <typename SetUpFn, typename TearDownFn>
double medianSetupSeconds(unsigned Reps, SetUpFn SetUp, TearDownFn TearDown) {
  std::vector<double> Samples;
  for (unsigned I = 0; I < Reps; ++I) {
    if (I > 0)
      TearDown();
    Clock::time_point T0 = Clock::now();
    SetUp();
    Samples.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }
  return median(std::move(Samples));
}

} // namespace ccrabench

#endif // CCRABENCH_BENCH_H
