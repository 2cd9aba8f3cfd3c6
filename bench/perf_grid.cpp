//===- bench/perf_grid.cpp - Grid-throughput benchmark --------------------===//
//
// Measures the wall-clock throughput of a register-configuration sweep —
// the shape of every reproduction figure — with and without the shared
// infrastructure this library's grid path uses. Both arms run the same
// allocator options; only the harness differs:
//
//   legacy:    plain per-spec runExperiment calls: per-point frequency and
//              baseline-liveness computation, no shared analysis cache,
//              and a private (nested) pool per engine.
//   optimized: one ModuleAnalysisCache and one shared ThreadPool for the
//              whole grid (runExperiments), so every point's round 1 is
//              seeded from the cached baseline liveness.
//
// The two paths must produce bit-identical ExperimentResults; any
// divergence is a correctness bug and exits non-zero (tools/check.sh runs
// this as a Release-mode smoke). The speedup, telemetry, and the
// at-most-one-liveness-compute-per-round invariant are reported on stdout
// and written to BENCH_grid.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>
#include <cmath>
#include <fstream>

using namespace ccra;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The legacy execution model: no shared cache, no shared pool (each
/// parallel engine spawns its own), grid-level fan-out via a private pool.
std::vector<ExperimentRun>
runLegacyGrid(const std::vector<ExperimentSpec> &Specs, unsigned Jobs) {
  std::vector<ExperimentRun> Runs(Specs.size());
  if (Jobs <= 1) {
    for (std::size_t I = 0; I < Specs.size(); ++I)
      Runs[I] = runExperiment(Specs[I]);
    return Runs;
  }
  ThreadPool Pool(Jobs);
  Pool.parallelForEach(Specs.size(), [&](std::size_t I) {
    Runs[I] = runExperiment(Specs[I]);
  });
  return Runs;
}

bool sameResult(const ExperimentResult &A, const ExperimentResult &B) {
  return A.Costs.Spill == B.Costs.Spill &&
         A.Costs.CallerSave == B.Costs.CallerSave &&
         A.Costs.CalleeSave == B.Costs.CalleeSave &&
         A.Costs.Shuffle == B.Costs.Shuffle &&
         A.SpilledRanges == B.SpilledRanges &&
         A.VoluntarySpills == B.VoluntarySpills &&
         A.CoalescedMoves == B.CoalescedMoves &&
         A.CalleeRegsPaid == B.CalleeRegsPaid &&
         A.MaxRounds == B.MaxRounds && A.Cycles == B.Cycles;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);
  unsigned Jobs =
      Args.Jobs == 1 ? ThreadPool::defaultParallelism() : Args.Jobs;

  // The sweep: every standard register configuration (17) for three of the
  // larger proxies — at least a 24-point grid. Spec.Jobs = 2 gives each
  // point internal function parallelism, which on the legacy path means a
  // nested pool per engine (oversubscribing the machine) and on the
  // optimized path means nested batches on the one shared pool.
  std::vector<std::unique_ptr<Module>> Programs;
  for (const char *Name : {"gcc", "espresso", "fpppp"})
    Programs.push_back(buildSpecProxy(Name));

  AllocatorOptions Opts = improvedOptions();
  Opts.Verify = false; // measured elsewhere; keep the loop hot

  std::vector<ExperimentSpec> Specs;
  for (const auto &M : Programs)
    for (const RegisterConfig &Config : standardConfigSweep())
      Specs.push_back(
          {M.get(), Config, Opts, FrequencyMode::Profile, /*Jobs=*/2});

  // Warm-up pass (untimed) so both timed runs see hot caches and a
  // faulted-in heap, then best-of-5 wall clock per path (the grids are
  // millisecond-scale, so the minimum is the noise-robust statistic).
  runLegacyGrid(Specs, Jobs);
  double LegacySeconds = 1e9, OptimizedSeconds = 1e9;
  std::vector<ExperimentRun> LegacyRuns, OptimizedRuns;
  TelemetrySnapshot GridTelemetry;
  for (int Rep = 0; Rep < 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    LegacyRuns = runLegacyGrid(Specs, Jobs);
    LegacySeconds = std::min(LegacySeconds, secondsSince(T0));

    auto T1 = std::chrono::steady_clock::now();
    OptimizedRuns = runExperiments(Specs, Jobs, &GridTelemetry);
    OptimizedSeconds = std::min(OptimizedSeconds, secondsSince(T1));
  }

  // Correctness gate: the optimized grid must reproduce the legacy grid
  // bit for bit (same costs, same statistics, same cycle estimates).
  unsigned Divergences = 0;
  for (std::size_t I = 0; I < LegacyRuns.size(); ++I)
    if (!sameResult(LegacyRuns[I].Result, OptimizedRuns[I].Result)) {
      std::cerr << "DIVERGENCE at grid point " << I << "\n";
      ++Divergences;
    }

  // Invariant gate: each allocation runs the full liveness dataflow at
  // most once per round (exactly zero times when the baseline seed covers
  // round 1).
  double Computes = 0, Rounds = 0, CacheHits = 0, ScratchReuses = 0;
  for (const ExperimentRun &Run : OptimizedRuns) {
    auto Count = [&](const char *Key) {
      auto It = Run.Telemetry.Counters.find(Key);
      return It == Run.Telemetry.Counters.end() ? 0.0 : It->second;
    };
    Computes += Count(telemetry::LivenessComputes);
    Rounds += Count(telemetry::Rounds);
    CacheHits += Count(telemetry::SchedAnalysisCacheHits);
    ScratchReuses += Count(telemetry::SchedScratchReuses);
  }
  bool ComputesBounded = Computes <= Rounds;

  double Speedup = OptimizedSeconds > 0 ? LegacySeconds / OptimizedSeconds
                                        : 0.0;
  std::cout << "== perf_grid: " << Specs.size()
            << "-point sweep, jobs=" << Jobs << " ==\n"
            << "legacy:     " << TextTable::formatDouble(LegacySeconds, 3)
            << " s\n"
            << "optimized:  " << TextTable::formatDouble(OptimizedSeconds, 3)
            << " s\n"
            << "speedup:    " << TextTable::formatDouble(Speedup, 2) << "x\n"
            << "bit-identical results: "
            << (Divergences == 0 ? "yes" : "NO") << "\n"
            << "liveness computes <= rounds: " << Computes << " <= " << Rounds
            << (ComputesBounded ? "" : "  VIOLATED") << "\n"
            << "analysis cache hits: " << CacheHits
            << ", scratch reuses: " << ScratchReuses << "\n";

  std::ofstream Json("BENCH_grid.json");
  Json << "{\n"
       << "  \"points\": " << Specs.size() << ",\n"
       << "  \"jobs\": " << Jobs << ",\n"
       << "  \"legacy_seconds\": " << LegacySeconds << ",\n"
       << "  \"optimized_seconds\": " << OptimizedSeconds << ",\n"
       << "  \"speedup\": " << Speedup << ",\n"
       << "  \"bit_identical\": " << (Divergences == 0 ? "true" : "false")
       << ",\n"
       << "  \"liveness_computes\": " << Computes << ",\n"
       << "  \"rounds\": " << Rounds << ",\n"
       << "  \"analysis_cache_hits\": " << CacheHits << ",\n"
       << "  \"scratch_reuses\": " << ScratchReuses << ",\n"
       << "  \"grid\": ";
  GridTelemetry.writeJson(Json);
  Json << "\n}\n";

  if (Args.Telemetry)
    GridTelemetry.writeJson(std::cerr);
  return (Divergences == 0 && ComputesBounded) ? 0 : 1;
}
