//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "analysis/AnalysisCache.h"
#include "core/EngineBuilder.h"
#include "ir/Cloner.h"
#include "ir/Module.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace ccra;

ExperimentRun ccra::runExperiment(const ExperimentSpec &Spec,
                                  ModuleAnalysisCache *Cache,
                                  ThreadPool *Pool) {
  assert(Spec.Program && "experiment needs a program");
  ExperimentRun Run;

  std::unique_ptr<Module> Clone = cloneModule(*Spec.Program);

  // With a cache the analyses run (at most) once per source module across
  // the whole grid: frequencies transfer to the clone by position (same
  // doubles), baseline liveness seeds round 1 by block-id identity.
  std::uint64_t CacheHits = 0, CacheMisses = 0;
  FrequencyInfo Freq;
  if (Cache) {
    bool Hit = false;
    const FrequencyInfo &Shared =
        Cache->frequencies(*Spec.Program, Spec.Mode, &Hit);
    ++(Hit ? CacheHits : CacheMisses);
    Freq = Shared.remappedTo(*Spec.Program, *Clone);
  } else {
    Freq = FrequencyInfo::compute(*Clone, Spec.Mode);
  }

  AnalysisSeeds Seeds;
  const AnalysisSeeds *SeedsPtr = nullptr;
  if (Cache) {
    const auto &Fns = Spec.Program->functions();
    for (unsigned I = 0; I < Fns.size(); ++I) {
      if (Fns[I]->isDeclaration())
        continue;
      bool Hit = false;
      Seeds.BaselineLiveness.push_back(
          &Cache->baselineLiveness(*Spec.Program, I, &Hit));
      ++(Hit ? CacheHits : CacheMisses);
    }
    SeedsPtr = &Seeds;
  }

  Telemetry T;
  AllocationEngine Engine = EngineBuilder(Spec.Config)
                                .options(Spec.Options)
                                .jobs(Spec.Jobs)
                                .telemetry(&T)
                                .pool(Pool)
                                .build();
  ModuleAllocationResult Alloc = Engine.allocateModule(*Clone, Freq, SeedsPtr);

  Run.Result.Costs = Alloc.Totals;
  for (const auto &[F, FA] : Alloc.PerFunction) {
    (void)F;
    Run.Result.SpilledRanges += FA.SpilledRanges;
    Run.Result.VoluntarySpills += FA.VoluntarySpills;
    Run.Result.CoalescedMoves += FA.CoalescedMoves;
    Run.Result.CalleeRegsPaid += FA.CalleeRegsPaid;
    Run.Result.MaxRounds = std::max(Run.Result.MaxRounds, FA.Rounds);
  }
  Run.Result.Cycles = estimateDynamicCycles(*Clone, Freq);

  if (Cache) {
    T.addCount(telemetry::SchedAnalysisCacheHits,
               static_cast<double>(CacheHits));
    T.addCount(telemetry::SchedAnalysisCacheMisses,
               static_cast<double>(CacheMisses));
  }
  T.addCount(telemetry::Experiments);
  Run.Telemetry = T.snapshot();
  return Run;
}

std::vector<ExperimentRun>
ccra::runExperiments(const std::vector<ExperimentSpec> &Specs, unsigned Jobs,
                     TelemetrySnapshot *GridTelemetry) {
  std::vector<ExperimentRun> Runs(Specs.size());
  if (Jobs == 0)
    Jobs = ThreadPool::defaultParallelism();
  Jobs = static_cast<unsigned>(
      std::min<std::size_t>(Jobs, Specs.size() ? Specs.size() : 1));

  // One analysis cache for the whole grid (specs over the same program and
  // mode share one FrequencyInfo and one baseline liveness per function),
  // and one pool wide enough for the largest parallelism any level asks
  // for. Engines submit their function batches to this same pool — nested
  // batches, not nested pools — so grid x module parallelism can never
  // oversubscribe the machine beyond the pool's width.
  ModuleAnalysisCache Cache;
  unsigned Width = Jobs;
  for (const ExperimentSpec &S : Specs)
    Width = std::max(Width,
                     S.Jobs == 0 ? ThreadPool::defaultParallelism() : S.Jobs);

  std::optional<ThreadPool> Pool;
  if (Width > 1)
    Pool.emplace(Width);
  ThreadPool *P = Pool ? &*Pool : nullptr;

  if (Jobs <= 1) {
    for (std::size_t I = 0; I < Specs.size(); ++I)
      Runs[I] = runExperiment(Specs[I], &Cache, P);
  } else {
    // Each grid point clones its program and owns its telemetry; results
    // land at their spec's index. The cache serializes only first
    // computation of a shared analysis.
    P->parallelForEach(Specs.size(), [&](std::size_t I) {
      Runs[I] = runExperiment(Specs[I], &Cache, P);
    });
  }

  if (GridTelemetry) {
    Telemetry T;
    ModuleAnalysisCache::Stats CS = Cache.stats();
    T.addCount(telemetry::SchedAnalysisCacheHits,
               static_cast<double>(CS.hits()));
    T.addCount(telemetry::SchedAnalysisCacheMisses,
               static_cast<double>(CS.misses()));
    if (Pool) {
      ThreadPool::Stats PS = Pool->stats();
      T.addCount(telemetry::SchedPoolBatches, static_cast<double>(PS.Batches));
      T.addCount(telemetry::SchedPoolTasks, static_cast<double>(PS.Tasks));
      std::uint64_t Busiest = 0;
      for (std::uint64_t N : PS.TasksPerSlot)
        Busiest = std::max(Busiest, N);
      if (PS.Tasks > 0)
        T.addCount(telemetry::SchedPoolMaxSlotShare,
                   static_cast<double>(Busiest) /
                       static_cast<double>(PS.Tasks));
    }
    *GridTelemetry = T.snapshot();
  }
  return Runs;
}

ExperimentResult ccra::runExperiment(const Module &M,
                                     const RegisterConfig &Config,
                                     const AllocatorOptions &Opts,
                                     FrequencyMode Mode) {
  return runExperiment({&M, Config, Opts, Mode, /*Jobs=*/1}).Result;
}

/// Per-instruction cycle costs, loosely following the MIPS R3000 the paper
/// measured on (DECstation 5000): single-cycle ALU ops, two-cycle memory
/// accesses (including every overhead load/store), multi-cycle
/// multiply/divide, and a small fixed call overhead.
static double instructionCycles(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Mul:
  case Opcode::FMul:
    return 5.0;
  case Opcode::Div:
  case Opcode::FDiv:
    return 20.0;
  case Opcode::Call:
    return 2.0;
  default:
    return I.isMemory() ? 2.0 : 1.0;
  }
}

double ccra::estimateDynamicCycles(const Module &M,
                                   const FrequencyInfo &Freq) {
  double Cycles = 0.0;
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      double BlockFreq = Freq.blockFrequency(*BB);
      double PerIteration = 0.0;
      for (const Instruction &I : BB->instructions())
        PerIteration += instructionCycles(I);
      Cycles += BlockFreq * PerIteration;
    }
  }
  return Cycles;
}
