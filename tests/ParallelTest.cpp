//===- tests/ParallelTest.cpp - Thread pool and parallel determinism ------===//
//
// The contract of the parallel allocation engine: allocateModule with any
// Jobs setting produces bit-identical results to the serial path, because
// every task allocates with a private allocator instance and the engine
// reduces per-function results in function order. Plus unit tests of the
// ThreadPool primitive itself.
//
//===----------------------------------------------------------------------===//

#include "ccra.h"
#include "workloads/RandomProgram.h"
#include "workloads/SpecProxies.h"

#include <atomic>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <vector>

using namespace ccra;

namespace {

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, SizeIsRequestedThreadCount) {
  ThreadPool Pool(3);
  EXPECT_EQ(Pool.size(), 3u);
  ThreadPool Auto(0);
  EXPECT_EQ(Auto.size(), ThreadPool::defaultParallelism());
  EXPECT_GE(ThreadPool::defaultParallelism(), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  constexpr std::size_t Count = 1000;
  std::vector<std::atomic<unsigned>> Hits(Count);
  Pool.parallelForEach(Count, [&](std::size_t I) { Hits[I]++; });
  for (std::size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool Pool(2);
  Pool.parallelForEach(0, [&](std::size_t) { FAIL() << "body ran"; });
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<std::size_t> Total{0};
  for (int Batch = 0; Batch < 10; ++Batch)
    Pool.parallelForEach(100, [&](std::size_t) { Total++; });
  EXPECT_EQ(Total.load(), 1000u);
}

TEST(ThreadPool, PropagatesBodyException) {
  ThreadPool Pool(3);
  std::atomic<unsigned> Ran{0};
  EXPECT_THROW(Pool.parallelForEach(64,
                                    [&](std::size_t I) {
                                      Ran++;
                                      if (I == 7)
                                        throw std::runtime_error("boom");
                                    }),
               std::runtime_error);
  EXPECT_GE(Ran.load(), 1u);
  // The pool must still be usable after a failed batch.
  std::atomic<unsigned> After{0};
  Pool.parallelForEach(16, [&](std::size_t) { After++; });
  EXPECT_EQ(After.load(), 16u);
}

TEST(ThreadPool, SingleThreadPoolStillRunsAllTasks) {
  ThreadPool Pool(1);
  std::set<std::size_t> Seen;
  Pool.parallelForEach(20, [&](std::size_t I) { Seen.insert(I); });
  EXPECT_EQ(Seen.size(), 20u);
}

TEST(ThreadPool, NestedSubmissionCompletesOnSharedWorkers) {
  // A task may submit its own batch to the pool it runs on (the engine
  // does exactly this when a shared grid pool carries its function
  // fan-out). The submitter drains its own batch, so this cannot deadlock
  // even when every worker is busy.
  ThreadPool Pool(3);
  std::atomic<unsigned> Inner{0};
  Pool.parallelForEach(8, [&](std::size_t) {
    Pool.parallelForEach(8, [&](std::size_t) { Inner++; });
  });
  EXPECT_EQ(Inner.load(), 64u);
  ThreadPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Batches, 9u);
  EXPECT_EQ(S.Tasks, 8u + 64u);
}

TEST(ThreadPool, SlotsStayWithinPoolSize) {
  ThreadPool Pool(4);
  std::vector<unsigned> SlotOfTask(200, ~0u);
  Pool.parallelForEachSlot(SlotOfTask.size(),
                           [&](std::size_t I, unsigned Slot) {
                             SlotOfTask[I] = Slot;
                           });
  for (unsigned Slot : SlotOfTask)
    EXPECT_LT(Slot, Pool.size());
  ThreadPool::Stats S = Pool.stats();
  std::uint64_t Sum = 0;
  for (std::uint64_t N : S.TasksPerSlot)
    Sum += N;
  EXPECT_EQ(Sum, S.Tasks);
}

// --- Parallel allocation determinism ------------------------------------

RandomProgramParams manyFunctionParams(uint64_t Seed) {
  RandomProgramParams Params;
  Params.Seed = Seed;
  Params.NumFunctions = 7;
  Params.RegionsPerFunction = 5;
  Params.IntValues = 10;
  Params.FloatValues = 5;
  return Params;
}

ModuleAllocationResult allocateClone(const Module &M, unsigned Jobs,
                                     const AllocatorOptions &Opts,
                                     std::unique_ptr<Module> &CloneOut,
                                     Telemetry *T = nullptr) {
  CloneOut = cloneModule(M);
  FrequencyInfo Freq = FrequencyInfo::compute(*CloneOut, FrequencyMode::Profile);
  AllocationEngine Engine = EngineBuilder(RegisterConfig(6, 4, 2, 2))
                                .options(Opts)
                                .jobs(Jobs)
                                .telemetry(T)
                                .build();
  return Engine.allocateModule(*CloneOut, Freq);
}

void expectIdenticalAllocations(const Module &Serial,
                                const ModuleAllocationResult &A,
                                const Module &Parallel,
                                const ModuleAllocationResult &B) {
  // Costs must match bit for bit, not just approximately: the parallel
  // reduction runs in function order exactly like the serial loop.
  EXPECT_EQ(A.Totals.Spill, B.Totals.Spill);
  EXPECT_EQ(A.Totals.CallerSave, B.Totals.CallerSave);
  EXPECT_EQ(A.Totals.CalleeSave, B.Totals.CalleeSave);
  EXPECT_EQ(A.Totals.Shuffle, B.Totals.Shuffle);

  ASSERT_EQ(A.PerFunction.size(), B.PerFunction.size());
  auto SerialIt = Serial.functions().begin();
  auto ParallelIt = Parallel.functions().begin();
  for (; SerialIt != Serial.functions().end(); ++SerialIt, ++ParallelIt) {
    const Function *FA = SerialIt->get();
    const Function *FB = ParallelIt->get();
    ASSERT_EQ(FA->getName(), FB->getName());
    if (FA->isDeclaration())
      continue;
    const FunctionAllocation &RA = A.PerFunction.at(FA);
    const FunctionAllocation &RB = B.PerFunction.at(FB);
    EXPECT_EQ(RA.Rounds, RB.Rounds);
    EXPECT_EQ(RA.SpilledRanges, RB.SpilledRanges);
    EXPECT_EQ(RA.VoluntarySpills, RB.VoluntarySpills);
    EXPECT_EQ(RA.CoalescedMoves, RB.CoalescedMoves);
    EXPECT_EQ(RA.CalleeRegsPaid, RB.CalleeRegsPaid);
    EXPECT_EQ(RA.Costs.total(), RB.Costs.total());
    ASSERT_EQ(RA.VRegLocations.size(), RB.VRegLocations.size())
        << "@" << FA->getName();
    for (const auto &[VReg, LocA] : RA.VRegLocations) {
      auto It = RB.VRegLocations.find(VReg);
      ASSERT_NE(It, RB.VRegLocations.end());
      const Location &LocB = It->second;
      EXPECT_EQ(LocA.isRegister(), LocB.isRegister());
      if (LocA.isRegister() && LocB.isRegister()) {
        EXPECT_EQ(LocA.Reg, LocB.Reg);
      }
    }
  }
}

TEST(ParallelAllocation, JobsSettingDoesNotChangeResults) {
  for (uint64_t Seed : {11u, 22u, 33u}) {
    std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(Seed));
    for (const AllocatorOptions &Opts :
         {improvedOptions(), baseChaitinOptions(), cbhOptions()}) {
      std::unique_ptr<Module> SerialClone, ParallelClone;
      ModuleAllocationResult Serial =
          allocateClone(*M, 1, Opts, SerialClone);
      ModuleAllocationResult Parallel =
          allocateClone(*M, 4, Opts, ParallelClone);
      expectIdenticalAllocations(*SerialClone, Serial, *ParallelClone,
                                 Parallel);
    }
  }
}

TEST(ParallelAllocation, HardwareJobsMatchesSerial) {
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(77));
  std::unique_ptr<Module> SerialClone, ParallelClone;
  ModuleAllocationResult Serial =
      allocateClone(*M, 1, improvedOptions(), SerialClone);
  ModuleAllocationResult Parallel =
      allocateClone(*M, 0, improvedOptions(), ParallelClone); // 0 = hardware
  expectIdenticalAllocations(*SerialClone, Serial, *ParallelClone, Parallel);
}

TEST(ParallelAllocation, TelemetryCountersMatchSerial) {
  // Timers are wall-clock and may differ; every counter outside the
  // "sched." namespace is a deterministic function of the allocation and
  // must not. "sched." counters (scratch reuses, pool stats) describe the
  // execution schedule and legitimately vary with Jobs.
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(5));
  Telemetry SerialT, ParallelT;
  std::unique_ptr<Module> C1, C2;
  allocateClone(*M, 1, improvedOptions(), C1, &SerialT);
  allocateClone(*M, 3, improvedOptions(), C2, &ParallelT);
  EXPECT_EQ(SerialT.snapshot().withoutSchedulingCounters().Counters,
            ParallelT.snapshot().withoutSchedulingCounters().Counters);
  EXPECT_GT(SerialT.count(telemetry::Functions), 0.0);
  // Both paths exercised their scratch arenas.
  EXPECT_GT(SerialT.count(telemetry::SchedScratchReuses), 0.0);
  EXPECT_GT(ParallelT.count(telemetry::SchedScratchReuses), 0.0);
}

TEST(ParallelAllocation, OptimizationsOnOffBitIdenticalAtAnyJobs) {
  // The throughput features — one scratch arena shared across a module's
  // functions, the cached baseline-liveness seed, and the shared pool —
  // are pure compute-sharing: allocations and costs must be bit-identical
  // with all of them on or off, serial or parallel.
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(91));
  AllocatorOptions Opts = improvedOptions();

  // Off: one allocateFunction call per body, each with a private arena.
  std::unique_ptr<Module> RefClone = cloneModule(*M);
  FrequencyInfo Freq =
      FrequencyInfo::compute(*RefClone, FrequencyMode::Profile);
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(6, 4, 2, 2)).options(Opts).build();
  ModuleAllocationResult Ref;
  for (const auto &F : RefClone->functions()) {
    if (F->isDeclaration())
      continue;
    FunctionAllocation FA = Engine.allocateFunction(*F, Freq);
    Ref.Totals += FA.Costs;
    Ref.PerFunction[F.get()] = std::move(FA);
  }

  for (unsigned Jobs : {1u, 8u}) {
    std::unique_ptr<Module> OnClone;
    ModuleAllocationResult WithOn = allocateClone(*M, Jobs, Opts, OnClone);
    expectIdenticalAllocations(*RefClone, Ref, *OnClone, WithOn);

    // Through the harness, with the shared analysis cache and pool.
    ModuleAnalysisCache Cache;
    ThreadPool Pool(Jobs);
    ExperimentRun Cached = runExperiment(
        {M.get(), RegisterConfig(6, 4, 2, 2), Opts, FrequencyMode::Profile,
         Jobs},
        &Cache, &Pool);
    ExperimentRun Plain = runExperiment({M.get(), RegisterConfig(6, 4, 2, 2),
                                         Opts, FrequencyMode::Profile, 1});
    EXPECT_EQ(Cached.Result.Costs.total(), Plain.Result.Costs.total());
    EXPECT_EQ(Cached.Result.Costs.total(), Ref.Totals.total());
    EXPECT_EQ(Cached.Result.SpilledRanges, Plain.Result.SpilledRanges);
    EXPECT_EQ(Cached.Result.CoalescedMoves, Plain.Result.CoalescedMoves);
    EXPECT_EQ(Cached.Result.Cycles, Plain.Result.Cycles);
    EXPECT_GT(Cache.stats().misses(), 0u);
  }
}

TEST(ParallelAllocation, ExperimentGridIsDeterministic) {
  std::unique_ptr<Module> M = generateRandomProgram(manyFunctionParams(42));
  std::vector<ExperimentSpec> Specs;
  for (const RegisterConfig &Config :
       {RegisterConfig(6, 4, 0, 0), RegisterConfig(8, 6, 2, 2)})
    for (unsigned Jobs : {1u, 2u})
      Specs.push_back({M.get(), Config, improvedOptions(),
                       FrequencyMode::Profile, Jobs});

  std::vector<ExperimentRun> Serial = runExperiments(Specs, 1);
  std::vector<ExperimentRun> Parallel = runExperiments(Specs, 4);
  ASSERT_EQ(Serial.size(), Specs.size());
  ASSERT_EQ(Parallel.size(), Specs.size());
  for (std::size_t I = 0; I < Specs.size(); ++I) {
    EXPECT_EQ(Serial[I].Result.Costs.total(), Parallel[I].Result.Costs.total());
    EXPECT_EQ(Serial[I].Result.Cycles, Parallel[I].Result.Cycles);
    EXPECT_EQ(Serial[I].Result.SpilledRanges, Parallel[I].Result.SpilledRanges);
    EXPECT_EQ(Serial[I].Telemetry.withoutSchedulingCounters().Counters,
              Parallel[I].Telemetry.withoutSchedulingCounters().Counters);
  }
  // The two specs that differ only in per-experiment Jobs agree too.
  EXPECT_EQ(Serial[0].Result.Costs.total(), Serial[1].Result.Costs.total());
  EXPECT_EQ(Serial[2].Result.Costs.total(), Serial[3].Result.Costs.total());

  // The reproduction-figure shape: SPEC proxies x every standard register
  // configuration. The shared analysis cache and pool of runExperiments
  // must reproduce plain per-spec runExperiment calls bit for bit, and
  // every allocation runs the liveness dataflow at most once per round
  // (zero times when the cached baseline seeds round 1).
  std::vector<std::unique_ptr<Module>> Programs;
  for (const char *Name : {"gcc", "espresso", "fpppp"})
    Programs.push_back(buildSpecProxy(Name));
  std::vector<ExperimentSpec> Grid;
  for (const auto &P : Programs)
    for (const RegisterConfig &Config : standardConfigSweep())
      Grid.push_back({P.get(), Config, improvedOptions(),
                      FrequencyMode::Profile, /*Jobs=*/2});
  std::vector<ExperimentResult> Plain;
  for (const ExperimentSpec &Spec : Grid)
    Plain.push_back(runExperiment(Spec).Result);

  for (unsigned Jobs : {1u, 4u}) {
    std::vector<ExperimentRun> Shared = runExperiments(Grid, Jobs);
    ASSERT_EQ(Shared.size(), Grid.size());
    for (std::size_t I = 0; I < Grid.size(); ++I) {
      SCOPED_TRACE("jobs " + std::to_string(Jobs) + ", grid point " +
                   std::to_string(I));
      const ExperimentResult &A = Plain[I], &B = Shared[I].Result;
      EXPECT_EQ(A.Costs.Spill, B.Costs.Spill);
      EXPECT_EQ(A.Costs.CallerSave, B.Costs.CallerSave);
      EXPECT_EQ(A.Costs.CalleeSave, B.Costs.CalleeSave);
      EXPECT_EQ(A.Costs.Shuffle, B.Costs.Shuffle);
      EXPECT_EQ(A.Cycles, B.Cycles);
      EXPECT_EQ(A.SpilledRanges, B.SpilledRanges);
      EXPECT_EQ(A.VoluntarySpills, B.VoluntarySpills);
      EXPECT_EQ(A.CoalescedMoves, B.CoalescedMoves);
      EXPECT_EQ(A.CalleeRegsPaid, B.CalleeRegsPaid);
      EXPECT_EQ(A.MaxRounds, B.MaxRounds);
      EXPECT_LE(Shared[I].Telemetry.count(telemetry::LivenessComputes),
                Shared[I].Telemetry.count(telemetry::Rounds));
    }
  }
}

} // namespace
