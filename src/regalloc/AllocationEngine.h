//===- regalloc/AllocationEngine.h - Allocation driver ----------*- C++ -*-===//
///
/// \file
/// The framework driver (paper Figure 1): per function it loops
///
///   liveness -> coalescing -> live ranges -> interference graph ->
///   allocator round -> (spill-code insertion, repeat) -> save/restore
///   materialization -> cost accounting -> verification.
///
/// The engine is allocator-agnostic: it is built around an *allocator
/// factory* so that every concurrent allocation task gets a private
/// allocator instance. allocateModule fans the functions of a module
/// across a thread pool when AllocatorOptions::Jobs allows it; results are
/// reduced in function order, so parallel allocation is bit-identical to
/// the serial path (equivalence-tested in tests/ParallelTest.cpp).
///
/// Attach a Telemetry recorder (EngineBuilder::telemetry or setTelemetry)
/// to collect per-phase wall-clock timers and allocation counters.
///
/// NOTE: allocation mutates the function (spill and save/restore code).
/// Benchmarks clone the module per run (see ir/Cloner.h).
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATIONENGINE_H
#define CCRA_REGALLOC_ALLOCATIONENGINE_H

#include "regalloc/AllocationResult.h"
#include "regalloc/AllocatorOptions.h"
#include "regalloc/RegAllocBase.h"
#include "support/Telemetry.h"
#include "target/MachineDescription.h"

#include <functional>
#include <memory>
#include <vector>

namespace ccra {

class AllocationScratch;
class FrequencyInfo;
class Liveness;
class Module;
class ThreadPool;

/// Optional shared-analysis seeds for allocateModule. BaselineLiveness[I]
/// is the exact pre-allocation liveness of the I-th function *body*
/// (functions with a definition, in module order); entries may be null.
/// The harness fills this from a ModuleAnalysisCache computed on the
/// pristine source module — valid for its clones too, since cloning
/// preserves block ids and vreg numbering. Each allocation copies its
/// seed, never mutates it.
struct AnalysisSeeds {
  std::vector<const Liveness *> BaselineLiveness;
};

/// Creates a fresh allocator implementing \p Opts. Must be safe to call
/// concurrently (core/AllocatorFactory.h's createAllocator is).
using AllocatorFactory =
    std::function<std::unique_ptr<RegAllocBase>(const AllocatorOptions &)>;

class AllocationEngine {
public:
  /// \p Factory mints one allocator per concurrent allocation task,
  /// enabling Jobs > 1.
  AllocationEngine(MachineDescription MD, AllocatorOptions Opts,
                   AllocatorFactory Factory);

  /// Attaches (or detaches, with null) a telemetry recorder. Not owned;
  /// must outlive every allocate call.
  void setTelemetry(Telemetry *T) { Telem = T; }
  Telemetry *telemetry() const { return Telem; }

  /// Attaches (or detaches, with null) an external thread pool for
  /// allocateModule's parallel path. Not owned; must outlive every
  /// allocate call. With a shared pool the engine submits its functions as
  /// one batch instead of spawning a private pool — the fix for
  /// grid-level x module-level parallelism oversubscribing the machine
  /// with nested pools. The pool's size then governs parallelism (Jobs
  /// only selects serial vs parallel).
  void setPool(ThreadPool *P) { Pool = P; }
  ThreadPool *pool() const { return Pool; }

  /// Allocates registers for \p F (mutating it) and returns locations,
  /// statistics, and the §3 cost breakdown. Uses a scratch arena private
  /// to this call.
  FunctionAllocation allocateFunction(Function &F,
                                      const FrequencyInfo &Freq) const;

  /// Allocates every function with a body. Runs Opts.Jobs function
  /// allocations concurrently (0 = one per hardware thread); results are
  /// identical to Jobs == 1 bit for bit. The parallel path hands tasks out
  /// biggest-function-first (long-tail load balancing) and keeps one
  /// scratch arena per worker slot; \p Seeds optionally provides shared
  /// baseline liveness per body. None of this changes any result.
  ModuleAllocationResult allocateModule(Module &M, const FrequencyInfo &Freq,
                                        const AnalysisSeeds *Seeds) const;
  ModuleAllocationResult allocateModule(Module &M,
                                        const FrequencyInfo &Freq) const {
    return allocateModule(M, Freq, nullptr);
  }

  const MachineDescription &machine() const { return MD; }
  const AllocatorOptions &options() const { return Opts; }

private:
  /// One whole-function allocation with an explicit allocator instance,
  /// telemetry sink, optional baseline-liveness seed, and scratch arena
  /// (all per-task in the parallel path).
  FunctionAllocation allocateWith(RegAllocBase &Alloc, Function &F,
                                  const FrequencyInfo &Freq, Telemetry *T,
                                  const Liveness *SeedLV,
                                  AllocationScratch &Scratch) const;

  MachineDescription MD;
  AllocatorOptions Opts;
  AllocatorFactory Factory;
  std::unique_ptr<RegAllocBase> Allocator; ///< serial-path instance
  Telemetry *Telem = nullptr;
  ThreadPool *Pool = nullptr; ///< external shared pool (not owned)
};

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATIONENGINE_H
