//===- ccrabench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
///
/// \file
/// Each workload generates its inputs from the seed, sets up (timed, the
/// median of several repetitions), measures for the requested seconds,
/// then checks every output outside the timed window. A failed check
/// throws CheckFailure. With RunArgs::Trace the workload instead runs its
/// traced pass and reports the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef CCRABENCH_WORKLOADS_H
#define CCRABENCH_WORKLOADS_H

#include "Bench.h"

namespace ccrabench {

struct LayerReport;

/// Closed loop, one caller: compile + verify + frequency + allocate + print
/// of the examples/corpus_c programs under seeded (config, allocator,
/// frequency mode) draws.
Result runCcCompile(const RunArgs &Args);

/// Closed loop, one caller, Jobs=1: allocation of large FuzzGen modules.
Result runLargeFn(const RunArgs &Args);

/// Open loop: seeded Poisson arrivals against an in-process
/// AllocationServer over loopback, Zipf-distributed over a hot population
/// with a cold FuzzGen tail.
Result runServeZipf(const RunArgs &Args);

/// The serving path's per-layer measurement (serve-zipf's traced run,
/// within \p Seconds): fills the service fields, the codec fields
/// (ir.parse/decode/encode) and the generator lag of \p L.
void addServingLayers(const RunArgs &Args, double Seconds, LayerReport &L);

} // namespace ccrabench

#endif // CCRABENCH_WORKLOADS_H
