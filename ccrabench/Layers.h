//===- ccrabench/Layers.h - Per-layer metrics of the traced run -*- C++ -*-===//
///
/// \file
/// The per-layer half of the benchmark: the record every traced run fills
/// and prints (all metrics, on every workload; a layer a workload does not
/// exercise reads 0), and the probes that time single calls into the
/// allocator's inner layers on cloned functions.
///
//===----------------------------------------------------------------------===//

#ifndef CCRABENCH_LAYERS_H
#define CCRABENCH_LAYERS_H

#include "Bench.h"
#include "Trace.h"

#include "analysis/Frequency.h"
#include "support/Telemetry.h"
#include "regalloc/AllocationEngine.h"

namespace ccrabench {

struct LayerReport {
  // frontend
  double FrontendBusyMs = 0, FrontendCalls = 0, FrontendUsPerLine = 0;
  // ir
  double IrVerifyBusyMs = 0, IrPrintBusyMs = 0;
  double IrParseUsPerKb = 0, IrDecodeUsPerKb = 0, IrEncodeUsPerKb = 0;
  // analysis
  double FreqBusyMs = 0, LivenessBusyMs = 0;
  // regalloc
  double AllocBusyMs = 0, Functions = 0;
  double CoalesceBusyMs = 0, CoalescePasses = 0, GraphBuildBusyMs = 0;
  double AllocOverBuild = 0;
  double Rounds = 0, CoalescedMoves = 0, SpilledRanges = 0;
  double VoluntarySpills = 0, LivenessComputes = 0, PeakGraphBytes = 0;
  // service
  double CacheHitRate = 0, CacheInsertions = 0, CacheEvictions = 0;
  double Batches = 0, BatchSizeMean = 0, PeakQueueDepth = 0, Shed = 0;
  double CacheKeyUsPerKb = 0;
  double ServiceLatencyP50Ms = 0, ServiceLatencyP99Ms = 0;
  // bench
  double GenLagP99Ms = 0, UnattributedMs = 0, TraceOverhead = 0;
};

/// Appends every per-layer metric of \p L to \p R, in a fixed order.
void addLayerMetrics(Result &R, const LayerReport &L);

/// Fills the regalloc counters from the engine telemetry \p T recorded over
/// \p Passes passes (values are per pass).
void addEngineCounters(LayerReport &L, const ccra::TelemetrySnapshot &T,
                       double Passes);

/// Times single calls on clones of every function of \p M, one probe root
/// span each: AllocationEngine::allocateFunction ("regalloc.probe_alloc"),
/// Liveness::compute ("analysis.liveness"), Coalescer::run as the engine's
/// first round runs it ("regalloc.coalesce"), and one LiveRangeSet::build +
/// InterferenceGraph::build on the coalesced code ("regalloc.graph_build").
/// Returns the coalescer's summed CoalesceStats::Passes.
unsigned probeFunctions(const ccra::Module &M, ccra::FrequencyMode Mode,
                        const ccra::AllocationEngine &Engine, Tracer &T);

/// Fills the span-derived fields every workload shares (frontend, ir.verify,
/// ir.print, analysis, regalloc busy times and probe times, unattributed
/// time) from \p Totals, divided by \p Passes.
void addSpanTotals(LayerReport &L, const TraceTotals &Totals, double Passes);

} // namespace ccrabench

#endif // CCRABENCH_LAYERS_H
