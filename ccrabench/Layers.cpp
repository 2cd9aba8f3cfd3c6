//===- ccrabench/Layers.cpp -----------------------------------------------===//

#include "Layers.h"

#include "analysis/Liveness.h"
#include "ir/Cloner.h"
#include "regalloc/Coalescer.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"

using namespace ccra;

namespace ccrabench {

void addLayerMetrics(Result &R, const LayerReport &L) {
  R.add("frontend.busy_ms", L.FrontendBusyMs, "ms");
  R.add("frontend.calls", L.FrontendCalls, "count");
  R.add("frontend.us_per_line", L.FrontendUsPerLine, "us/line");
  R.add("ir.verify_busy_ms", L.IrVerifyBusyMs, "ms");
  R.add("ir.print_busy_ms", L.IrPrintBusyMs, "ms");
  R.add("ir.parse_us_per_kb", L.IrParseUsPerKb, "us/KB");
  R.add("ir.decode_us_per_kb", L.IrDecodeUsPerKb, "us/KB");
  R.add("ir.encode_us_per_kb", L.IrEncodeUsPerKb, "us/KB");
  R.add("analysis.freq_busy_ms", L.FreqBusyMs, "ms");
  R.add("analysis.liveness_busy_ms", L.LivenessBusyMs, "ms");
  R.add("regalloc.alloc_busy_ms", L.AllocBusyMs, "ms");
  R.add("regalloc.functions", L.Functions, "count");
  R.add("regalloc.coalesce_busy_ms", L.CoalesceBusyMs, "ms");
  R.add("regalloc.coalesce_passes", L.CoalescePasses, "count");
  R.add("regalloc.graph_build_busy_ms", L.GraphBuildBusyMs, "ms");
  R.add("regalloc.alloc_over_build", L.AllocOverBuild, "ratio");
  R.add("regalloc.rounds", L.Rounds, "count");
  R.add("regalloc.coalesced_moves", L.CoalescedMoves, "count");
  R.add("regalloc.spilled_ranges", L.SpilledRanges, "count");
  R.add("regalloc.voluntary_spills", L.VoluntarySpills, "count");
  R.add("regalloc.liveness_computes", L.LivenessComputes, "count");
  R.add("regalloc.peak_graph_bytes", L.PeakGraphBytes, "bytes");
  R.add("service.cache.hit_rate", L.CacheHitRate, "fraction");
  R.add("service.cache.insertions", L.CacheInsertions, "count");
  R.add("service.cache.evictions", L.CacheEvictions, "count");
  R.add("service.batches", L.Batches, "count");
  R.add("service.batch_size_mean", L.BatchSizeMean, "count");
  R.add("service.peak_queue_depth", L.PeakQueueDepth, "count");
  R.add("service.shed", L.Shed, "count");
  R.add("service.cache_key_us_per_kb", L.CacheKeyUsPerKb, "us/KB");
  R.add("service.latency_p50_ms", L.ServiceLatencyP50Ms, "ms");
  R.add("service.latency_p99_ms", L.ServiceLatencyP99Ms, "ms");
  R.add("bench.gen_lag_p99_ms", L.GenLagP99Ms, "ms");
  R.add("bench.unattributed_ms", L.UnattributedMs, "ms");
  R.add("bench.trace_overhead", L.TraceOverhead, "fraction");
}

void addEngineCounters(LayerReport &L, const TelemetrySnapshot &T,
                       double Passes) {
  L.Rounds = T.count(telemetry::Rounds) / Passes;
  L.CoalescedMoves = T.count(telemetry::CoalescedMoves) / Passes;
  L.SpilledRanges = T.count(telemetry::SpilledRanges) / Passes;
  L.VoluntarySpills = T.count(telemetry::VoluntarySpills) / Passes;
  L.LivenessComputes = T.count(telemetry::LivenessComputes) / Passes;
  // A high-water mark, not a sum: the same in every pass.
  L.PeakGraphBytes = T.count(telemetry::AllocPeakGraphBytes);
}

unsigned probeFunctions(const Module &M, FrequencyMode Mode,
                        const AllocationEngine &Engine, Tracer &T) {
  std::unique_ptr<Module> Clone = cloneModule(M);
  std::unique_ptr<Module> AllocClone = cloneModule(M);
  FrequencyInfo Freq = FrequencyInfo::compute(*Clone, Mode);
  FrequencyInfo AllocFreq = FrequencyInfo::compute(*AllocClone, Mode);
  const MachineDescription &MD = Engine.machine();
  unsigned Passes = 0;
  for (std::size_t I = 0; I < Clone->functions().size(); ++I) {
    Function *F = Clone->functions()[I].get();
    if (F->isDeclaration())
      continue;
    {
      SpanScope S(&T, "regalloc.probe_alloc");
      FunctionAllocation FA =
          Engine.allocateFunction(*AllocClone->functions()[I], AllocFreq);
    }
    {
      SpanScope S(&T, "analysis.liveness");
      Liveness LV = Liveness::compute(*F);
    }
    // Round one of the engine: default request (conservative test,
    // incremental liveness, no liveness seed).
    VRegClasses Classes(F->numVRegs());
    Liveness LV;
    LiveRangeSet CoalescedRanges;
    InterferenceGraph CoalescedGraph;
    CoalesceStats CS;
    {
      SpanScope S(&T, "regalloc.coalesce");
      CS = Coalescer::run(*F, Classes, MD, Freq, LV, CoalesceRequest(),
                          CoalescedRanges, CoalescedGraph);
    }
    Passes += CS.Passes;
    {
      SpanScope S(&T, "regalloc.graph_build");
      LiveRangeSet Ranges = LiveRangeSet::build(*F, LV, Freq, Classes);
      InterferenceGraph Graph = InterferenceGraph::build(*F, LV, Ranges);
    }
  }
  return Passes;
}

void addSpanTotals(LayerReport &L, const TraceTotals &Totals, double Passes) {
  L.FrontendBusyMs = Totals.selfMs("frontend.compile") / Passes;
  L.FrontendCalls =
      static_cast<double>(Totals.calls("frontend.compile")) / Passes;
  L.IrVerifyBusyMs = Totals.selfMs("ir.verify") / Passes;
  L.IrPrintBusyMs = Totals.selfMs("ir.print") / Passes;
  L.FreqBusyMs = Totals.selfMs("analysis.freq") / Passes;
  L.LivenessBusyMs = Totals.selfMs("analysis.liveness") / Passes;
  L.AllocBusyMs = Totals.selfMs("regalloc.alloc") / Passes;
  L.CoalesceBusyMs = Totals.selfMs("regalloc.coalesce") / Passes;
  L.GraphBuildBusyMs = Totals.selfMs("regalloc.graph_build") / Passes;
  if (L.GraphBuildBusyMs > 0)
    L.AllocOverBuild =
        Totals.selfMs("regalloc.probe_alloc") / Passes / L.GraphBuildBusyMs;
  L.UnattributedMs = Totals.UnattributedMs / Passes;
}

} // namespace ccrabench
