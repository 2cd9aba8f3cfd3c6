//===- bench/perf_scaling.cpp - Per-function scaling benchmark ------------===//
//
// Measures how one allocation scales with live-range count V on a single
// synthetic function per size (staggered overlapping chains — linear-size
// interval graphs with bounded degree, the shape where sparse adjacency
// and worklist simplification pay off). Per size it times:
//
//   hybrid:    one whole allocation (runExperiment) under the shipped
//              options — Auto graph (dense matrix up to DenseNodeThreshold
//              nodes, sorted sparse adjacency above it) and the worklist
//              simplifier.
//   simplify:  on one built context, Simplifier::run over the Auto graph
//              against fuzz/Reference.h's O(V^2) referenceSimplify over
//              the dense triangular bit matrix — quadratic time and
//              memory, capped at the size where it stops being worth the
//              wait.
//
// The two simplifiers must return the same stack, spill set and
// optimistic flags at every size where both run; any divergence exits
// non-zero. Per-size wall clock, the simplify times and both graphs'
// memory are printed as a table and written to BENCH_scaling.json, where
// near-linear growth of the hybrid arm (and the reference's quadratic
// departure) is the acceptance signal.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/BenefitKeys.h"
#include "fuzz/Reference.h"
#include "regalloc/VRegClasses.h"
#include "workloads/SyntheticBuilder.h"

#include <chrono>
#include <fstream>
#include <vector>

using namespace ccra;

namespace {

/// Largest size the quadratic reference simplifier runs at; beyond this
/// only the hybrid arm is timed (the gate has already covered both
/// simplifiers below).
constexpr unsigned ReferenceCap = 20000;

/// Every value is live across the next OverlapDepth definitions, so node
/// degree is ~2 * OverlapDepth independent of V and the clique number is
/// OverlapDepth + 1 — comfortably colorable with the config below, which
/// keeps every size on the one-round no-spill path and makes the timing a
/// clean read of build + simplify + select.
constexpr unsigned OverlapDepth = 6;

std::unique_ptr<Module> buildChainProgram(unsigned NumValues) {
  auto M = std::make_unique<Module>("scaling-" + std::to_string(NumValues));
  Function *F = M->createFunction("chain");
  SyntheticFunctionBuilder B(*F, /*Seed=*/0x5ca11e + NumValues);
  B.staggeredChain(RegBank::Int, NumValues, OverlapDepth);
  B.finish();
  M->setEntryFunction(F);
  return M;
}

/// Best-of-\p Reps wall clock of \p Run, in seconds.
template <typename Fn> double bestOf(int Reps, Fn Run) {
  double Best = 1e9;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    Run();
    Best = std::min(Best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - T0)
                              .count());
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = parseBenchArgs(Argc, Argv);

  const std::vector<unsigned> Sizes = {1000, 2000, 5000, 10000, 20000, 50000};
  // 8 + 8 int registers: clique number 7 fits, so no size ever spills and
  // every allocation stays on the single-round path.
  RegisterConfig Config(/*Ri=*/8, /*Rf=*/4, /*Ei=*/8, /*Ef=*/4);

  AllocatorOptions Hybrid = improvedOptions();
  Hybrid.Verify = false; // verified by ctest; keep the timing loop hot
  MachineDescription MD(Config);
  Simplifier::KeyFn Key = [](const LiveRange &LR) {
    return benefitSimplificationKey(LR, BenefitKeyStrategy::Delta);
  };

  TextTable Table;
  Table.setHeader({"V", "hybrid s", "ref simplify ms", "simplify ms",
                   "speedup", "graph MiB", "dense MiB"});
  unsigned Divergences = 0;
  std::ofstream Json("BENCH_scaling.json");
  Json << "{\n  \"sizes\": [";

  for (std::size_t I = 0; I < Sizes.size(); ++I) {
    unsigned V = Sizes[I];
    std::unique_ptr<Module> M = buildChainProgram(V);
    int Reps = V <= 10000 ? 3 : 1;
    ExperimentRun Run;
    double HybridSeconds = bestOf(Reps, [&] {
      Run = runExperiment(
          {M.get(), Config, Hybrid, FrequencyMode::Profile, /*Jobs=*/1});
    });
    double GraphBytes = Run.Telemetry.count(telemetry::AllocPeakGraphBytes);

    // Both simplifiers on one context: the improved allocator's first
    // round (delta key, pessimistic), over the Auto and the dense graph.
    double RefMs = -1, WorklistMs = -1, DenseBytes = -1;
    if (V <= ReferenceCap) {
      Function &F = *M->functions().front();
      FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
      Liveness LV = Liveness::compute(F);
      LiveRangeSet LRS =
          LiveRangeSet::build(F, LV, Freq, VRegClasses(F.numVRegs()));
      auto Context = [&](GraphRep Rep) {
        return AllocationContext{F,   MD,  Freq,
                                 LV,  LRS, InterferenceGraph::build(
                                               F, LV, LRS, nullptr, Rep),
                                 Freq.entryFrequency(F), {}};
      };
      AllocationContext Auto = Context(GraphRep::Auto);
      AllocationContext Dense = Context(GraphRep::Dense);
      DenseBytes = static_cast<double>(Dense.IG.memoryBytes());
      SimplifyResult Got, Want;
      auto Worklist = [&] { Got = Simplifier::run(Auto, false, Key); };
      auto Reference = [&] { Want = referenceSimplify(Dense, false, Key); };
      WorklistMs = 1e3 * bestOf(Reps, Worklist);
      RefMs = 1e3 * bestOf(Reps, Reference);
      if (Got != Want) {
        std::cerr << "DIVERGENCE at V=" << V
                  << " (reference vs worklist simplifier)\n";
        ++Divergences;
      }
    }
    bool Ran = RefMs >= 0;
    double Speedup = Ran && WorklistMs > 0 ? RefMs / WorklistMs : 0.0;
    auto MiB = [](double Bytes) {
      return TextTable::formatDouble(Bytes / (1024.0 * 1024.0), 2);
    };
    Table.addRow({std::to_string(V), TextTable::formatDouble(HybridSeconds, 3),
                  Ran ? TextTable::formatDouble(RefMs, 2) : "-",
                  Ran ? TextTable::formatDouble(WorklistMs, 2) : "-",
                  Ran ? TextTable::formatDouble(Speedup, 1) + "x" : "-",
                  MiB(GraphBytes), Ran ? MiB(DenseBytes) : "-"});

    Json << (I ? ",\n            " : "") << "{\"v\": " << V
         << ", \"hybrid_seconds\": " << HybridSeconds
         << ", \"hybrid_peak_graph_bytes\": " << GraphBytes
         << ", \"reference_simplify_ms\": " << RefMs
         << ", \"worklist_simplify_ms\": " << WorklistMs
         << ", \"simplify_speedup\": " << Speedup
         << ", \"dense_graph_bytes\": " << DenseBytes << "}";
  }

  Json << "],\n  \"reference_cap\": " << ReferenceCap
       << ",\n  \"bit_identical\": " << (Divergences == 0 ? "true" : "false")
       << "\n}\n";

  std::cout << "== perf_scaling: staggered chains, overlap depth "
            << OverlapDepth << " ==\n";
  if (Args.Csv)
    Table.printCsv(std::cout);
  else
    Table.print(std::cout);
  std::cout << "bit-identical results: " << (Divergences == 0 ? "yes" : "NO")
            << " (reference simplifier capped at V=" << ReferenceCap
            << ")\n";
  return Divergences == 0 ? 0 : 1;
}
