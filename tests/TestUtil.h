//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
///
/// \file
/// ScenarioBuilder constructs hand-crafted allocation contexts — live
/// ranges with exact benefit values and an explicit interference graph —
/// so the paper's illustrating examples (Figures 3, 4, 5, 8, and the §4
/// shared-cost example) run as direct unit tests against the real
/// allocators.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_TESTS_TESTUTIL_H
#define CCRA_TESTS_TESTUTIL_H

#include "analysis/Frequency.h"
#include "regalloc/AllocationContext.h"
#include "target/MachineDescription.h"

#include <memory>
#include <utility>
#include <vector>

namespace ccra {

class ScenarioBuilder {
public:
  ScenarioBuilder(RegisterConfig Config, double EntryFreq)
      : M("scenario"), MD(Config), EntryFreq(EntryFreq) {
    F = M.createFunction("f");
  }

  /// Adds a live range with the given weighted reference count and
  /// caller-save cost; its callee-save cost is 2 x entry frequency like in
  /// real allocation. Returns the live-range id.
  unsigned addRange(RegBank Bank, double WeightedRefs, double CallerSaveCost,
                    bool ContainsCall = true, unsigned NumBlocks = 1) {
    LiveRange LR;
    LR.Root = F->createVReg(Bank);
    LR.Bank = Bank;
    LR.WeightedRefs = WeightedRefs;
    LR.CallerSaveCost = CallerSaveCost;
    LR.CalleeSaveCost = 2.0 * EntryFreq;
    LR.NumRefs = 1;
    LR.NumBlocks = NumBlocks;
    LR.ContainsCall = ContainsCall;
    return LRS.addRange(std::move(LR));
  }

  void addEdge(unsigned A, unsigned B) { Edges.push_back({A, B}); }

  /// Registers a call site of frequency \p Freq crossed by \p Crossing.
  void addCall(double Freq, const std::vector<unsigned> &Crossing) {
    CallSite CS;
    CS.Id = static_cast<unsigned>(LRS.callSites().size());
    CS.Freq = Freq;
    LRS.addCallSite(CS);
    for (unsigned RangeId : Crossing)
      LRS.range(RangeId).CrossedCalls.push_back(CS.Id);
  }

  /// Finalizes the interference graph and returns the context. Call once.
  AllocationContext &context() {
    Ctx = std::unique_ptr<AllocationContext>(new AllocationContext{
        *F, MD, Freq, Liveness(), std::move(LRS), InterferenceGraph(),
        EntryFreq, {}});
    Ctx->IG = InterferenceGraph(Ctx->LRS.numRanges());
    for (auto [A, B] : Edges)
      Ctx->IG.addEdge(A, B);
    Ctx->IG.finalize();
    return *Ctx;
  }

  const MachineDescription &machine() const { return MD; }

private:
  Module M;
  Function *F;
  FrequencyInfo Freq;
  MachineDescription MD;
  double EntryFreq;
  LiveRangeSet LRS;
  std::vector<std::pair<unsigned, unsigned>> Edges;
  std::unique_ptr<AllocationContext> Ctx;
};

/// Total savings of an assignment over leaving everything in memory:
/// benefitCallee for callee-save residents (first user per register pays;
/// the scenario tests use distinct registers so this is exact), and
/// benefitCaller for caller-save residents.
inline double assignmentSavings(const AllocationContext &Ctx,
                                const RoundResult &RR) {
  double Savings = 0.0;
  for (unsigned I = 0; I < Ctx.LRS.numRanges(); ++I) {
    const Location &Loc = RR.Assignment[I];
    if (!Loc.isRegister())
      continue;
    Savings += Ctx.MD.isCalleeSave(Loc.Reg) ? Ctx.LRS.range(I).benefitCallee()
                                            : Ctx.LRS.range(I).benefitCaller();
  }
  return Savings;
}

} // namespace ccra

#endif // CCRA_TESTS_TESTUTIL_H
