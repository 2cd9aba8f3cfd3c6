//===- regalloc/GraphReconstructor.cpp ------------------------------------===//

#include "regalloc/GraphReconstructor.h"

#include "analysis/Frequency.h"
#include "regalloc/AllocationScratch.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

bool GraphReconstructor::hasNoCopies(const Function &F) {
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isMove())
        return false;
  return true;
}

void GraphReconstructor::apply(const Function &F, const FrequencyInfo &Freq,
                               Liveness &LV, LiveRangeSet &LRS,
                               InterferenceGraph &IG,
                               const std::vector<unsigned> &SpilledRangeIds,
                               unsigned OldNumVRegs,
                               AllocationScratch *Scratch) {
  const unsigned OldNumRanges = LRS.numRanges();
  const unsigned NewNumVRegs = F.numVRegs();

  std::vector<bool> Spilled(OldNumRanges, false);
  for (unsigned Id : SpilledRangeIds)
    Spilled[Id] = true;

  // --- Liveness: spilled registers vanish; temporaries are block-local ----
  for (unsigned V = 0; V < OldNumVRegs; ++V) {
    int RangeId = LRS.rangeIdOf(VirtReg(V));
    if (RangeId >= 0 && Spilled[static_cast<unsigned>(RangeId)])
      LV.eraseRegister(VirtReg(V));
  }
  LV.growUniverse(NewNumVRegs);

  // --- Live ranges: drop spilled, renumber survivors, append temps --------
  std::vector<int> NewIdOfOld(OldNumRanges, -1);
  std::vector<LiveRange> NewRanges;
  NewRanges.reserve(OldNumRanges);
  for (unsigned Id = 0; Id < OldNumRanges; ++Id) {
    if (Spilled[Id])
      continue;
    NewIdOfOld[Id] = static_cast<int>(NewRanges.size());
    LiveRange LR = LRS.range(Id);
    LR.Id = static_cast<unsigned>(NewRanges.size());
    // The preference decision annotates ranges during each round; a fresh
    // round starts with clean annotations.
    LR.ForcedCallerPref = false;
    NewRanges.push_back(std::move(LR));
  }

  // One singleton range per reload temporary, metrics from the code.
  std::vector<int> TempRangeOf(NewNumVRegs - OldNumVRegs, -1);
  auto TempIndex = [&](VirtReg R) {
    return static_cast<unsigned>(R.Id - OldNumVRegs);
  };
  for (const auto &BB : F.blocks()) {
    double BlockFreq = Freq.blockFrequency(*BB);
    for (const Instruction &I : BB->instructions()) {
      auto Touch = [&](VirtReg R) {
        if (R.Id < OldNumVRegs)
          return;
        int &Slot = TempRangeOf[TempIndex(R)];
        if (Slot < 0) {
          LiveRange Temp;
          Temp.Id = static_cast<unsigned>(NewRanges.size());
          Temp.Root = R;
          Temp.Bank = F.vregBank(R);
          Temp.CalleeSaveCost = 2.0 * Freq.entryFrequency(F);
          Temp.NumBlocks = 1;
          Temp.NoSpill = true;
          Slot = static_cast<int>(Temp.Id);
          NewRanges.push_back(std::move(Temp));
        }
        LiveRange &Temp = NewRanges[static_cast<size_t>(Slot)];
        Temp.WeightedRefs += BlockFreq;
        ++Temp.NumRefs;
      };
      for (VirtReg D : I.Defs)
        Touch(D);
      for (VirtReg U : I.Uses)
        Touch(U);
    }
  }

  LiveRangeSet NewLRS;
  for (LiveRange &LR : NewRanges)
    NewLRS.addRange(std::move(LR));
  NewLRS.resizeMapping(NewNumVRegs);
  for (unsigned V = 0; V < OldNumVRegs; ++V) {
    int OldRange = LRS.rangeIdOf(VirtReg(V));
    NewLRS.mapRegister(VirtReg(V),
                       OldRange < 0
                           ? -1
                           : NewIdOfOld[static_cast<unsigned>(OldRange)]);
  }
  for (unsigned V = OldNumVRegs; V < NewNumVRegs; ++V)
    NewLRS.mapRegister(VirtReg(V), TempRangeOf[TempIndex(VirtReg(V))]);

  // Call sites: spill code shifted instruction positions but never
  // reordered calls, so re-enumerating preserves the ids that survivors'
  // CrossedCalls lists reference.
  unsigned CallId = 0;
  for (const auto &BB : F.blocks()) {
    const auto &Insts = BB->instructions();
    for (unsigned Idx = 0; Idx < Insts.size(); ++Idx) {
      if (!Insts[Idx].isCall())
        continue;
      CallSite CS;
      CS.Id = CallId++;
      CS.Block = BB.get();
      CS.InstIndex = Idx;
      CS.Freq = Freq.blockFrequency(*BB);
      CS.Inst = &Insts[Idx];
      NewLRS.addCallSite(CS);
    }
  }

  // --- Interference graph: copy surviving edges, rescan touched blocks ----
  // The new graph keeps the old graph's representation policy, so a forced
  // Dense/Sparse choice survives spill rounds.
  AllocationScratch LocalScratch;
  AllocationScratch &S = Scratch ? *Scratch : LocalScratch;
  InterferenceGraph NewIG(NewLRS.numRanges(), IG.policy(), &S);
  for (unsigned A = 0; A < OldNumRanges; ++A) {
    if (NewIdOfOld[A] < 0)
      continue;
    for (unsigned B : IG.neighbors(A)) {
      if (B <= A || NewIdOfOld[B] < 0)
        continue;
      NewIG.addEdge(static_cast<unsigned>(NewIdOfOld[A]),
                    static_cast<unsigned>(NewIdOfOld[B]));
    }
  }
  // Blocks referencing a temporary are the only ones with new edges
  // (everything else kept its liveness and instructions).
  std::vector<const BasicBlock *> TouchedBlocks;
  for (const auto &BB : F.blocks()) {
    bool Touched = false;
    for (const Instruction &I : BB->instructions()) {
      for (VirtReg D : I.Defs)
        Touched |= D.Id >= OldNumVRegs;
      for (VirtReg U : I.Uses)
        Touched |= U.Id >= OldNumVRegs;
      if (Touched)
        break;
    }
    if (Touched)
      TouchedBlocks.push_back(BB.get());
  }
  InterferenceGraph::scanBlocksForEdges(F, TouchedBlocks, LV, NewLRS, NewIG,
                                        &S);
  NewIG.finalize();

  LRS = std::move(NewLRS);
  IG.recycle(S);
  IG = std::move(NewIG);
}

#ifdef CCRA_RECONSTRUCT_SELFCHECK
#include "analysis/Liveness.h"
#include "regalloc/VRegClasses.h"
#include <cstdio>
namespace ccra {
void reconstructSelfCheck(const Function &F, const FrequencyInfo &Freq,
                          const Liveness &LV, const LiveRangeSet &LRS,
                          const InterferenceGraph &IG) {
  VRegClasses Classes(F.numVRegs());
  Liveness FreshLV = Liveness::compute(F);
  LiveRangeSet FreshLRS = LiveRangeSet::build(F, FreshLV, Freq, Classes);
  if (FreshLRS.numRanges() != LRS.numRanges()) {
    std::fprintf(stderr, "SELF-CHECK: range count %u vs %u\n", LRS.numRanges(), FreshLRS.numRanges());
    return;
  }
  for (unsigned I = 0; I < LRS.numRanges(); ++I) {
    const LiveRange &A = LRS.range(I);
    const LiveRange &B = FreshLRS.range(I);
    if (A.Root != B.Root) std::fprintf(stderr, "SELF-CHECK %u: root %u vs %u\n", I, A.Root.Id, B.Root.Id);
    if (A.WeightedRefs != B.WeightedRefs) std::fprintf(stderr, "SELF-CHECK %u(v%u): refs %f vs %f\n", I, A.Root.Id, A.WeightedRefs, B.WeightedRefs);
    if (A.CallerSaveCost != B.CallerSaveCost) std::fprintf(stderr, "SELF-CHECK %u(v%u): callerC %f vs %f\n", I, A.Root.Id, A.CallerSaveCost, B.CallerSaveCost);
    if (A.CrossedCalls != B.CrossedCalls) std::fprintf(stderr, "SELF-CHECK %u(v%u): crossed %zu vs %zu\n", I, A.Root.Id, A.CrossedCalls.size(), B.CrossedCalls.size());
    if (A.NoSpill != B.NoSpill) std::fprintf(stderr, "SELF-CHECK %u(v%u): nospill %d vs %d\n", I, A.Root.Id, A.NoSpill, B.NoSpill);
    if (A.NumBlocks != B.NumBlocks) std::fprintf(stderr, "SELF-CHECK %u(v%u): blocks %u vs %u\n", I, A.Root.Id, A.NumBlocks, B.NumBlocks);
  }
  InterferenceGraph FreshIG = InterferenceGraph::build(F, FreshLV, FreshLRS);
  for (unsigned I = 0; I < LRS.numRanges(); ++I)
    if (IG.degree(I) != FreshIG.degree(I))
      std::fprintf(stderr, "SELF-CHECK %u(v%u): degree %u vs %u\n", I, LRS.range(I).Root.Id, IG.degree(I), FreshIG.degree(I));
  for (const auto &BB : F.blocks()) {
    if (!(LV.liveOut(*BB) == FreshLV.liveOut(*BB)))
      std::fprintf(stderr, "SELF-CHECK: liveOut differs in %s\n", BB->getName().c_str());
  }
}
} // namespace ccra
#endif
