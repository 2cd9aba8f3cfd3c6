//===- fuzz/Reference.cpp -------------------------------------------------===//

#include "fuzz/Reference.h"

#include "regalloc/VRegClasses.h"
#include "target/MachineDescription.h"

#include <algorithm>
#include <utility>

using namespace ccra;

SimplifyResult ccra::referenceSimplify(const AllocationContext &Ctx,
                                       bool Optimistic,
                                       const Simplifier::KeyFn &Key) {
  const InterferenceGraph &IG = Ctx.IG;
  const LiveRangeSet &LRS = Ctx.LRS;
  unsigned NumNodes = IG.numNodes();

  // Refused callee-save registers are locked, so they shrink each bank's
  // color limit.
  unsigned Locked[NumRegBanks] = {0, 0};
  for (PhysReg Reg : Ctx.RefusedCalleeRegs)
    ++Locked[static_cast<unsigned>(Reg.Bank)];
  std::vector<unsigned> Degree(NumNodes), Limit(NumNodes);
  std::vector<double> Keys(NumNodes, 0.0);
  std::vector<bool> Active(NumNodes, true);
  for (unsigned I = 0; I < NumNodes; ++I) {
    const LiveRange &LR = LRS.range(I);
    unsigned Total = Ctx.MD.numRegs(LR.Bank);
    Degree[I] = IG.degree(I);
    Limit[I] = Total - std::min(Locked[static_cast<unsigned>(LR.Bank)], Total);
    Keys[I] = Key ? Key(LR) : 0.0;
  }

  SimplifyResult Result;
  Result.PushedOptimistically.assign(NumNodes, false);
  for (unsigned Step = 0; Step < NumNodes; ++Step) {
    // The unconstrained node with the smallest key; when there is none,
    // the spill candidate minimizing spillCost / degree; when only
    // unspillable reload temporaries remain, the one of smallest degree.
    // The first node scanned wins every tie.
    int Best = -1, Victim = -1, Emergency = -1;
    for (unsigned I = 0; I < NumNodes; ++I)
      if (Active[I] && Degree[I] < Limit[I] &&
          (Best < 0 || Keys[I] < Keys[Best]))
        Best = static_cast<int>(I);
    double VictimMetric = 0;
    for (unsigned I = 0; Best < 0 && I < NumNodes; ++I) {
      if (!Active[I])
        continue;
      double Metric = LRS.range(I).spillCost() /
                      static_cast<double>(std::max(Degree[I], 1u));
      if (!LRS.range(I).NoSpill && (Victim < 0 || Metric < VictimMetric)) {
        Victim = static_cast<int>(I);
        VictimMetric = Metric;
      }
      if (Emergency < 0 || Degree[I] < Degree[Emergency])
        Emergency = static_cast<int>(I);
    }
    unsigned Node = static_cast<unsigned>(
        Best >= 0 ? Best : Victim >= 0 ? Victim : Emergency);
    if (Best >= 0) {
      Result.Stack.push_back(Node);
    } else if (Optimistic || Victim < 0) {
      Result.Stack.push_back(Node);
      Result.PushedOptimistically[Node] = true;
    } else {
      Result.SpilledNodes.push_back(Node);
    }
    Active[Node] = false;
    for (unsigned Neighbor : IG.neighbors(Node))
      if (Active[Neighbor])
        --Degree[Neighbor];
  }
  return Result;
}

namespace {

/// Briggs: the merged node has fewer than \p N neighbours of significant
/// degree. A neighbour of both loses one edge in the merge; a shared
/// neighbour is counted once from each side.
bool briggsSafe(const InterferenceGraph &IG, unsigned A, unsigned B,
                unsigned N) {
  unsigned Significant = 0;
  for (auto [Node, Other] : {std::pair{A, B}, std::pair{B, A}})
    for (unsigned Neighbor : IG.neighbors(Node)) {
      if (Neighbor == Other)
        continue;
      bool Shared = IG.interfere(Neighbor, A) && IG.interfere(Neighbor, B);
      if (IG.degree(Neighbor) - (Shared ? 1 : 0) >= N)
        ++Significant;
    }
  return Significant < N;
}

} // namespace

CoalesceStats ccra::referenceCoalesce(Function &F, VRegClasses &Classes,
                                      const MachineDescription &MD,
                                      const FrequencyInfo &Freq,
                                      bool Aggressive) {
  CoalesceStats Stats;
  auto Canonicalize = [&] {
    Classes.grow(F.numVRegs());
    for (const auto &BB : F.blocks())
      for (Instruction &I : BB->instructions()) {
        for (VirtReg &R : I.Defs)
          R = Classes.find(R);
        for (VirtReg &R : I.Uses)
          R = Classes.find(R);
      }
  };

  // The same pass cap as Coalescer::run, so even a function that never
  // reaches the fixpoint ends in the same state.
  for (unsigned Pass = 0; Pass < 64; ++Pass) {
    ++Stats.Passes;
    ++Stats.LivenessComputes;
    Canonicalize();
    Liveness LV = Liveness::compute(F);
    LiveRangeSet LRS = LiveRangeSet::build(F, LV, Freq, Classes);
    InterferenceGraph IG =
        InterferenceGraph::build(F, LV, LRS, nullptr, GraphRep::Dense);

    // One merge per live range per pass; the graph is stale after it.
    std::vector<bool> Touched(LRS.numRanges(), false);
    auto Drop = [&](const Instruction &I) {
      if (!I.isMove())
        return false;
      unsigned Src = static_cast<unsigned>(LRS.rangeIdOf(I.moveSource()));
      unsigned Dst = static_cast<unsigned>(LRS.rangeIdOf(I.moveDest()));
      if (Src == Dst)
        return true; // a copy within one class is dead
      const LiveRange &S = LRS.range(Src), &D = LRS.range(Dst);
      bool SkipBriggs = Aggressive && !S.NoSpill && !D.NoSpill;
      if (Touched[Src] || Touched[Dst] || S.Bank != D.Bank ||
          IG.interfere(Src, Dst) ||
          !(SkipBriggs || briggsSafe(IG, Src, Dst, MD.numRegs(S.Bank))))
        return false;
      Classes.merge(S.Root, D.Root);
      Touched[Src] = Touched[Dst] = true;
      ++Stats.CoalescedMoves;
      return true;
    };
    bool Changed = false;
    for (const auto &BB : F.blocks()) {
      std::vector<Instruction> Kept;
      for (Instruction &I : BB->instructions())
        if (!Drop(I))
          Kept.push_back(std::move(I));
      Changed |= Kept.size() != BB->instructions().size();
      BB->instructions() = std::move(Kept);
    }
    if (!Changed)
      return Stats;
  }
  Canonicalize();
  return Stats;
}
