//===- regalloc/Simplifier.cpp --------------------------------------------===//

#include "regalloc/Simplifier.h"

#include "target/MachineDescription.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <utility>

using namespace ccra;

SimplifyResult Simplifier::run(const AllocationContext &Ctx, bool Optimistic,
                               const KeyFn &Key) {
  const InterferenceGraph &IG = Ctx.IG;
  const LiveRangeSet &LRS = Ctx.LRS;
  unsigned NumNodes = IG.numNodes();

  SimplifyResult Result;
  Result.PushedOptimistically.assign(NumNodes, false);
  Result.Stack.reserve(NumNodes);

  // Registers refused in earlier rounds are locked and shrink the number of
  // colors actually available — the simplification threshold must match or
  // the colorability guarantee breaks.
  unsigned LockedPerBank[NumRegBanks] = {0, 0};
  for (PhysReg Reg : Ctx.RefusedCalleeRegs)
    ++LockedPerBank[static_cast<unsigned>(Reg.Bank)];

  // Keys are evaluated once per node: Key is a pure function of the
  // LiveRange, so caching it cannot change any pick.
  std::vector<unsigned> Degree(NumNodes), ColorLimit(NumNodes);
  std::vector<double> CachedKey(NumNodes, 0.0);
  std::vector<bool> Active(NumNodes, true);
  for (unsigned I = 0; I < NumNodes; ++I) {
    Degree[I] = IG.degree(I);
    RegBank Bank = LRS.range(I).Bank;
    unsigned Total = Ctx.MD.numRegs(Bank);
    ColorLimit[I] =
        Total - std::min(LockedPerBank[static_cast<unsigned>(Bank)], Total);
    if (Key)
      CachedKey[I] = Key(LRS.range(I));
  }

  // Unconstrained active nodes in a (key, index) min-heap: the pop order is
  // "smallest key, lowest index on ties". Constrained active nodes in a
  // dense swap-removable set for the blocked paths. A node enters the heap
  // at most once — degrees only decrease, so the constrained ->
  // unconstrained transition is one-way — which means no entry is ever
  // stale while the node is active.
  using HeapEntry = std::pair<double, unsigned>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Unconstrained;
  std::vector<unsigned> Constrained;
  std::vector<unsigned> ConstrainedPos(NumNodes, ~0u);

  for (unsigned I = 0; I < NumNodes; ++I) {
    if (Degree[I] < ColorLimit[I]) {
      Unconstrained.push({CachedKey[I], I});
    } else {
      ConstrainedPos[I] = static_cast<unsigned>(Constrained.size());
      Constrained.push_back(I);
    }
  }

  auto RemoveConstrained = [&](unsigned Node) {
    unsigned Pos = ConstrainedPos[Node];
    assert(Pos != ~0u && "node not in constrained set");
    unsigned Last = Constrained.back();
    Constrained[Pos] = Last;
    ConstrainedPos[Last] = Pos;
    Constrained.pop_back();
    ConstrainedPos[Node] = ~0u;
  };

  auto Deactivate = [&](unsigned Node) {
    Active[Node] = false;
    for (unsigned Neighbor : IG.neighbors(Node)) {
      if (!Active[Neighbor])
        continue;
      // An active neighbor's degree counts Node, so it is >= 1 and the
      // decrement is safe. Crossing the limit moves it to the heap.
      if (Degree[Neighbor]-- == ColorLimit[Neighbor]) {
        RemoveConstrained(Neighbor);
        Unconstrained.push({CachedKey[Neighbor], Neighbor});
      }
    }
  };

  unsigned Remaining = NumNodes;
  while (Remaining > 0) {
    int Best = -1;
    while (!Unconstrained.empty()) {
      HeapEntry Top = Unconstrained.top();
      Unconstrained.pop();
      if (Active[Top.second]) {
        Best = static_cast<int>(Top.second);
        break;
      }
    }
    if (Best >= 0) {
      Result.Stack.push_back(static_cast<unsigned>(Best));
      Deactivate(static_cast<unsigned>(Best));
      --Remaining;
      continue;
    }

    // Blocked: the heap drained, so every active node is in Constrained.
    // Explicit (metric, index) lexicographic comparisons give the
    // lowest-index tie-break whatever order the set is in.
    int Victim = -1;
    double VictimMetric = std::numeric_limits<double>::infinity();
    for (unsigned I : Constrained) {
      if (LRS.range(I).NoSpill)
        continue;
      double Metric = LRS.range(I).spillCost() /
                      static_cast<double>(std::max(Degree[I], 1u));
      if (Victim < 0 || Metric < VictimMetric ||
          (Metric == VictimMetric && static_cast<int>(I) < Victim)) {
        Victim = static_cast<int>(I);
        VictimMetric = Metric;
      }
    }
    bool EmergencyNoSpill = Victim < 0;
    if (EmergencyNoSpill) {
      // Only unspillable reload temporaries remain. Push the one with the
      // smallest degree and hope color assignment finds room (its steal
      // fallback guarantees progress).
      unsigned BestDegree = ~0u;
      for (unsigned I : Constrained)
        if (Degree[I] < BestDegree ||
            (Degree[I] == BestDegree && static_cast<int>(I) < Victim)) {
          Victim = static_cast<int>(I);
          BestDegree = Degree[I];
        }
      assert(Victim >= 0 && "no active node while Remaining > 0");
    }

    unsigned V = static_cast<unsigned>(Victim);
    if (Optimistic || EmergencyNoSpill) {
      Result.Stack.push_back(V);
      Result.PushedOptimistically[V] = true;
    } else {
      Result.SpilledNodes.push_back(V);
    }
    RemoveConstrained(V);
    Deactivate(V);
    --Remaining;
  }
  return Result;
}
