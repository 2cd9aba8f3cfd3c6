//===- regalloc/InterferenceGraph.cpp -------------------------------------===//

#include "regalloc/InterferenceGraph.h"

#include "analysis/Liveness.h"
#include "regalloc/AllocationScratch.h"

#include <algorithm>
#include <cassert>

using namespace ccra;

InterferenceGraph::InterferenceGraph(unsigned NumNodes, GraphRep Policy,
                                     AllocationScratch *Scratch)
    : Policy(Policy) {
  Dense = Policy == GraphRep::Dense ||
          (Policy == GraphRep::Auto && NumNodes <= DenseNodeThreshold);
  if (Scratch) {
    Adj = Scratch->takeGraphAdj();
    if (Dense)
      Matrix = Scratch->takeGraphMatrix();
  }
  // Recycled adjacency keeps per-node capacity; trim or grow to NumNodes
  // with every kept list emptied.
  if (Adj.size() > NumNodes)
    Adj.resize(NumNodes);
  for (auto &List : Adj)
    List.clear();
  Adj.resize(NumNodes);
  if (Dense) {
    size_t Bits =
        NumNodes == 0 ? 0 : static_cast<size_t>(NumNodes) * (NumNodes - 1) / 2;
    Matrix.resize(Bits);
    Matrix.resetAll();
  }
}

size_t InterferenceGraph::matrixIndex(unsigned A, unsigned B) const {
  assert(A != B && "self edge has no matrix slot");
  if (A > B)
    std::swap(A, B);
  return static_cast<size_t>(B) * (B - 1) / 2 + A;
}

void InterferenceGraph::addEdge(unsigned A, unsigned B) {
  assert(A < numNodes() && B < numNodes() && "node out of range");
  if (A == B)
    return;
  Finalized = false;
  if (Dense) {
    Matrix.set(matrixIndex(A, B));
    return;
  }
  // Duplicates are dropped by finalize()'s sort-unique.
  Adj[A].push_back(B);
  Adj[B].push_back(A);
}

bool InterferenceGraph::interfere(unsigned A, unsigned B) const {
  if (A == B)
    return false;
  if (Dense)
    return Matrix.test(matrixIndex(A, B));
  // Sparse: search the shorter endpoint's list — binary once finalized,
  // linear while appended entries are still unsorted.
  bool AShorter = Adj[A].size() <= Adj[B].size();
  const std::vector<unsigned> &List = AShorter ? Adj[A] : Adj[B];
  unsigned Target = AShorter ? B : A;
  if (Finalized)
    return std::binary_search(List.begin(), List.end(), Target);
  return std::find(List.begin(), List.end(), Target) != List.end();
}

void InterferenceGraph::finalize() {
  if (Finalized)
    return;
  Finalized = true;
  NumEdges = 0;
  if (!Dense) {
    for (auto &List : Adj) {
      std::sort(List.begin(), List.end());
      List.erase(std::unique(List.begin(), List.end()), List.end());
      NumEdges += List.size();
    }
    NumEdges /= 2;
    return;
  }
  // Row B of the triangle spans bits [B*(B-1)/2, B*(B+1)/2) and holds B's
  // lower neighbours in ascending order. Walking the set bits row by row
  // appends to Adj[B] its lower neighbours first and, from later rows, its
  // higher ones in ascending order — every list comes out sorted.
  for (auto &List : Adj)
    List.clear();
  unsigned Row = 1;
  size_t RowStart = 0;
  Matrix.forEachSetBit([&](size_t Idx) {
    while (Idx >= RowStart + Row) {
      RowStart += Row;
      ++Row;
    }
    unsigned Lower = static_cast<unsigned>(Idx - RowStart);
    Adj[Row].push_back(Lower);
    Adj[Lower].push_back(Row);
    ++NumEdges;
  });
}

size_t InterferenceGraph::memoryBytes() const {
  size_t Bytes = Adj.capacity() * sizeof(std::vector<unsigned>);
  for (const auto &List : Adj)
    Bytes += List.capacity() * sizeof(unsigned);
  return Bytes + Matrix.memoryBytes();
}

void InterferenceGraph::recycle(AllocationScratch &S) {
  S.storeGraphAdj(std::move(Adj));
  Adj = std::vector<std::vector<unsigned>>();
  if (Dense) {
    S.storeGraphMatrix(std::move(Matrix));
    Matrix = BitVector();
  }
  NumEdges = 0;
  Finalized = true;
}

void InterferenceGraph::scanBlocksForEdges(
    const Function &F, const std::vector<const BasicBlock *> &Blocks,
    const Liveness &LV, const LiveRangeSet &LRS, InterferenceGraph &IG,
    AllocationScratch *Scratch) {
  // Liveness is tracked at vreg granularity (Live); a live *range* is live
  // while any member vreg is, maintained as a per-range count plus, per
  // register bank, a dense list of currently live ranges (with a position
  // index for O(1) removal) for fast iteration at defs. A def walks only
  // its own bank's list: ranges of other banks never interfere with it.
  // The buffers are initialized once; each block hands them on clean.
  AllocationScratch Local;
  AllocationScratch &S = Scratch ? *Scratch : Local;
  BitVector &Live = S.liveBits(F.numVRegs());
  std::vector<unsigned> &LiveCount = S.rangeLiveCount(LRS.numRanges());
  AllocationScratch::BankRangeLists &LiveLists = S.rangeLiveLists();
  std::vector<unsigned> &LivePos = S.rangeLivePos(LRS.numRanges());

  // A range's bank is its vregs' bank; reading it off the vreg avoids
  // loading the LiveRange.
  auto RangeOf = [&](VirtReg V) {
    return static_cast<unsigned>(LRS.rangeIdOf(V));
  };
  auto ListOf = [&](VirtReg V) -> std::vector<unsigned> & {
    return LiveLists[static_cast<unsigned>(F.vregBank(V))];
  };
  auto VRegBecameLive = [&](VirtReg V) {
    unsigned R = RangeOf(V);
    if (LiveCount[R]++ == 0) {
      std::vector<unsigned> &List = ListOf(V);
      LivePos[R] = static_cast<unsigned>(List.size());
      List.push_back(R);
    }
  };
  auto VRegBecameDead = [&](VirtReg V) {
    unsigned R = RangeOf(V);
    assert(LiveCount[R] > 0 && "kill of dead range");
    if (--LiveCount[R] == 0) {
      // Swap-remove via the position index.
      std::vector<unsigned> &List = ListOf(V);
      unsigned Pos = LivePos[R];
      unsigned Last = List.back();
      List[Pos] = Last;
      LivePos[Last] = Pos;
      List.pop_back();
    }
  };

  for (const BasicBlock *BB : Blocks) {
    for (unsigned V : LV.liveOut(*BB)) {
      Live.set(V);
      VRegBecameLive(VirtReg(V));
    }

    const auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(), E = Insts.rend(); It != E; ++It) {
      const Instruction &I = *It;
      int MoveSrcRange = I.isMove() ? LRS.rangeIdOf(I.moveSource()) : -1;

      // A def conflicts with everything of its bank live after the
      // instruction — except, for a copy, its own source (Chaitin's
      // coalescing-enabling special case).
      for (VirtReg D : I.Defs) {
        unsigned DefRange = RangeOf(D);
        for (unsigned Other : ListOf(D)) {
          if (Other == DefRange || static_cast<int>(Other) == MoveSrcRange)
            continue;
          IG.addEdge(DefRange, Other);
        }
      }
      // Multiple results of one instruction conflict with each other.
      for (size_t A = 0; A + 1 < I.Defs.size(); ++A)
        for (size_t B = A + 1; B < I.Defs.size(); ++B) {
          unsigned RA = RangeOf(I.Defs[A]);
          unsigned RB = RangeOf(I.Defs[B]);
          if (RA != RB && F.vregBank(I.Defs[A]) == F.vregBank(I.Defs[B]))
            IG.addEdge(RA, RB);
        }

      // Step the live set backward across the instruction.
      for (VirtReg D : I.Defs)
        if (Live.test(D.Id)) {
          Live.reset(D.Id);
          VRegBecameDead(D);
        }
      for (VirtReg U : I.Uses)
        if (!Live.test(U.Id)) {
          Live.set(U.Id);
          VRegBecameLive(U);
        }
    }

    // What is still live is the block's live-in: clear just those counts,
    // so the next block starts clean without an O(ranges) reset.
    for (auto &List : LiveLists) {
      for (unsigned R : List)
        LiveCount[R] = 0;
      List.clear();
    }
    Live.resetAll();
  }
}

InterferenceGraph InterferenceGraph::build(const Function &F,
                                           const Liveness &LV,
                                           const LiveRangeSet &LRS,
                                           AllocationScratch *Scratch,
                                           GraphRep Policy) {
  // Even without a caller-provided arena, one arena serves the scan and
  // the graph storage.
  AllocationScratch Local;
  AllocationScratch &S = Scratch ? *Scratch : Local;
  InterferenceGraph IG(LRS.numRanges(), Policy, &S);
  std::vector<const BasicBlock *> Blocks;
  Blocks.reserve(F.numBlocks());
  for (const auto &BB : F.blocks())
    Blocks.push_back(BB.get());
  scanBlocksForEdges(F, Blocks, LV, LRS, IG, &S);
  IG.finalize();
  return IG;
}
