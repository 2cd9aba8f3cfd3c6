//===- regalloc/AllocationScratch.h - Per-worker scratch arena --*- C++ -*-===//
///
/// \file
/// A bundle of reusable buffers for the allocation hot path. Small-function
/// allocation is dominated by malloc churn: every interference scan
/// (InterferenceGraph::scanBlocksForEdges) needs a live-vreg BitVector and
/// per-range live lists, every coalescing pass a Touched array, every round
/// a spill-index map. An AllocationScratch owns those buffers and hands them
/// out re-initialized, so the capacity acquired on the first function is
/// recycled across blocks, passes, rounds, and functions.
///
/// Lifetime and invalidation: a scratch holds no allocation *state*, only
/// capacity — every accessor fully re-initializes the buffer it returns
/// (cleared bits, zeroed counts, empty lists) before handing it out, so a
/// scratch carries nothing from one use to the next and never needs
/// explicit invalidation. The one rule is exclusivity: one scratch, one
/// thread — the engine keeps one per worker slot (ThreadPool slots are
/// unique per concurrent task), the harness one per engine on the serial
/// path.
///
/// Determinism: buffers start each use in a state independent of history,
/// so scratch on/off cannot change any allocation result — only the number
/// of allocations. Reuses (a buffer handed out without growing) is
/// scheduling-dependent and feeds the "sched." telemetry namespace.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_ALLOCATIONSCRATCH_H
#define CCRA_REGALLOC_ALLOCATIONSCRATCH_H

#include "ir/Register.h"
#include "support/BitVector.h"

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

namespace ccra {

class AllocationScratch {
public:
  /// scanBlocksForEdges: the vreg-granularity live set. Returned resized to
  /// \p NumVRegs with every bit clear.
  BitVector &liveBits(unsigned NumVRegs) {
    noteReuse(LiveBits.size() >= NumVRegs);
    LiveBits.resize(NumVRegs);
    LiveBits.resetAll();
    return LiveBits;
  }

  /// scanBlocksForEdges: live-vreg count per live range, zeroed.
  std::vector<unsigned> &rangeLiveCount(unsigned NumRanges) {
    noteReuse(RangeLiveCount.capacity() >= NumRanges);
    RangeLiveCount.assign(NumRanges, 0);
    return RangeLiveCount;
  }

  /// One list of live-range ids per register bank.
  using BankRangeLists = std::array<std::vector<unsigned>, NumRegBanks>;

  /// scanBlocksForEdges: dense lists of currently live ranges, one per
  /// register bank, each emptied.
  BankRangeLists &rangeLiveLists() {
    noteReuse(RangeLiveLists[0].capacity() > 0);
    for (auto &List : RangeLiveLists)
      List.clear();
    return RangeLiveLists;
  }

  /// scanBlocksForEdges: position of each live range inside its bank's
  /// rangeLiveLists() entry, for O(1) swap-removal. Returned sized to
  /// \p NumRanges; contents are only read for ranges currently in a live
  /// list, so no re-init beyond the resize is needed.
  std::vector<unsigned> &rangeLivePos(unsigned NumRanges) {
    noteReuse(RangeLivePos.capacity() >= NumRanges);
    RangeLivePos.resize(NumRanges);
    return RangeLivePos;
  }

  /// Coalescer: one-merge-per-range-per-pass marks, zeroed.
  std::vector<char> &touchedRanges(unsigned NumRanges) {
    noteReuse(TouchedRanges.capacity() >= NumRanges);
    TouchedRanges.assign(NumRanges, 0);
    return TouchedRanges;
  }

  /// Coalescer: per-instruction deletion marks for one pass, zeroed.
  std::vector<char> &deleteFlags(std::size_t NumInsts) {
    noteReuse(DeleteFlags.capacity() >= NumInsts);
    DeleteFlags.assign(NumInsts, 0);
    return DeleteFlags;
  }

  /// Engine round: spill index per live range, reset to -1.
  std::vector<int> &spillIndexOfRange(unsigned NumRanges) {
    noteReuse(SpillIndexOfRange.capacity() >= NumRanges);
    SpillIndexOfRange.assign(NumRanges, -1);
    return SpillIndexOfRange;
  }

  /// \name Interference-graph buffer pool
  /// Unlike the accessors above, graph buffers are *moved* out (the graph
  /// outlives any single scratch handout) and returned by
  /// InterferenceGraph::recycle when the graph is done with them: the
  /// adjacency lists (both representations) and the dense tier's bit
  /// matrix. take* re-initializes nothing — the graph constructor sizes
  /// and clears what it takes.
  /// @{
  std::vector<std::vector<unsigned>> takeGraphAdj() {
    noteReuse(!GraphAdj.empty());
    return std::move(GraphAdj);
  }
  void storeGraphAdj(std::vector<std::vector<unsigned>> &&Adj) {
    GraphAdj = std::move(Adj);
  }

  BitVector takeGraphMatrix() {
    noteReuse(GraphMatrix.memoryBytes() > 0);
    return std::move(GraphMatrix);
  }
  void storeGraphMatrix(BitVector &&Matrix) { GraphMatrix = std::move(Matrix); }
  /// @}

  /// Number of times a buffer was handed out without having to grow.
  std::uint64_t reuses() const { return Reuses; }

private:
  void noteReuse(bool Reused) { Reuses += Reused ? 1 : 0; }

  BitVector LiveBits;
  std::vector<unsigned> RangeLiveCount;
  BankRangeLists RangeLiveLists;
  std::vector<unsigned> RangeLivePos;
  std::vector<char> TouchedRanges;
  std::vector<char> DeleteFlags;
  std::vector<int> SpillIndexOfRange;
  std::vector<std::vector<unsigned>> GraphAdj;
  BitVector GraphMatrix;
  std::uint64_t Reuses = 0;
};

} // namespace ccra

#endif // CCRA_REGALLOC_ALLOCATIONSCRATCH_H
