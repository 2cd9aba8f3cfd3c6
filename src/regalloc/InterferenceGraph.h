//===- regalloc/InterferenceGraph.h - Conflict graph ------------*- C++ -*-===//
///
/// \file
/// The interference graph of the Chaitin framework: nodes are live ranges,
/// edges connect live ranges that are simultaneously live (within the same
/// register bank — live ranges in different banks never compete for a
/// register, so no edges are needed between them).
///
/// The edge relation is stored in one of two representations behind a single
/// query API (GraphRep):
///
///  - Dense: a strict-lower-triangle bit matrix. addEdge only sets a bit, so
///    duplicate edges cost nothing and `interfere` is O(1), but the matrix
///    holds V*(V-1)/2 bits — quadratic in the node count. Row B holds B's
///    lower neighbours contiguously, so `finalize()` emits every adjacency
///    list already in ascending order in one pass over the set bits.
///  - Sparse: per-node adjacency only. addEdge appends both directions,
///    duplicates included; `finalize()` sorts and uniques each list once,
///    after which `interfere` is a binary search of the shorter endpoint's
///    list. Memory and build time scale with V plus the edge attempts.
///
/// Auto policy picks Dense up to DenseNodeThreshold nodes and Sparse above
/// it, so per-function cost scales with V+E instead of V^2 on large
/// functions.
///
/// Contract: adjacency (`neighbors`, `degree`, `numEdges`) is read only
/// from a finalized graph; `interfere` is correct at any time. build() and
/// the graph reconstructor finalize before returning, so every consumer —
/// Simplifier, Coalescer, GraphReconstructor, CBHAllocator,
/// AllocationVerifier — sees canonical ascending adjacency that is
/// identical under both representations, and allocation results are
/// bit-identical under every policy.
///
/// Copy instructions get the classic Chaitin special case: at "move d <- s"
/// no edge is added between d and s, which is what makes them coalescable.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_INTERFERENCEGRAPH_H
#define CCRA_REGALLOC_INTERFERENCEGRAPH_H

#include "regalloc/LiveRange.h"
#include "support/BitVector.h"

#include <cassert>
#include <vector>

namespace ccra {

class AllocationScratch;
class Liveness;

/// How an InterferenceGraph stores the edge relation (see the file
/// comment). Production builds always use Auto; Dense and Sparse force one
/// representation for the tests and the oracle lattice's reference leg.
enum class GraphRep {
  Auto,
  Dense,
  Sparse,
};

class InterferenceGraph {
public:
  /// Auto switches from the bit matrix to sparse adjacency above this node
  /// count. At the threshold the matrix holds ~8M bits (1 MiB) — still
  /// cheap to zero; one step further doubles per-function memory for no
  /// query-speed win the allocator can measure.
  static constexpr unsigned DenseNodeThreshold = 4096;

  InterferenceGraph() = default;
  /// \p Scratch, when given, donates recycled buffer capacity (adjacency
  /// lists, matrix words) instead of fresh allocations. A new graph has no
  /// edges and counts as finalized.
  explicit InterferenceGraph(unsigned NumNodes,
                             GraphRep Policy = GraphRep::Auto,
                             AllocationScratch *Scratch = nullptr);

  unsigned numNodes() const { return static_cast<unsigned>(Adj.size()); }

  /// Adds an undirected edge (idempotent, ignores self loops). The edge
  /// shows in the adjacency once the graph is finalized again.
  void addEdge(unsigned A, unsigned B);

  /// Whether A and B interfere; correct before and after finalize().
  bool interfere(unsigned A, unsigned B) const;

  /// Neighbours of \p Node in ascending order. Finalized graphs only.
  const std::vector<unsigned> &neighbors(unsigned Node) const {
    assert(Finalized && "adjacency read before finalize()");
    return Adj[Node];
  }
  /// Finalized graphs only.
  unsigned degree(unsigned Node) const {
    assert(Finalized && "degree read before finalize()");
    return static_cast<unsigned>(Adj[Node].size());
  }

  /// Total number of undirected edges. Finalized graphs only.
  size_t numEdges() const {
    assert(Finalized && "edge count read before finalize()");
    return NumEdges;
  }

  /// The policy this graph was created with (Auto/Dense/Sparse); the graph
  /// reconstructor propagates it so a forced representation survives spill
  /// rounds.
  GraphRep policy() const { return Policy; }
  /// The representation actually in use (never Auto).
  GraphRep activeRep() const {
    return Dense ? GraphRep::Dense : GraphRep::Sparse;
  }

  /// Makes the adjacency readable: dense graphs emit the lists from the
  /// matrix bits, sparse graphs sort and unique the appended lists. Either
  /// way every list ends up ascending and duplicate-free, identical across
  /// representations. Idempotent; addEdge after finalize re-opens the
  /// graph until the next finalize.
  void finalize();

  /// Approximate heap bytes held by the graph (adjacency capacity, matrix
  /// words) — feeds the alloc.peak_graph_bytes counter.
  size_t memoryBytes() const;

  /// Returns the internal buffers' capacity to \p S so the next graph built
  /// with that scratch starts from recycled storage. Leaves this graph
  /// empty.
  void recycle(AllocationScratch &S);

  /// Builds the graph for \p F from liveness and the live-range set.
  /// \p Scratch, when given, supplies the per-block scan buffers and
  /// recycled graph storage (one internal arena is used otherwise). The
  /// returned graph is finalized.
  static InterferenceGraph build(const Function &F, const Liveness &LV,
                                 const LiveRangeSet &LRS,
                                 AllocationScratch *Scratch = nullptr,
                                 GraphRep Policy = GraphRep::Auto);

  /// Adds every interference edge arising within \p Blocks (each scanned
  /// backward from its live-out set in \p LV) to \p IG, leaving it
  /// unfinalized. Idempotent once finalized; build() scans every block,
  /// the incremental graph reconstruction only the blocks spill code
  /// touched. A def visits only the live ranges of its own register bank.
  /// \p Scratch, when given, supplies the scan buffers instead of per-call
  /// allocations.
  static void scanBlocksForEdges(const Function &F,
                                 const std::vector<const BasicBlock *> &Blocks,
                                 const Liveness &LV, const LiveRangeSet &LRS,
                                 InterferenceGraph &IG,
                                 AllocationScratch *Scratch = nullptr);

private:
  size_t matrixIndex(unsigned A, unsigned B) const;

  std::vector<std::vector<unsigned>> Adj;
  BitVector Matrix; // dense: strict lower triangle
  size_t NumEdges = 0;
  GraphRep Policy = GraphRep::Auto;
  bool Dense = true;
  bool Finalized = true;
};

} // namespace ccra

#endif // CCRA_REGALLOC_INTERFERENCEGRAPH_H
