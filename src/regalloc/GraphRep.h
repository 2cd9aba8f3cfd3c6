//===- regalloc/GraphRep.h - Interference representation policy -*- C++ -*-===//
///
/// \file
/// The interference-graph representation policy, shared by AllocatorOptions
/// (which selects it) and InterferenceGraph (which implements it). A tiny
/// standalone header so the options layer does not pull in the graph.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_GRAPHREP_H
#define CCRA_REGALLOC_GRAPHREP_H

namespace ccra {

/// How InterferenceGraph stores the edge relation.
///
/// Dense keeps the classic triangular bit matrix: edges are set as bits
/// and the adjacency lists emitted from them at finalize; O(1) `interfere`,
/// but O(V^2) bits of memory and zeroing work. Sparse keeps only per-node
/// adjacency (both directions appended while building, each list sorted
/// and uniqued once at finalize, binary-search `interfere` after): O(V+E)
/// memory and build time. Auto picks Dense up to
/// InterferenceGraph::DenseNodeThreshold nodes and Sparse above it.
/// Allocation results are bit-identical under every policy.
enum class GraphRep {
  Auto,
  Dense,
  Sparse,
};

} // namespace ccra

#endif // CCRA_REGALLOC_GRAPHREP_H
