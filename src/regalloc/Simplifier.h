//===- regalloc/Simplifier.h - Simplification / color ordering --*- C++ -*-===//
///
/// \file
/// Chaitin simplification: repeatedly remove an unconstrained node (degree
/// < N for its bank) and push it onto the color stack; when simplification
/// blocks, pick a spill candidate by the classic spillCost/degree heuristic.
///
/// The removal order among unconstrained nodes is pluggable: base Chaitin
/// does not care (KeyFn null, lowest id wins), the paper's benefit-driven
/// simplification (§5) supplies a key so that live ranges with a large
/// wrong-register penalty end up near the top of the stack.
///
/// Optimistic (Briggs) mode pushes the blocked pick instead of spilling it;
/// the spill decision is deferred to color assignment (§8).
///
/// The implementation is worklist-driven. Unconstrained nodes live in a
/// (key, index) min-heap over keys cached once per run; constrained nodes
/// in a dense set. Deactivating a node decrements neighbor degrees and
/// migrates a neighbor that drops below its color limit from the
/// constrained set to the heap, so a full pass costs O((V + E) log V)
/// instead of the classic rescan's O(V^2).
///
/// Every tie resolves to the lowest node index (the heap orders by
/// (key, index); the blocked-path scans compare (metric, index)), keys are
/// pure functions of the LiveRange so caching cannot change them, and a
/// node transitions constrained -> unconstrained at most once because
/// degrees only decrease while color limits are fixed. The O(V^2) rescan
/// loop lives on as fuzz/Reference.h's referenceSimplify; the oracle
/// lattice, tests/SimplifierTest.cpp and bench/perf_scaling hold run() to
/// it byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_REGALLOC_SIMPLIFIER_H
#define CCRA_REGALLOC_SIMPLIFIER_H

#include "regalloc/AllocationContext.h"

#include <functional>
#include <vector>

namespace ccra {

struct SimplifyResult {
  /// Color stack, bottom first; color assignment pops from the back.
  std::vector<unsigned> Stack;
  /// Nodes removed as spills (empty in optimistic mode).
  std::vector<unsigned> SpilledNodes;
  /// Per live-range flag: pushed while simplification was blocked, so a
  /// color is not guaranteed.
  std::vector<bool> PushedOptimistically;

  bool operator==(const SimplifyResult &Other) const = default;
};

class Simplifier {
public:
  /// Ordering key among unconstrained nodes; the *smallest* key is removed
  /// first (ends up lowest on the stack). Null = id order.
  using KeyFn = std::function<double(const LiveRange &)>;

  static SimplifyResult run(const AllocationContext &Ctx, bool Optimistic,
                            const KeyFn &Key = nullptr);
};

} // namespace ccra

#endif // CCRA_REGALLOC_SIMPLIFIER_H
