//===- fuzz/Reference.h - Reference allocator phases ------------*- C++ -*-===//
///
/// \file
/// Textbook implementations of two allocator phases, kept only as oracles
/// for the production ones: the oracle lattice's `reference` leg
/// (fuzz/Oracle.h), the unit tests and bench/perf_scaling diff against
/// them. The allocator never links this library.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_FUZZ_REFERENCE_H
#define CCRA_FUZZ_REFERENCE_H

#include "regalloc/Coalescer.h"
#include "regalloc/Simplifier.h"

namespace ccra {

/// Chaitin simplification that rescans every node at every step, O(V^2).
/// Simplifier::run must return the same stack, spill set and optimistic
/// flags.
SimplifyResult referenceSimplify(const AllocationContext &Ctx,
                                 bool Optimistic,
                                 const Simplifier::KeyFn &Key = nullptr);

/// Coalesces \p F to a fixpoint, recomputing liveness, live ranges and a
/// dense graph on every pass, with Coalescer::run's Briggs, aggressive and
/// NoSpill rules. Merged copies are deleted from \p F and their classes
/// merged in \p Classes; Coalescer::run must merge the same classes,
/// leave the same code and count the same CoalescedMoves and Passes.
CoalesceStats referenceCoalesce(Function &F, VRegClasses &Classes,
                                const MachineDescription &MD,
                                const FrequencyInfo &Freq, bool Aggressive);

} // namespace ccra

#endif // CCRA_FUZZ_REFERENCE_H
