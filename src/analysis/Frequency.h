//===- analysis/Frequency.h - Execution frequency analysis ------*- C++ -*-===//
///
/// \file
/// Computes the weighted execution frequencies that drive every cost in the
/// paper: weighted reference counts, call-site frequencies, and function
/// entry frequencies. Two modes mirror the paper's two frequency sources:
///
/// - Static: compiler estimates. Branches split 50/50 and loop back edges
///   are taken with probability 0.9 ("loops iterate about ten times"),
///   regardless of the profile-truth probabilities on the CFG edges.
/// - Profile: the recorded (true) edge probabilities, i.e. what an
///   instrumented profiling run would measure on these workloads.
///
/// Within a function, block frequencies are relative to one function entry,
/// from one linear solve per function; only Static mode builds dominators
/// and loops, since only its heuristic reads back edges. Interprocedural
/// propagation over the call graph then scales them by the function's
/// invocation count (the program entry function runs once). It collects
/// each callee's incoming call sites once, then iterates to a fixpoint in
/// which a pass costs O(#call sites), capped at #functions + 8 passes.
/// Recursive programs stop at that cap with cap-dependent counts.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_ANALYSIS_FREQUENCY_H
#define CCRA_ANALYSIS_FREQUENCY_H

#include "ir/Module.h"

#include <unordered_map>
#include <vector>

namespace ccra {

enum class FrequencyMode { Static, Profile };

const char *frequencyModeName(FrequencyMode Mode);

/// Absolute execution frequencies for one whole module.
class FrequencyInfo {
public:
  /// Computes frequencies for every function in \p M.
  /// \p EntryInvocations scales everything (the entry function's count).
  static FrequencyInfo compute(const Module &M, FrequencyMode Mode,
                               double EntryInvocations = 1.0);

  /// Returns a copy of this FrequencyInfo rekeyed onto \p Target, a clone
  /// of \p Source (the module this info was computed for). cloneModule
  /// preserves function order, block ids, and edge probabilities, so the
  /// clone's frequencies are the *same doubles* — pairing functions by
  /// position transfers them without re-running the per-function linear
  /// solves or the interprocedural iteration. This is what lets a shared
  /// analysis cache serve every grid point despite each point allocating
  /// its own clone.
  FrequencyInfo remappedTo(const Module &Source, const Module &Target) const;

  /// Expected number of executions of \p BB over the whole program run.
  double blockFrequency(const BasicBlock &BB) const;

  /// Expected number of invocations of \p F.
  double entryFrequency(const Function &F) const;

  FrequencyMode mode() const { return Mode; }

private:
  struct FunctionFrequencies {
    double EntryFreq = 0.0;
    std::vector<double> RelativeBlockFreq; // by block id, entry == 1
  };

  FrequencyMode Mode = FrequencyMode::Static;
  std::unordered_map<const Function *, FunctionFrequencies> PerFunction;
};

/// Computes the per-block frequencies of \p F relative to a single entry
/// (entry block == 1). Exposed separately for unit testing.
std::vector<double> computeRelativeBlockFrequencies(const Function &F,
                                                    FrequencyMode Mode);

} // namespace ccra

#endif // CCRA_ANALYSIS_FREQUENCY_H
