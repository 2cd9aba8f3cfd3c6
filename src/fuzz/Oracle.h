//===- fuzz/Oracle.h - Differential allocation-soundness oracles -*- C++ -*-===//
///
/// \file
/// The oracle lattice: one fuzz input (a verified module) is allocated once
/// per *leg* — a named allocator configuration — and the results are
/// cross-checked three ways:
///
/// - **Equivalence oracles.** Parallel module allocation and cache-seeded
///   baseline liveness document a bit-identical-results contract. Each
///   such leg is diffed against the baseline leg: cost breakdowns and
///   per-function counters must match exactly, every vreg must land in the
///   same location, and the printed allocated IR must be byte-identical.
///
/// - **Reference oracles.** The `reference` leg allocates nothing: on every
///   function body it holds the production phases to the implementations
///   they replaced (fuzz/Reference.h). Dense and sparse interference
///   graphs must agree edge for edge, Simplifier::run must match
///   referenceSimplify, and Coalescer::run (seeded and unseeded) must
///   match referenceCoalesce in classes, code and coalesced-move count.
///
/// - **Soundness oracles.** Every allocating leg — including
///   configurations with legitimately different results, like the two §4
///   callee-save cost models and the other allocator kinds — must produce
///   an allocation that passes verifyAllocation (run in report-only mode
///   so a violation is a finding, not an abort), keeps the module
///   IR-verified, yields finite non-negative costs, and reconciles: the
///   §3 cost measured off the materialized overhead instructions must
///   equal the analytically derived cost.
///
/// See DESIGN.md "The oracle lattice" for how a new optimization joins it.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_FUZZ_ORACLE_H
#define CCRA_FUZZ_ORACLE_H

#include "analysis/Frequency.h"
#include "regalloc/AllocatorOptions.h"
#include "target/MachineDescription.h"

#include <functional>
#include <string>
#include <vector>

namespace ccra {

class Module;

/// One point of the lattice: a named configuration plus the contract it is
/// held to (identical-to-baseline, or soundness-only).
struct OracleLeg {
  std::string Name;
  AllocatorOptions Opts;
  bool ExpectIdentical = false; ///< diff against the baseline leg
  bool SeedFromCache = false;   ///< seed round-1 liveness from an analysis
                                ///< cache computed on the source module
};

/// The allocating legs, baseline first (the reference leg is not an
/// allocator configuration; runOracleLattice adds it). \p ParallelJobs
/// sizes the parallel leg; \p SoundnessSweep includes the
/// different-results legs (callee cost models, the other allocator kinds).
std::vector<OracleLeg> oracleLattice(unsigned ParallelJobs = 4,
                                     bool SoundnessSweep = true);

struct OracleOptions {
  RegisterConfig Config = RegisterConfig(8, 6, 2, 2);
  FrequencyMode Mode = FrequencyMode::Profile;
  unsigned ParallelJobs = 4;
  /// Include the soundness-only legs (other cost models / allocators).
  bool SoundnessSweep = true;
  /// Test-only fault injection: when set and true for the input module, the
  /// lattice reports a synthetic "injected-fault" mismatch. Exists so the
  /// shrinker's convergence is itself testable (tests/FuzzTest.cpp).
  std::function<bool(const Module &)> InjectedFault;
};

struct OracleFailure {
  std::string Leg;    ///< which lattice leg (or "injected-fault")
  std::string Oracle; ///< which check tripped ("ir-diff", "verify", ...)
  std::string Detail;
};

struct OracleReport {
  std::vector<OracleFailure> Failures;
  unsigned LegsRun = 0;
  bool ok() const { return Failures.empty(); }
  /// One line per failure, for logs and reproducer headers.
  std::vector<std::string> lines() const;
};

/// Runs \p M (never mutated: every leg allocates a private clone) through
/// the lattice under \p Opts.
OracleReport runOracleLattice(const Module &M, const OracleOptions &Opts);

} // namespace ccra

#endif // CCRA_FUZZ_ORACLE_H
