//===- ccrabench/ClosedLoop.h - One-caller closed loop ---------*- C++ -*-===//
///
/// \file
/// The loop cc-compile and large-fn share. A workload is a fixed set of
/// items (one operation each); the operation stream walks seeded
/// permutations of the whole set, so every run covers it evenly. The
/// untraced run times operations back to back for the requested seconds,
/// then runs every item once more as its reference (output verified) and
/// requires every timed operation to match its reference bit for bit.
/// The traced run makes whole passes over the set, each item run once
/// traced and once untraced (alternating which goes first), followed by
/// the workload's probes.
///
//===----------------------------------------------------------------------===//

#ifndef CCRABENCH_CLOSEDLOOP_H
#define CCRABENCH_CLOSEDLOOP_H

#include "Bench.h"
#include "Trace.h"

#include "regalloc/AllocationEngine.h"

#include <cstdint>

namespace ccrabench {

struct LayerReport;

struct Outcome {
  double Ms = 0;          ///< operation wall time
  double Total = 0;       ///< CostBreakdown::total() of the module
  std::uint64_t Hash = 0; ///< fingerprint of everything the op produced
  bool InputVerified = true;  ///< verifyModule on the operation's input
  bool VerifyClean = false;   ///< no FunctionAllocation::VerifyErrors
  bool OutputVerified = true; ///< verifyModule on the allocated module
};

class ClosedLoopWorkload {
public:
  virtual ~ClosedLoopWorkload() = default;

  virtual const char *name() const = 0;
  virtual unsigned numItems() const = 0;
  /// Builds the engines and runs the warm-up; timed as setup_s.
  virtual void setUp() = 0;
  /// One operation. \p T is null on the untraced path.
  virtual Outcome runOp(unsigned Item, Tracer *T, bool VerifyOutput) = 0;
  /// The engine \p Item allocates with (the traced run attaches telemetry).
  virtual ccra::AllocationEngine &engineFor(unsigned Item) = 0;
  /// Runs the per-function probes (Layers.h) once; returns the coalescer
  /// passes they saw.
  virtual unsigned probe(Tracer &T) = 0;

  virtual unsigned instructions(unsigned Item) const = 0;
  virtual unsigned functions(unsigned Item) const = 0;
  /// C source lines compiled by \p Item (0 without a frontend).
  virtual unsigned sourceLines(unsigned) const { return 0; }
  /// Measures further layers at the end of the traced run.
  virtual void traceMore(LayerReport &) {}
};

Result runClosedLoop(ClosedLoopWorkload &W, const RunArgs &Args);

} // namespace ccrabench

#endif // CCRABENCH_CLOSEDLOOP_H
