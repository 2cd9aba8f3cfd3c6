//===- ccrabench/LargeFn.cpp - The large-fn workload ----------------------===//
//
// One operation allocates one large FuzzGen module (frequencies +
// allocateModule, Jobs=1, improved allocator at (9,7,3,3)) on a fresh
// clone; the clone is made before the operation's clock starts.
//
// The module pool is pinned: four adversarial profiles, each at three size
// scales a factor of two apart, chosen so one allocation takes from about
// ten to a few hundred milliseconds. FuzzGen's own seed changes a module's
// function count several-fold and its frequency-weighted cost by tens of
// orders of magnitude (call chains multiply entry frequencies), so a
// seed-drawn pool would make every large-fn figure a property of the draw.
// The run seed orders the operations.
//
//===----------------------------------------------------------------------===//

#include "ClosedLoop.h"
#include "Layers.h"
#include "Workloads.h"

#include "core/EngineBuilder.h"
#include "ir/Cloner.h"
#include "ir/Verifier.h"
#include "workloads/FuzzGen.h"

#include <optional>

using namespace ccra;

namespace ccrabench {

namespace {

const FuzzGenParams Pool[] = {
    {3, FuzzProfile::HighDegree, 8},
    {3, FuzzProfile::HighDegree, 16},
    {3, FuzzProfile::HighDegree, 32},
    {1, FuzzProfile::CallDense, 4},
    {1, FuzzProfile::CallDense, 8},
    {1, FuzzProfile::CallDense, 16},
    {1, FuzzProfile::PathologicalLive, 16},
    {1, FuzzProfile::PathologicalLive, 32},
    {1, FuzzProfile::PathologicalLive, 64},
    {1, FuzzProfile::BankMix, 8},
    {1, FuzzProfile::BankMix, 16},
    {1, FuzzProfile::BankMix, 32},
};

constexpr FrequencyMode Mode = FrequencyMode::Profile;

class LargeFn final : public ClosedLoopWorkload {
public:
  LargeFn() {
    for (const FuzzGenParams &P : Pool) {
      std::unique_ptr<Module> M = generateFuzzModule(P);
      Instructions.push_back(countInstructions(*M));
      Functions.push_back(countBodies(*M));
      Modules.push_back(std::move(M));
    }
    for (unsigned I = 1; I < Modules.size(); ++I)
      if (Instructions[I] < Instructions[Smallest])
        Smallest = I;
  }

  const char *name() const override { return "large-fn"; }
  unsigned numItems() const override {
    return static_cast<unsigned>(Modules.size());
  }

  /// Builds the engine and allocates the smallest module once.
  void setUp() override {
    Engine.emplace(EngineBuilder(RegisterConfig(9, 7, 3, 3)).jobs(1).build());
    runOp(Smallest, nullptr, false);
  }

  AllocationEngine &engineFor(unsigned) override { return *Engine; }

  Outcome runOp(unsigned Item, Tracer *T, bool VerifyOutput) override {
    std::unique_ptr<Module> Clone = cloneModule(*Modules[Item]);

    Outcome O;
    Clock::time_point T0 = Clock::now();
    if (T)
      T->beginOp(Item);
    FrequencyInfo Freq;
    {
      SpanScope S(T, "analysis.freq");
      Freq = FrequencyInfo::compute(*Clone, Mode);
    }
    ModuleAllocationResult R;
    {
      SpanScope S(T, "regalloc.alloc");
      R = Engine->allocateModule(*Clone, Freq);
    }
    if (T)
      T->endOp();
    O.Ms = msBetween(T0, Clock::now());

    O.Total = R.Totals.total();
    O.Hash = fingerprint(*Clone, R);
    O.VerifyClean = noVerifyErrors(R);
    if (VerifyOutput) {
      O.InputVerified = verifyModule(*Modules[Item], nullptr);
      O.OutputVerified = verifyModule(*Clone, nullptr);
    }
    return O;
  }

  unsigned probe(Tracer &T) override {
    unsigned Passes = 0;
    for (const auto &M : Modules)
      Passes += probeFunctions(*M, Mode, *Engine, T);
    return Passes;
  }

  unsigned instructions(unsigned Item) const override {
    return Instructions[Item];
  }
  unsigned functions(unsigned Item) const override { return Functions[Item]; }

private:
  std::vector<std::unique_ptr<Module>> Modules;
  std::vector<unsigned> Instructions;
  std::vector<unsigned> Functions;
  unsigned Smallest = 0;
  std::optional<AllocationEngine> Engine;
};

} // namespace

Result runLargeFn(const RunArgs &Args) {
  LargeFn W;
  return runClosedLoop(W, Args);
}

} // namespace ccrabench
