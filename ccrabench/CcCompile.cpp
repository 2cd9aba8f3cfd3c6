//===- ccrabench/CcCompile.cpp - The cc-compile workload ------------------===//
//
// One operation is what `ccra_cc --alloc` does for one file: compile an
// examples/corpus_c program, verify the module, compute frequencies,
// allocate (Jobs=1) and print the result. The items are the whole product
// of the 20 programs x 17 paper register configurations x 5 allocator
// families x 2 frequency modes (3400 operations), walked in seeded order,
// so alloc_overhead_cycles is the exact sum over the product.
//
//===----------------------------------------------------------------------===//

#include "ClosedLoop.h"
#include "Layers.h"
#include "Workloads.h"

#include "core/EngineBuilder.h"
#include "frontend/Frontend.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Hash.h"

using namespace ccra;

namespace ccrabench {

namespace {

constexpr FrequencyMode Modes[] = {FrequencyMode::Static,
                                   FrequencyMode::Profile};
constexpr unsigned NumModes = 2;

class CcCompile final : public ClosedLoopWorkload {
public:
  explicit CcCompile(const RunArgs &Args)
      : Args(Args), Corpus(loadCorpus(Args.Root)),
        Configs(standardConfigSweep()) {
    for (const CorpusProgram &P : Corpus) {
      CompileResult CR = Frontend::compile(P.Source, P.Name);
      check(CR.ok(), "cc-compile: " + P.Name + " does not compile");
      Instructions.push_back(countInstructions(*CR.M));
      Functions.push_back(countBodies(*CR.M));
      Lowered.push_back(std::move(CR.M));
    }
  }

  const char *name() const override { return "cc-compile"; }

  unsigned numItems() const override {
    return static_cast<unsigned>(Corpus.size() * Configs.size() *
                                 allocatorFamilies().size() * NumModes);
  }

  /// Builds one engine per (config, family), then compiles every program
  /// once to warm the code paths the window uses.
  void setUp() override {
    Engines.clear();
    for (const RegisterConfig &C : Configs)
      for (const Family &F : allocatorFamilies())
        Engines.push_back(EngineBuilder(C).options(F.Options).jobs(1).build());
    for (unsigned P = 0; P < Corpus.size(); ++P)
      runOp(P, nullptr, false);
  }

  AllocationEngine &engineFor(unsigned Item) override {
    return Engines[Item / Corpus.size() / NumModes];
  }

  Outcome runOp(unsigned Item, Tracer *T, bool VerifyOutput) override {
    const CorpusProgram &P = Corpus[program(Item)];
    FrequencyMode Mode = Modes[Item / Corpus.size() % NumModes];
    AllocationEngine &Engine = engineFor(Item);

    Outcome O;
    Clock::time_point T0 = Clock::now();
    if (T)
      T->beginOp(Item);
    CompileResult CR;
    {
      SpanScope S(T, "frontend.compile");
      CR = Frontend::compile(P.Source, P.Name);
    }
    check(CR.ok(), "cc-compile: " + P.Name + " does not compile");
    {
      SpanScope S(T, "ir.verify");
      O.InputVerified = verifyModule(*CR.M, nullptr);
    }
    FrequencyInfo Freq;
    {
      SpanScope S(T, "analysis.freq");
      Freq = FrequencyInfo::compute(*CR.M, Mode);
    }
    ModuleAllocationResult R;
    {
      SpanScope S(T, "regalloc.alloc");
      R = Engine.allocateModule(*CR.M, Freq);
    }
    std::string Out;
    {
      SpanScope S(T, "ir.print");
      printModule(*CR.M, Out);
    }
    if (T)
      T->endOp();
    O.Ms = msBetween(T0, Clock::now());

    O.Total = R.Totals.total();
    O.Hash = fnv1a64(Out, fingerprint(*CR.M, R));
    O.VerifyClean = noVerifyErrors(R);
    if (VerifyOutput)
      O.OutputVerified = verifyModule(*CR.M, nullptr);
    return O;
  }

  /// Probes every program once at (9,7,3,3) with the improved allocator.
  unsigned probe(Tracer &T) override {
    unsigned Passes = 0;
    AllocationEngine Engine =
        EngineBuilder(RegisterConfig(9, 7, 3, 3)).jobs(1).build();
    for (const auto &M : Lowered)
      Passes += probeFunctions(*M, FrequencyMode::Profile, Engine, T);
    return Passes;
  }

  unsigned instructions(unsigned Item) const override {
    return Instructions[program(Item)];
  }
  unsigned functions(unsigned Item) const override {
    return Functions[program(Item)];
  }
  unsigned sourceLines(unsigned Item) const override {
    return Corpus[program(Item)].Lines;
  }

  /// The service layer rides on this workload's traced run: serving
  /// latency on a shared virtual machine is dominated by hypervisor wake-up
  /// delays, too noisy to gate end to end (README.md), so the serving path
  /// is measured here, per layer, for half the window.
  void traceMore(LayerReport &L) override {
    addServingLayers(Args, Args.Seconds / 2, L);
  }

private:
  unsigned program(unsigned Item) const {
    return Item % static_cast<unsigned>(Corpus.size());
  }

  RunArgs Args;
  std::vector<CorpusProgram> Corpus;
  std::vector<RegisterConfig> Configs;
  std::vector<std::unique_ptr<Module>> Lowered; ///< probe inputs
  std::vector<unsigned> Instructions;           ///< per program
  std::vector<unsigned> Functions;              ///< bodies per program
  std::vector<AllocationEngine> Engines;        ///< config x family
};

} // namespace

Result runCcCompile(const RunArgs &Args) {
  CcCompile W(Args);
  return runClosedLoop(W, Args);
}

} // namespace ccrabench
