//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "analysis/AnalysisCache.h"
#include "core/BenefitKeys.h"
#include "core/EngineBuilder.h"
#include "fuzz/Reference.h"
#include "ir/Cloner.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "regalloc/CostAccounting.h"
#include "regalloc/VRegClasses.h"

#include <cmath>
#include <map>
#include <sstream>

using namespace ccra;

namespace {

/// Everything one leg's allocation produced, keyed so legs are comparable
/// (clones differ by pointer, so functions are keyed by name).
struct LegCapture {
  CostBreakdown Totals;
  std::map<std::string, FunctionAllocation> PerFunction;
  std::string AllocatedIR;
};

bool sameCosts(const CostBreakdown &A, const CostBreakdown &B) {
  return A.Spill == B.Spill && A.CallerSave == B.CallerSave &&
         A.CalleeSave == B.CalleeSave && A.Shuffle == B.Shuffle;
}

std::string costString(const CostBreakdown &C) {
  std::ostringstream OS;
  OS << "spill=" << C.Spill << " caller=" << C.CallerSave
     << " callee=" << C.CalleeSave << " shuffle=" << C.Shuffle;
  return OS.str();
}

/// First differing line of two printed modules, for compact reports.
std::string firstDiffLine(const std::string &A, const std::string &B) {
  std::istringstream SA(A), SB(B);
  std::string LA, LB;
  unsigned Line = 0;
  while (true) {
    ++Line;
    bool HasA = static_cast<bool>(std::getline(SA, LA));
    bool HasB = static_cast<bool>(std::getline(SB, LB));
    if (!HasA && !HasB)
      return "(identical?)";
    if (!HasA || !HasB || LA != LB)
      return "line " + std::to_string(Line) + ": baseline '" +
             (HasA ? LA : "<eof>") + "' vs '" + (HasB ? LB : "<eof>") + "'";
  }
}

/// Allocates a private clone of \p M under \p Leg, appending soundness
/// findings to \p Report as it goes.
LegCapture runLeg(const Module &M, const OracleLeg &Leg,
                  const OracleOptions &OO, ModuleAnalysisCache &Cache,
                  OracleReport &Report) {
  auto Fail = [&](const std::string &Oracle, const std::string &Detail) {
    Report.Failures.push_back({Leg.Name, Oracle, Detail});
  };

  std::unique_ptr<Module> Clone = cloneModule(M);
  FrequencyInfo Freq;
  AnalysisSeeds Seeds;
  const AnalysisSeeds *SeedsPtr = nullptr;
  if (Leg.SeedFromCache) {
    // The cache is keyed on the pristine source module; its frequencies and
    // baseline liveness transfer to any clone by position / block-id
    // identity (the same sharing contract the experiment grid relies on).
    Freq = Cache.frequencies(M, OO.Mode).remappedTo(M, *Clone);
    const auto &Fns = M.functions();
    for (unsigned I = 0; I < Fns.size(); ++I) {
      if (Fns[I]->isDeclaration())
        continue;
      Seeds.BaselineLiveness.push_back(&Cache.baselineLiveness(M, I));
    }
    SeedsPtr = &Seeds;
  } else {
    Freq = FrequencyInfo::compute(*Clone, OO.Mode);
  }

  AllocationEngine Engine =
      EngineBuilder(OO.Config).options(Leg.Opts).build();
  ModuleAllocationResult Result = Engine.allocateModule(*Clone, Freq, SeedsPtr);
  ++Report.LegsRun;

  LegCapture Cap;
  Cap.Totals = Result.Totals;
  CostBreakdown Measured;
  for (const auto &F : Clone->functions()) {
    if (F->isDeclaration())
      continue;
    const FunctionAllocation &FA = Result.PerFunction.at(F.get());
    // Soundness: the post-allocation verifier ran in report-only mode.
    for (const std::string &E : FA.VerifyErrors)
      Fail("verify", E);
    Measured += measureCostFromCode(*F, Freq);
    Cap.PerFunction[F->getName()] = FA;
  }

  // Soundness: allocated code is still well-formed IR.
  std::vector<std::string> IrErrors;
  if (!verifyModule(*Clone, &IrErrors))
    Fail("ir-verify", IrErrors.empty() ? "module verification failed"
                                       : IrErrors.front());

  // Soundness: costs are finite and non-negative.
  for (double C : {Result.Totals.Spill, Result.Totals.CallerSave,
                   Result.Totals.CalleeSave, Result.Totals.Shuffle})
    if (!std::isfinite(C) || C < 0.0) {
      Fail("cost-domain", "non-finite or negative cost component: " +
                              costString(Result.Totals));
      break;
    }

  // Soundness: §3 cost reconciliation — the overhead instructions actually
  // in the code weigh exactly what the assignment-derived analysis says
  // (requires materialized save/restore code, which every leg enables).
  auto Reconciles = [](double A, double B, double RelTol) {
    return std::abs(A - B) <= RelTol * (1.0 + std::abs(B));
  };
  if (!Reconciles(Measured.Spill, Result.Totals.Spill, 1e-6) ||
      !Reconciles(Measured.CallerSave, Result.Totals.CallerSave, 1e-6) ||
      !Reconciles(Measured.CalleeSave, Result.Totals.CalleeSave, 1e-6) ||
      !Reconciles(Measured.Shuffle, Result.Totals.Shuffle, 1e-9))
    Fail("cost-reconcile", "measured {" + costString(Measured) +
                               "} vs analytic {" +
                               costString(Result.Totals) + "}");

  std::ostringstream OS;
  printModule(*Clone, OS);
  Cap.AllocatedIR = OS.str();
  return Cap;
}

bool locationsEqual(const Location &A, const Location &B) {
  return A.isRegister() == B.isRegister() &&
         (!A.isRegister() || A.Reg == B.Reg);
}

void diffAgainstBaseline(const LegCapture &Base, const LegCapture &Leg,
                         const std::string &LegName, OracleReport &Report) {
  auto Fail = [&](const std::string &Oracle, const std::string &Detail) {
    Report.Failures.push_back({LegName, Oracle, Detail});
  };

  if (!sameCosts(Base.Totals, Leg.Totals))
    Fail("totals-diff", "baseline {" + costString(Base.Totals) + "} vs {" +
                            costString(Leg.Totals) + "}");

  for (const auto &[Name, BaseFA] : Base.PerFunction) {
    auto It = Leg.PerFunction.find(Name);
    if (It == Leg.PerFunction.end()) {
      Fail("function-set-diff", "@" + Name + " missing from leg result");
      continue;
    }
    const FunctionAllocation &FA = It->second;
    if (!sameCosts(BaseFA.Costs, FA.Costs))
      Fail("cost-diff", "@" + Name + ": baseline {" +
                            costString(BaseFA.Costs) + "} vs {" +
                            costString(FA.Costs) + "}");
    if (BaseFA.Rounds != FA.Rounds ||
        BaseFA.SpilledRanges != FA.SpilledRanges ||
        BaseFA.VoluntarySpills != FA.VoluntarySpills ||
        BaseFA.CoalescedMoves != FA.CoalescedMoves ||
        BaseFA.CalleeRegsPaid != FA.CalleeRegsPaid)
      Fail("counter-diff",
           "@" + Name + ": rounds " + std::to_string(BaseFA.Rounds) + "/" +
               std::to_string(FA.Rounds) + " spilled " +
               std::to_string(BaseFA.SpilledRanges) + "/" +
               std::to_string(FA.SpilledRanges) + " voluntary " +
               std::to_string(BaseFA.VoluntarySpills) + "/" +
               std::to_string(FA.VoluntarySpills) + " coalesced " +
               std::to_string(BaseFA.CoalescedMoves) + "/" +
               std::to_string(FA.CoalescedMoves) + " calleePaid " +
               std::to_string(BaseFA.CalleeRegsPaid) + "/" +
               std::to_string(FA.CalleeRegsPaid));
    if (BaseFA.VRegLocations.size() != FA.VRegLocations.size())
      Fail("location-diff", "@" + Name + " decided " +
                                std::to_string(FA.VRegLocations.size()) +
                                " vregs, baseline " +
                                std::to_string(BaseFA.VRegLocations.size()));
    for (const auto &[V, Loc] : BaseFA.VRegLocations) {
      auto LIt = FA.VRegLocations.find(V);
      if (LIt == FA.VRegLocations.end() ||
          !locationsEqual(LIt->second, Loc)) {
        Fail("location-diff", "@" + Name + " vreg " + std::to_string(V) +
                                  " placed differently");
        break;
      }
    }
  }
  for (const auto &[Name, FA] : Leg.PerFunction) {
    (void)FA;
    if (!Base.PerFunction.count(Name))
      Fail("function-set-diff", "@" + Name + " extra in leg result");
  }

  if (Base.AllocatedIR != Leg.AllocatedIR)
    Fail("ir-diff", firstDiffLine(Base.AllocatedIR, Leg.AllocatedIR));
}

/// The reference leg: on every function body, the production graph build,
/// simplifier and coalescer against fuzz/Reference.h and against each
/// other's representations.
void referenceLeg(const Module &M, const OracleOptions &OO,
                  OracleReport &Report) {
  auto Fail = [&](const std::string &Oracle, const Function &F,
                  const std::string &Detail) {
    Report.Failures.push_back(
        {"reference", Oracle, "@" + F.getName() + ": " + Detail});
  };
  ++Report.LegsRun;
  MachineDescription MD(OO.Config);

  // Graph representations and the simplifier, on the unallocated code.
  std::unique_ptr<Module> Clone = cloneModule(M);
  FrequencyInfo Freq = FrequencyInfo::compute(*Clone, OO.Mode);
  for (const auto &FPtr : Clone->functions()) {
    Function &F = *FPtr;
    if (F.isDeclaration())
      continue;
    Liveness LV = Liveness::compute(F);
    LiveRangeSet LRS =
        LiveRangeSet::build(F, LV, Freq, VRegClasses(F.numVRegs()));
    auto Context = [&](GraphRep Rep) {
      return AllocationContext{F,   MD,  Freq,
                               LV,  LRS, InterferenceGraph::build(
                                             F, LV, LRS, nullptr, Rep),
                               Freq.entryFrequency(F), {}};
    };
    AllocationContext Dense = Context(GraphRep::Dense);
    AllocationContext Auto = Context(GraphRep::Auto);
    InterferenceGraph Sparse =
        InterferenceGraph::build(F, LV, LRS, nullptr, GraphRep::Sparse);
    bool SameGraph = Dense.IG.numNodes() == Sparse.numNodes() &&
                     Dense.IG.numEdges() == Sparse.numEdges();
    for (unsigned N = 0; SameGraph && N < Sparse.numNodes(); ++N)
      SameGraph = Dense.IG.degree(N) == Sparse.degree(N) &&
                  Dense.IG.neighbors(N) == Sparse.neighbors(N);
    if (!SameGraph)
      Fail("graph-diff", F, "dense and sparse interference graphs differ");

    Simplifier::KeyFn Delta = [](const LiveRange &LR) {
      return benefitSimplificationKey(LR, BenefitKeyStrategy::Delta);
    };
    for (bool Optimistic : {false, true})
      for (const Simplifier::KeyFn &Key : {Simplifier::KeyFn(), Delta})
        if (Simplifier::run(Auto, Optimistic, Key) !=
            referenceSimplify(Dense, Optimistic, Key))
          Fail("simplify-diff", F,
               std::string("worklist and reference simplifier differ (") +
                   (Optimistic ? "optimistic" : "pessimistic") +
                   (Key ? ", delta key)" : ", no key)"));
  }

  // The coalescer, unseeded and seeded, against the rebuild-per-pass one.
  // Cloning keeps block ids and positions, so one FrequencyInfo serves
  // every clone through remappedTo.
  for (bool Aggressive : {false, true}) {
    std::unique_ptr<Module> Ref = cloneModule(M);
    std::unique_ptr<Module> Prod[2] = {cloneModule(M), cloneModule(M)};
    FrequencyInfo RefFreq = Freq.remappedTo(*Clone, *Ref);
    FrequencyInfo ProdFreq[2] = {Freq.remappedTo(*Clone, *Prod[0]),
                                 Freq.remappedTo(*Clone, *Prod[1])};
    for (std::size_t I = 0; I < Ref->functions().size(); ++I) {
      Function &RF = *Ref->functions()[I];
      if (RF.isDeclaration())
        continue;
      VRegClasses RefClasses(RF.numVRegs());
      CoalesceStats Want =
          referenceCoalesce(RF, RefClasses, MD, RefFreq, Aggressive);
      std::string WantIR;
      printFunction(RF, WantIR);
      for (bool Seed : {false, true}) {
        Function &F = *Prod[Seed]->functions()[I];
        VRegClasses Classes(F.numVRegs());
        CoalesceRequest Req;
        Req.Aggressive = Aggressive;
        Req.SeededLV = Seed;
        Liveness LV;
        if (Seed)
          LV = Liveness::compute(F);
        LiveRangeSet LRS;
        InterferenceGraph IG;
        CoalesceStats Got = Coalescer::run(F, Classes, MD, ProdFreq[Seed], LV,
                                           Req, LRS, IG);
        bool SameClasses = Classes.size() == RefClasses.size();
        for (unsigned V = 0; SameClasses && V < Classes.size(); ++V)
          SameClasses = Classes.find(VirtReg(V)) == RefClasses.find(VirtReg(V));
        std::string GotIR;
        printFunction(F, GotIR);
        if (Got.CoalescedMoves != Want.CoalescedMoves || !SameClasses ||
            GotIR != WantIR)
          Fail("coalesce-diff", F,
               std::string(Aggressive ? "aggressive" : "briggs") +
                   (Seed ? ", seeded: " : ", unseeded: ") + "moves " +
                   std::to_string(Got.CoalescedMoves) + " vs reference " +
                   std::to_string(Want.CoalescedMoves) + ", classes " +
                   (SameClasses ? "same" : "differ") + ", " +
                   firstDiffLine(WantIR, GotIR));
      }
    }
  }
}

} // namespace

std::vector<OracleLeg> ccra::oracleLattice(unsigned ParallelJobs,
                                           bool SoundnessSweep) {
  // Every leg materializes save/restore code (the reconciliation oracle
  // needs the overhead instructions in the code) and runs the allocation
  // verifier in report-only mode (a violation is a finding, not an abort).
  auto Common = [](AllocatorOptions O) {
    O.MaterializeSaveRestore = true;
    O.Verify = true;
    O.VerifyReportOnly = true;
    return O;
  };
  AllocatorOptions Base = Common(improvedOptions());
  Base.Jobs = 1;

  AllocatorOptions Parallel = Base;
  Parallel.Jobs = ParallelJobs;

  std::vector<OracleLeg> Legs = {
      {"baseline", Base, /*ExpectIdentical=*/false, false},
      {"jobs-parallel", Parallel, /*ExpectIdentical=*/true, false},
      {"liveness-seeded", Base, /*ExpectIdentical=*/true,
       /*SeedFromCache=*/true}};

  if (SoundnessSweep) {
    auto Sound = [&](const std::string &Name, AllocatorOptions O) {
      Legs.push_back({Name, Common(std::move(O)), false, false});
    };
    AllocatorOptions FirstUser = Base;
    FirstUser.CalleeModel = CalleeCostModel::FirstUserPays;
    Sound("callee-first-user-pays", FirstUser);
    Sound("allocator-base", baseChaitinOptions());
    Sound("allocator-optimistic", optimisticOptions());
    Sound("allocator-improved-opt", improvedOptimisticOptions());
    Sound("allocator-priority", priorityOptions());
    Sound("allocator-cbh", cbhOptions());
  }
  return Legs;
}

std::vector<std::string> ccra::OracleReport::lines() const {
  std::vector<std::string> Out;
  for (const OracleFailure &F : Failures)
    Out.push_back("[" + F.Leg + "] " + F.Oracle + ": " + F.Detail);
  return Out;
}

OracleReport ccra::runOracleLattice(const Module &M,
                                    const OracleOptions &Opts) {
  OracleReport Report;
  if (Opts.InjectedFault && Opts.InjectedFault(M))
    Report.Failures.push_back(
        {"injected-fault", "injected",
         "test hook reported a planted mismatch for this module"});

  ModuleAnalysisCache Cache;
  std::vector<OracleLeg> Legs =
      oracleLattice(Opts.ParallelJobs, Opts.SoundnessSweep);
  LegCapture Baseline;
  for (std::size_t I = 0; I < Legs.size(); ++I) {
    const OracleLeg &Leg = Legs[I];
    LegCapture Cap = runLeg(M, Leg, Opts, Cache, Report);
    if (I == 0)
      Baseline = std::move(Cap);
    else if (Leg.ExpectIdentical)
      diffAgainstBaseline(Baseline, Cap, Leg.Name, Report);
  }
  referenceLeg(M, Opts, Report);
  return Report;
}
