//===- tests/AnalysisTest.cpp - CFG/dominator/loop/liveness/frequency -----===//

#include "analysis/AnalysisCache.h"
#include "analysis/CfgTraversal.h"
#include "analysis/Dominators.h"
#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "frontend/Frontend.h"
#include "ir/Cloner.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#ifndef CCRA_SOURCE_DIR
#define CCRA_SOURCE_DIR "."
#endif

using namespace ccra;

namespace {

/// entry -> (then | else) -> join -> ret, with probability \p ThenProb.
struct Diamond {
  Module M{"m"};
  Function *F;
  BasicBlock *Entry, *Then, *Else, *Join;
  VirtReg A, B2, ThenVal;

  explicit Diamond(double ThenProb = 0.5) {
    F = M.createFunction("f");
    IRBuilder B(*F);
    Entry = B.startBlock("entry");
    A = B.buildLoadImm(1);
    B2 = B.buildLoadImm(2);
    VirtReg C = B.buildCmp(A, B2);
    Then = F->createBlock("then");
    Else = F->createBlock("else");
    Join = F->createBlock("join");
    B.buildCondBr(C, Then, Else, ThenProb);
    B.setInsertBlock(Then);
    ThenVal = B.buildBinary(Opcode::Add, A, B2);
    B.buildBr(Join);
    B.setInsertBlock(Else);
    B.buildBr(Join);
    B.setInsertBlock(Join);
    VirtReg R = B.buildBinary(Opcode::Add, A, A);
    B.buildRet(R);
    EXPECT_TRUE(verifyFunction(*F, nullptr));
  }
};

/// entry -> header (self loop with back probability P) -> exit.
struct SingleLoop {
  Module M{"m"};
  Function *F;
  BasicBlock *Entry, *Header, *Exit;
  VirtReg LiveThrough;

  explicit SingleLoop(double BackProb = 0.9) {
    F = M.createFunction("f");
    IRBuilder B(*F);
    Entry = B.startBlock("entry");
    LiveThrough = B.buildLoadImm(5);
    Header = F->createBlock("header");
    B.buildBr(Header);
    B.setInsertBlock(Header);
    VirtReg C = B.buildCmp(LiveThrough, LiveThrough);
    Exit = F->createBlock("exit");
    B.buildCondBr(C, Header, Exit, BackProb);
    B.setInsertBlock(Exit);
    B.buildRet(LiveThrough);
    EXPECT_TRUE(verifyFunction(*F, nullptr));
  }
};

// --- RPO ---------------------------------------------------------------------

TEST(CfgTraversal, DiamondRpo) {
  Diamond D;
  auto Rpo = computeReversePostOrder(*D.F);
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), D.Entry);
  EXPECT_EQ(Rpo.back(), D.Join);
  EXPECT_TRUE(allBlocksReachable(*D.F));
}

TEST(CfgTraversal, UnreachableBlockDetected) {
  Diamond D;
  BasicBlock *Orphan = D.F->createBlock("orphan");
  Orphan->append(Instruction(Opcode::Ret));
  EXPECT_FALSE(allBlocksReachable(*D.F));
}

// --- Dominators ----------------------------------------------------------------

TEST(Dominators, Diamond) {
  Diamond D;
  DominatorTree DT = DominatorTree::compute(*D.F);
  EXPECT_EQ(DT.immediateDominator(D.Entry), nullptr);
  EXPECT_EQ(DT.immediateDominator(D.Then), D.Entry);
  EXPECT_EQ(DT.immediateDominator(D.Else), D.Entry);
  EXPECT_EQ(DT.immediateDominator(D.Join), D.Entry);
  EXPECT_TRUE(DT.dominates(D.Entry, D.Join));
  EXPECT_TRUE(DT.dominates(D.Join, D.Join));
  EXPECT_FALSE(DT.dominates(D.Then, D.Join));
}

TEST(Dominators, Loop) {
  SingleLoop L;
  DominatorTree DT = DominatorTree::compute(*L.F);
  EXPECT_TRUE(DT.dominates(L.Header, L.Exit));
  EXPECT_TRUE(DT.dominates(L.Entry, L.Header));
  EXPECT_FALSE(DT.dominates(L.Exit, L.Header));
}

// --- Loops ------------------------------------------------------------------------

TEST(LoopInfoTest, DetectsSelfLoop) {
  SingleLoop L;
  DominatorTree DT = DominatorTree::compute(*L.F);
  LoopInfo LI = LoopInfo::compute(*L.F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Header, L.Header);
  EXPECT_EQ(LI.loopDepth(L.Header), 1u);
  EXPECT_EQ(LI.loopDepth(L.Entry), 0u);
  EXPECT_EQ(LI.loopDepth(L.Exit), 0u);
  EXPECT_TRUE(LI.isBackEdge(L.Header, L.Header));
  EXPECT_FALSE(LI.isBackEdge(L.Entry, L.Header));
  EXPECT_TRUE(LI.isLoopHeader(L.Header));
}

TEST(LoopInfoTest, NestedLoopDepths) {
  // entry -> H1 -> H2(self) -> T1 -> (H1 | exit)
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(1);
  BasicBlock *H1 = F.createBlock("h1");
  B.buildBr(H1);
  B.setInsertBlock(H1);
  BasicBlock *H2 = F.createBlock("h2");
  B.buildBr(H2);
  B.setInsertBlock(H2);
  VirtReg C2 = B.buildCmp(V, V);
  BasicBlock *T1 = F.createBlock("t1");
  B.buildCondBr(C2, H2, T1, 0.9);
  B.setInsertBlock(T1);
  VirtReg C1 = B.buildCmp(V, V);
  BasicBlock *Exit = F.createBlock("exit");
  B.buildCondBr(C1, H1, Exit, 0.9);
  B.setInsertBlock(Exit);
  B.buildRet(V);
  ASSERT_TRUE(verifyFunction(F, nullptr));

  DominatorTree DT = DominatorTree::compute(F);
  LoopInfo LI = LoopInfo::compute(F, DT);
  EXPECT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.loopDepth(H2), 2u);
  EXPECT_EQ(LI.loopDepth(H1), 1u);
  EXPECT_EQ(LI.loopDepth(T1), 1u);
  EXPECT_EQ(LI.loopDepth(Exit), 0u);
}

// --- Liveness -------------------------------------------------------------------

TEST(LivenessTest, StraightLine) {
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildBinary(Opcode::Add, A, A);
  B.buildRet(C);
  Liveness LV = Liveness::compute(F);
  // Nothing is live across block boundaries in a single-block function.
  EXPECT_TRUE(LV.liveOut(*F.getEntryBlock()).none());
  EXPECT_TRUE(LV.liveIn(*F.getEntryBlock()).none());
  EXPECT_FALSE(LV.liveIntoEntry(F, A));
}

TEST(LivenessTest, AcrossDiamond) {
  Diamond D;
  Liveness LV = Liveness::compute(*D.F);
  // A is used in the join block, so it is live out of entry and live
  // through both arms.
  EXPECT_TRUE(LV.liveOut(*D.Entry).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Then).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Else).test(D.A.Id));
  EXPECT_TRUE(LV.liveIn(*D.Join).test(D.A.Id));
  // B2 is last used in then; it is not live into join.
  EXPECT_FALSE(LV.liveIn(*D.Join).test(D.B2.Id));
  // ThenVal is dead (never used).
  EXPECT_FALSE(LV.liveOut(*D.Then).test(D.ThenVal.Id));
}

TEST(LivenessTest, LiveThroughLoop) {
  SingleLoop L;
  Liveness LV = Liveness::compute(*L.F);
  EXPECT_TRUE(LV.liveIn(*L.Header).test(L.LiveThrough.Id));
  EXPECT_TRUE(LV.liveOut(*L.Header).test(L.LiveThrough.Id));
  EXPECT_TRUE(LV.liveIn(*L.Exit).test(L.LiveThrough.Id));
}

// --- Frequencies -------------------------------------------------------------------

TEST(Frequency, DiamondSplit) {
  Diamond D(0.2);
  auto Freq = computeRelativeBlockFrequencies(*D.F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[D.Entry->getId()], 1.0, 1e-9);
  EXPECT_NEAR(Freq[D.Then->getId()], 0.2, 1e-9);
  EXPECT_NEAR(Freq[D.Else->getId()], 0.8, 1e-9);
  EXPECT_NEAR(Freq[D.Join->getId()], 1.0, 1e-9);
}

TEST(Frequency, StaticIgnoresRecordedProbabilities) {
  Diamond D(0.01); // true probabilities are extreme...
  auto Freq = computeRelativeBlockFrequencies(*D.F, FrequencyMode::Static);
  EXPECT_NEAR(Freq[D.Then->getId()], 0.5, 1e-9); // ...static says 50/50
  EXPECT_NEAR(Freq[D.Else->getId()], 0.5, 1e-9);
}

TEST(Frequency, LoopTripCount) {
  SingleLoop L(0.95); // trip count 20
  auto Freq = computeRelativeBlockFrequencies(*L.F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[L.Header->getId()], 20.0, 1e-6);
  EXPECT_NEAR(Freq[L.Exit->getId()], 1.0, 1e-9);
}

TEST(Frequency, StaticLoopHeuristicIsTenTrips) {
  SingleLoop L(0.999); // truth: 1000 trips
  auto Freq = computeRelativeBlockFrequencies(*L.F, FrequencyMode::Static);
  EXPECT_NEAR(Freq[L.Header->getId()], 10.0, 1e-6);
}

TEST(Frequency, DeeplyNestedLoopsSolveExactly) {
  // Three nested trip-100 loops: the inner header runs 1e6 times. (This is
  // the case fixpoint iteration cannot solve in reasonable time; the exact
  // linear solve must.)
  Module M("m");
  Function &F = *M.createFunction("f");
  IRBuilder B(F);
  B.startBlock("entry");
  VirtReg V = B.buildLoadImm(1);
  std::vector<BasicBlock *> Headers, Exits;
  for (int I = 0; I < 3; ++I) {
    BasicBlock *H = F.createBlock();
    B.buildBr(H);
    B.setInsertBlock(H);
    Headers.push_back(H);
    Exits.push_back(F.createBlock());
  }
  for (int I = 2; I >= 0; --I) {
    VirtReg C = B.buildCmp(V, V);
    B.buildCondBr(C, Headers[static_cast<size_t>(I)],
                  Exits[static_cast<size_t>(I)], 0.99);
    B.setInsertBlock(Exits[static_cast<size_t>(I)]);
  }
  B.buildRet(V);
  ASSERT_TRUE(verifyFunction(F, nullptr));
  auto Freq = computeRelativeBlockFrequencies(F, FrequencyMode::Profile);
  EXPECT_NEAR(Freq[Headers[2]->getId()], 1e6, 1.0);
}

TEST(Frequency, InterproceduralInvocationCounts) {
  Module M("m");
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Function *MainF = M.createFunction("main");
  {
    IRBuilder B(*MainF);
    B.startBlock("entry");
    VirtReg V = B.buildLoadImm(1);
    BasicBlock *H = MainF->createBlock("loop");
    B.buildBr(H);
    B.setInsertBlock(H);
    B.buildCall(Leaf, {});
    B.buildCall(Leaf, {}); // two call sites per iteration
    VirtReg C = B.buildCmp(V, V);
    BasicBlock *Exit = MainF->createBlock("exit");
    B.buildCondBr(C, H, Exit, 0.9); // ten iterations
    B.setInsertBlock(Exit);
    B.buildRet(V);
  }
  M.setEntryFunction(MainF);
  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
  EXPECT_NEAR(Freq.entryFrequency(*MainF), 1.0, 1e-9);
  EXPECT_NEAR(Freq.entryFrequency(*Leaf), 20.0, 1e-6);
}

TEST(Frequency, EntryInvocationsScale) {
  SingleLoop L(0.9);
  L.M.setEntryFunction(L.F);
  FrequencyInfo Freq =
      FrequencyInfo::compute(L.M, FrequencyMode::Profile, 50.0);
  EXPECT_NEAR(Freq.entryFrequency(*L.F), 50.0, 1e-9);
  EXPECT_NEAR(Freq.blockFrequency(*L.Header), 500.0, 1e-4);
}

TEST(Frequency, ModeNames) {
  EXPECT_STREQ(frequencyModeName(FrequencyMode::Static), "static");
  EXPECT_STREQ(frequencyModeName(FrequencyMode::Profile), "dynamic");
}

// The grid path computes frequencies once on the source module and rekeys
// them onto each private clone. The remap must be a pure re-keying: every
// block and entry frequency bit-identical (same doubles, not just close)
// to a fresh computation on the clone.
TEST(Frequency, RemappedToCloneIsBitIdentical) {
  RandomProgramParams Params;
  Params.Seed = 11;
  Params.NumFunctions = 4;
  auto M = generateRandomProgram(Params);
  auto Clone = cloneModule(*M);

  for (FrequencyMode Mode : {FrequencyMode::Static, FrequencyMode::Profile}) {
    FrequencyInfo Source = FrequencyInfo::compute(*M, Mode);
    FrequencyInfo Remapped = Source.remappedTo(*M, *Clone);
    FrequencyInfo Fresh = FrequencyInfo::compute(*Clone, Mode);
    for (const auto &F : Clone->functions()) {
      if (F->isDeclaration())
        continue;
      EXPECT_EQ(Remapped.entryFrequency(*F), Fresh.entryFrequency(*F));
      for (const auto &BB : F->blocks())
        EXPECT_EQ(Remapped.blockFrequency(*BB), Fresh.blockFrequency(*BB));
    }
  }
}

// Reference propagation: the original fixpoint, which rescans every
// instruction of every function for calls to each callee in every pass.
// FrequencyInfo::compute walks per-callee call-site lists instead; the two
// must agree on every double, since every cost is weighted by them.
struct ReferenceFrequencies {
  std::unordered_map<const Function *, std::vector<double>> Relative;
  std::unordered_map<const Function *, double> Entry;
};

ReferenceFrequencies referencePropagation(const Module &M, FrequencyMode Mode,
                                          double EntryInvocations) {
  ReferenceFrequencies Ref;
  for (const auto &F : M.functions()) {
    Ref.Relative[F.get()] = computeRelativeBlockFrequencies(*F, Mode);
    Ref.Entry[F.get()] = 0.0;
  }
  const Function *Entry = M.getEntryFunction();
  const int MaxPasses = static_cast<int>(M.functions().size()) + 8;
  for (int Pass = 0; Pass < MaxPasses; ++Pass) {
    bool Changed = false;
    for (const auto &G : M.functions()) {
      double NewInv = (G.get() == Entry) ? EntryInvocations : 0.0;
      for (const auto &F : M.functions()) {
        if (F->isDeclaration())
          continue;
        const std::vector<double> &Rel = Ref.Relative[F.get()];
        for (const auto &BB : F->blocks())
          for (const Instruction &I : BB->instructions())
            if (I.isCall() && I.Callee == G.get())
              NewInv += Rel[BB->getId()] * Ref.Entry[F.get()];
      }
      double &Old = Ref.Entry[G.get()];
      if (std::abs(NewInv - Old) > 1e-9 * std::max(1.0, std::abs(NewInv))) {
        Old = NewInv;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Ref;
}

/// Checks compute() against the reference bit for bit: every entry
/// frequency (declarations included) and every block frequency, in both
/// modes, for one and for fifty program invocations.
void expectMatchesReference(const Module &M, const std::string &Label) {
  SCOPED_TRACE(Label);
  for (FrequencyMode Mode : {FrequencyMode::Static, FrequencyMode::Profile})
    for (double Invocations : {1.0, 50.0}) {
      SCOPED_TRACE(std::string(frequencyModeName(Mode)) + " x" +
                   std::to_string(Invocations));
      FrequencyInfo Freq = FrequencyInfo::compute(M, Mode, Invocations);
      ReferenceFrequencies Ref = referencePropagation(M, Mode, Invocations);
      for (const auto &F : M.functions()) {
        double EntryFreq = Ref.Entry[F.get()];
        EXPECT_EQ(Freq.entryFrequency(*F), EntryFreq) << F->getName();
        const std::vector<double> &Rel = Ref.Relative[F.get()];
        for (const auto &BB : F->blocks())
          EXPECT_EQ(Freq.blockFrequency(*BB), Rel[BB->getId()] * EntryFreq)
              << F->getName() << " block " << BB->getId();
      }
    }
}

TEST(FrequencyPropagation, MatchesReferenceOnCallDenseFuzzModules) {
  for (unsigned Scale : {4u, 8u, 16u}) {
    FuzzGenParams Params;
    Params.Seed = 1;
    Params.Profile = FuzzProfile::CallDense;
    Params.SizeScale = Scale;
    auto M = generateFuzzModule(Params);
    expectMatchesReference(*M, "call-dense scale " + std::to_string(Scale));
  }
}

// The corpus includes recursive programs (quick_sort, fib, ackermann, ...)
// whose fixpoint never converges and stops at the pass cap, so this also
// pins the pass order and the cap.
TEST(FrequencyPropagation, MatchesReferenceOnCCorpus) {
  std::vector<std::string> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(CCRA_SOURCE_DIR) + "/examples/corpus_c"))
    if (Entry.path().extension() == ".c")
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_EQ(Paths.size(), 20u);
  for (const std::string &Path : Paths) {
    CompileResult R = Frontend::compileFile(Path);
    ASSERT_TRUE(R.ok()) << Path;
    expectMatchesReference(*R.M, Path);
  }
}

TEST(FrequencyPropagation, MatchesReferenceOnRandomPrograms) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    RandomProgramParams Params;
    Params.Seed = Seed;
    Params.NumFunctions = 2 + Seed % 5;
    Params.CallProbability = 0.6;
    auto M = generateRandomProgram(Params);
    expectMatchesReference(*M, "random seed " + std::to_string(Seed));
  }
}

// Call sites the per-callee lists must still count exactly as the rescan
// did: a call to a declaration, two calls to one callee from one block
// (summed in instruction order), and a call in an unreachable block
// (relative frequency 0).
TEST(FrequencyPropagation, MatchesReferenceOnEdgeCaseCallSites) {
  Module M("m");
  Function *Ext = M.createFunction("ext"); // declaration: no blocks
  Function *Leaf = M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildCall(Ext, {});
    B.buildRet();
  }
  Function *MainF = M.createFunction("main");
  {
    IRBuilder B(*MainF);
    B.startBlock("entry");
    VirtReg V = B.buildLoadImm(1);
    BasicBlock *H = MainF->createBlock("loop");
    B.buildBr(H);
    B.setInsertBlock(H);
    B.buildCall(Leaf, {});
    B.buildCall(Leaf, {});
    B.buildCall(Ext, {});
    VirtReg C = B.buildCmp(V, V);
    BasicBlock *Exit = MainF->createBlock("exit");
    B.buildCondBr(C, H, Exit, 0.7);
    B.setInsertBlock(Exit);
    B.buildRet(V);
    BasicBlock *Dead = MainF->createBlock("dead");
    B.setInsertBlock(Dead);
    B.buildCall(Leaf, {});
    B.buildBr(Exit);
  }
  M.setEntryFunction(MainF);
  ASSERT_TRUE(Ext->isDeclaration());
  expectMatchesReference(M, "edge-case call sites");

  FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Static);
  EXPECT_EQ(Freq.entryFrequency(*MainF), 1.0);
  EXPECT_GT(Freq.entryFrequency(*Leaf), 0.0);
  EXPECT_GT(Freq.entryFrequency(*Ext), Freq.entryFrequency(*Leaf));
}

// One compute per key, hits afterwards, and the cached baseline liveness
// is exact for the same-index function of a pristine clone (cloneModule
// preserves block ids and vreg numbering).
TEST(AnalysisCache, SharesFrequenciesAndBaselineLiveness) {
  RandomProgramParams Params;
  Params.Seed = 23;
  Params.NumFunctions = 3;
  auto M = generateRandomProgram(Params);
  auto Clone = cloneModule(*M);

  ModuleAnalysisCache Cache;
  bool Hit = true;
  const FrequencyInfo &F1 =
      Cache.frequencies(*M, FrequencyMode::Profile, &Hit);
  EXPECT_FALSE(Hit);
  const FrequencyInfo &F2 =
      Cache.frequencies(*M, FrequencyMode::Profile, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(&F1, &F2); // one shared object, not a copy per caller

  // A different mode is a different key.
  Cache.frequencies(*M, FrequencyMode::Static, &Hit);
  EXPECT_FALSE(Hit);

  for (unsigned I = 0; I < M->functions().size(); ++I) {
    const Function &Fn = *M->functions()[I];
    if (Fn.isDeclaration())
      continue;
    const Liveness &Baseline = Cache.baselineLiveness(*M, I, &Hit);
    EXPECT_FALSE(Hit);
    EXPECT_TRUE(Baseline == Liveness::compute(Fn));
    // Exact for the pristine clone's same-index function too.
    EXPECT_TRUE(Baseline == Liveness::compute(*Clone->functions()[I]));
    Cache.baselineLiveness(*M, I, &Hit);
    EXPECT_TRUE(Hit);
  }

  ModuleAnalysisCache::Stats Stats = Cache.stats();
  EXPECT_EQ(Stats.FrequencyHits, 1u);
  EXPECT_EQ(Stats.FrequencyMisses, 2u);
  EXPECT_GT(Stats.LivenessHits, 0u);
  EXPECT_EQ(Stats.LivenessHits, Stats.LivenessMisses);
  EXPECT_EQ(Stats.hits(), Stats.FrequencyHits + Stats.LivenessHits);
  EXPECT_EQ(Stats.misses(), Stats.FrequencyMisses + Stats.LivenessMisses);
}

} // namespace
