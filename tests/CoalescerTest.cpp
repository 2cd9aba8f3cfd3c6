//===- tests/CoalescerTest.cpp - Coalescing phase unit tests --------------===//

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "core/EngineBuilder.h"
#include "fuzz/Reference.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "regalloc/Coalescer.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/LiveRange.h"
#include "regalloc/VRegClasses.h"
#include "target/MachineDescription.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace ccra;

namespace {

/// Coalesces \p F unseeded, discarding the final live ranges and graph.
CoalesceStats coalesce(Function &F, VRegClasses &Classes,
                       const MachineDescription &MD, const FrequencyInfo &Freq,
                       Liveness &LV, bool Aggressive) {
  CoalesceRequest Req;
  Req.Aggressive = Aggressive;
  LiveRangeSet LRS;
  InterferenceGraph IG;
  return Coalescer::run(F, Classes, MD, Freq, LV, Req, LRS, IG);
}

unsigned countMoves(const Function &F) {
  unsigned Count = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      Count += I.isMove() ? 1 : 0;
  return Count;
}

struct CoalesceFixture {
  Module M{"m"};
  Function *F = nullptr;
  MachineDescription MD{RegisterConfig(4, 2, 2, 2)};

  CoalesceStats run(bool Aggressive = false) {
    M.setEntryFunction(F);
    EXPECT_TRUE(verifyModule(M, nullptr));
    FrequencyInfo Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
    Classes.grow(F->numVRegs());
    Liveness LV;
    CoalesceStats Stats = coalesce(*F, Classes, MD, Freq, LV, Aggressive);
    EXPECT_TRUE(verifyModule(M, nullptr));
    return Stats;
  }

  VRegClasses Classes;
};

TEST(CoalescerTest, MergesSimpleCopy) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A); // A dies here
  B.buildRet(Copy);
  CoalesceStats Stats = Fx.run();
  EXPECT_EQ(Stats.CoalescedMoves, 1u);
  EXPECT_TRUE(Fx.Classes.sameClass(A, Copy));
  EXPECT_EQ(countMoves(*Fx.F), 0u); // the copy was deleted
}

TEST(CoalescerTest, MergesCopyChains) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C1 = B.buildMove(A);
  VirtReg C2 = B.buildMove(C1);
  VirtReg C3 = B.buildMove(C2);
  B.buildRet(C3);
  CoalesceStats Stats = Fx.run();
  EXPECT_EQ(Stats.CoalescedMoves, 3u);
  EXPECT_TRUE(Fx.Classes.sameClass(A, C3));
  EXPECT_EQ(countMoves(*Fx.F), 0u);
}

TEST(CoalescerTest, KeepsInterferingCopy) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  B.buildBinaryInto(A, Opcode::Add, A, A); // A redefined while Copy lives
  VirtReg S = B.buildBinary(Opcode::Add, A, Copy);
  B.buildRet(S);
  CoalesceStats Stats = Fx.run();
  EXPECT_EQ(Stats.CoalescedMoves, 0u);
  EXPECT_FALSE(Fx.Classes.sameClass(A, Copy));
  EXPECT_EQ(countMoves(*Fx.F), 1u); // the copy must remain
}

TEST(CoalescerTest, ConservativeTestBlocksRiskyMergeAggressiveTakesIt) {
  // The copy's source and destination together conflict with more than N
  // significant-degree neighbors, so Briggs-conservative coalescing must
  // refuse — merging could turn a colorable graph into a spilling one.
  auto Build = [](Module &M) {
    Function *F = M.createFunction("main");
    IRBuilder B(*F);
    B.startBlock("entry");
    // N = 2 int registers. Build 3 long-lived values (significant degree)
    // overlapping both sides of a copy.
    std::vector<VirtReg> Frame;
    for (int I = 0; I < 3; ++I)
      Frame.push_back(B.buildLoadImm(I));
    VirtReg A = B.buildLoadImm(10);
    VirtReg Acc = B.buildBinary(Opcode::Add, A, Frame[0]);
    VirtReg Copy = B.buildMove(Acc);
    VirtReg S = B.buildBinary(Opcode::Add, Copy, Frame[1]);
    VirtReg S2 = B.buildBinary(Opcode::Add, S, Frame[2]);
    VirtReg S3 = B.buildBinary(Opcode::Add, S2, Frame[0]);
    VirtReg S4 = B.buildBinary(Opcode::Add, S3, Frame[1]);
    VirtReg S5 = B.buildBinary(Opcode::Add, S4, Frame[2]);
    B.buildRet(S5);
    M.setEntryFunction(F);
    return F;
  };

  Module M1("m1");
  Function *F1 = Build(M1);
  FrequencyInfo Freq1 = FrequencyInfo::compute(M1, FrequencyMode::Profile);
  VRegClasses Classes1(F1->numVRegs());
  Liveness LV1;
  MachineDescription Small(RegisterConfig(2, 2, 0, 0));
  CoalesceStats Conservative =
      coalesce(*F1, Classes1, Small, Freq1, LV1, false);

  Module M2("m2");
  Function *F2 = Build(M2);
  FrequencyInfo Freq2 = FrequencyInfo::compute(M2, FrequencyMode::Profile);
  VRegClasses Classes2(F2->numVRegs());
  Liveness LV2;
  CoalesceStats Aggressive =
      coalesce(*F2, Classes2, Small, Freq2, LV2, true);

  EXPECT_EQ(Conservative.CoalescedMoves, 0u);
  EXPECT_EQ(Aggressive.CoalescedMoves, 1u);
}

TEST(CoalescerTest, DeletesSelfCopyFromPreMergedClasses) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  B.buildRet(Copy);
  // Pre-merge the classes (as a previous round would have done): the move
  // is now a self copy and must be deleted without being counted again.
  Fx.Classes.grow(Fx.F->numVRegs());
  Fx.Classes.merge(A, Copy);
  CoalesceStats Stats = Fx.run();
  EXPECT_EQ(Stats.CoalescedMoves, 0u);
  EXPECT_EQ(countMoves(*Fx.F), 0u);
}

TEST(CoalescerTest, LivenessReturnedMatchesFinalCode) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  B.buildRet(Copy);
  Fx.M.setEntryFunction(Fx.F);
  FrequencyInfo Freq = FrequencyInfo::compute(Fx.M, FrequencyMode::Profile);
  Fx.Classes.grow(Fx.F->numVRegs());
  Liveness LV;
  coalesce(*Fx.F, Fx.Classes, Fx.MD, Freq, LV, false);
  Liveness Fresh = Liveness::compute(*Fx.F);
  for (const auto &BB : Fx.F->blocks()) {
    EXPECT_TRUE(LV.liveIn(*BB) == Fresh.liveIn(*BB));
    EXPECT_TRUE(LV.liveOut(*BB) == Fresh.liveOut(*BB));
  }
}

TEST(CoalescerTest, MaintainedLivenessMatchesFreshCompute) {
  // The coalescer renames/patches the liveness solution across passes
  // instead of recomputing it; the maintained solution must equal a fresh
  // dataflow run on the final code, for every combination of aggressive
  // coalescing and baseline seeding, across random programs.
  for (uint64_t Seed : {3u, 7u, 19u, 42u}) {
    RandomProgramParams Params;
    Params.Seed = Seed;
    Params.NumFunctions = 4;
    Params.RegionsPerFunction = 5;
    Params.IntValues = 10;
    Params.FloatValues = 5;
    for (bool Aggressive : {false, true})
      for (bool Seeded : {false, true}) {
        std::unique_ptr<Module> M = generateRandomProgram(Params);
        FrequencyInfo Freq =
            FrequencyInfo::compute(*M, FrequencyMode::Profile);
        MachineDescription MD{RegisterConfig(6, 4, 2, 2)};
        for (const auto &FPtr : M->functions()) {
          if (FPtr->isDeclaration())
            continue;
          Function &F = *FPtr;
          VRegClasses Classes(F.numVRegs());
          Liveness LV;
          CoalesceRequest Req;
          Req.Aggressive = Aggressive;
          if (Seeded) {
            LV = Liveness::compute(F);
            Req.SeededLV = true;
          }
          LiveRangeSet LRS;
          InterferenceGraph IG;
          CoalesceStats Stats =
              Coalescer::run(F, Classes, MD, Freq, LV, Req, LRS, IG);
          EXPECT_TRUE(LV == Liveness::compute(F))
              << "seed " << Seed << " fn " << F.getName() << " aggressive "
              << Aggressive << " seeded " << Seeded;
          // The contract behind "at most one full compute per round":
          // exactly zero when seeded, exactly one otherwise.
          EXPECT_EQ(Stats.LivenessComputes, Seeded ? 0u : 1u);
          EXPECT_EQ(Stats.Passes,
                    Stats.LivenessComputes + Stats.IncrementalLVUpdates);
        }
      }
  }
}

TEST(CoalescerTest, MergeDecisionsMatchReferenceCoalescer) {
  // Same merges, same final code and the same pass count as the reference
  // coalescer, which recomputes liveness, ranges and graph every pass.
  for (uint64_t Seed : {5u, 11u})
    for (bool Aggressive : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << Seed << " aggressive " << Aggressive);
      RandomProgramParams Params;
      Params.Seed = Seed;
      Params.NumFunctions = 3;
      Params.RegionsPerFunction = 4;
      Params.IntValues = 8;
      Params.FloatValues = 4;
      std::unique_ptr<Module> A = generateRandomProgram(Params);
      std::unique_ptr<Module> B = generateRandomProgram(Params);
      MachineDescription MD{RegisterConfig(6, 4, 2, 2)};
      FrequencyInfo FreqA = FrequencyInfo::compute(*A, FrequencyMode::Profile);
      FrequencyInfo FreqB = FrequencyInfo::compute(*B, FrequencyMode::Profile);
      for (std::size_t I = 0; I < A->functions().size(); ++I) {
        Function &FA = *A->functions()[I];
        Function &FB = *B->functions()[I];
        if (FA.isDeclaration())
          continue;
        VRegClasses ClassesA(FA.numVRegs()), ClassesB(FB.numVRegs());
        Liveness LVA;
        CoalesceStats SA =
            coalesce(FA, ClassesA, MD, FreqA, LVA, Aggressive);
        CoalesceStats SB =
            referenceCoalesce(FB, ClassesB, MD, FreqB, Aggressive);
        EXPECT_EQ(SA.CoalescedMoves, SB.CoalescedMoves);
        EXPECT_EQ(SA.Passes, SB.Passes);
        EXPECT_EQ(countMoves(FA), countMoves(FB));
        std::string TextA, TextB;
        printFunction(FA, TextA);
        printFunction(FB, TextB);
        EXPECT_EQ(TextA, TextB);
        for (unsigned V = 0; V < FA.numVRegs(); ++V)
          EXPECT_EQ(ClassesA.find(VirtReg(V)), ClassesB.find(VirtReg(V)));
      }
    }
}

TEST(CoalescerTest, FloatMovesCoalesceToo) {
  CoalesceFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildFLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  VirtReg S = B.buildBinary(Opcode::FAdd, Copy, Copy);
  VirtReg R = B.buildCvtFloatToInt(S);
  B.buildRet(R);
  CoalesceStats Stats = Fx.run();
  EXPECT_EQ(Stats.CoalescedMoves, 1u);
}

TEST(CoalescerTest, AggressiveModeKeepsBriggsTestForReloadTemps) {
  // Aggressive coalescing once merged a reload temporary into a long
  // class; the unspillable result could then be neither colored nor
  // spilled, and allocation aborted. Copies touching a NoSpill range must
  // still pass the Briggs test.
  FuzzGenParams P;
  P.Seed = 2;
  P.Profile = FuzzProfile::BankMix;
  P.SizeScale = 1;
  std::unique_ptr<Module> M = generateFuzzModule(P);
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Static);
  AllocatorOptions Opts = improvedOptions();
  Opts.AggressiveCoalescing = true;
  Opts.VerifyReportOnly = true;
  AllocationEngine Engine =
      EngineBuilder(RegisterConfig(4, 2, 2, 1)).options(Opts).build();
  ModuleAllocationResult R = Engine.allocateModule(*M, Freq);
  ASSERT_FALSE(R.PerFunction.empty());
  for (const auto &[F, FA] : R.PerFunction)
    EXPECT_TRUE(FA.VerifyErrors.empty()) << F->getName();
}

} // namespace
