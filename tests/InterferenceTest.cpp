//===- tests/InterferenceTest.cpp - Interference graph unit tests ---------===//

#include "analysis/Frequency.h"
#include "analysis/Liveness.h"
#include "ir/IRBuilder.h"
#include "regalloc/AllocationScratch.h"
#include "regalloc/InterferenceGraph.h"
#include "regalloc/VRegClasses.h"
#include "workloads/FuzzGen.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <gtest/gtest.h>

using namespace ccra;

namespace {

struct GraphFixture {
  Module M{"m"};
  Function *F = nullptr;
  FrequencyInfo Freq;
  VRegClasses Classes;
  LiveRangeSet LRS;
  InterferenceGraph IG;

  void finalize() {
    M.setEntryFunction(F);
    Freq = FrequencyInfo::compute(M, FrequencyMode::Profile);
    Liveness LV = Liveness::compute(*F);
    Classes.grow(F->numVRegs());
    LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
    IG = InterferenceGraph::build(*F, LV, LRS);
  }

  bool interfere(VirtReg A, VirtReg B) {
    return IG.interfere(static_cast<unsigned>(LRS.rangeIdOf(A)),
                        static_cast<unsigned>(LRS.rangeIdOf(B)));
  }
  unsigned degreeOf(VirtReg A) {
    return IG.degree(static_cast<unsigned>(LRS.rangeIdOf(A)));
  }
};

TEST(InterferenceGraphTest, AddEdgeIsIdempotentAndSymmetric) {
  for (GraphRep Rep : {GraphRep::Dense, GraphRep::Sparse}) {
    SCOPED_TRACE(Rep == GraphRep::Dense ? "dense" : "sparse");
    InterferenceGraph IG(4, Rep);
    IG.addEdge(0, 2);
    IG.addEdge(2, 0);
    IG.addEdge(0, 0); // self edges ignored
    // interfere() answers before finalize()...
    EXPECT_TRUE(IG.interfere(0, 2));
    EXPECT_TRUE(IG.interfere(2, 0));
    EXPECT_FALSE(IG.interfere(0, 1));
    EXPECT_FALSE(IG.interfere(0, 0));
    // ...adjacency is read after it: one edge, seen from both ends.
    IG.finalize();
    EXPECT_EQ(IG.neighbors(0), (std::vector<unsigned>{2}));
    EXPECT_EQ(IG.neighbors(2), (std::vector<unsigned>{0}));
    EXPECT_EQ(IG.degree(0), 1u);
    EXPECT_EQ(IG.degree(2), 1u);
    EXPECT_EQ(IG.degree(1), 0u);
    EXPECT_EQ(IG.numEdges(), 1u);
  }
}

TEST(InterferenceGraphTest, OverlappingValuesConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildLoadImm(2);        // A live here -> conflict
  VirtReg S = B.buildBinary(Opcode::Add, A, C);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, C));
  EXPECT_FALSE(Fx.interfere(A, S)); // A dies where S is defined
}

TEST(InterferenceGraphTest, SequentialValuesDoNotConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg A2 = B.buildBinary(Opcode::Add, A, A); // A dies here
  VirtReg C = B.buildLoadImm(2);                 // born after A's death
  VirtReg S = B.buildBinary(Opcode::Add, A2, C);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(A, C));
}

TEST(InterferenceGraphTest, MoveSourceAndDestDoNotConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A); // Chaitin's special case
  B.buildRet(Copy);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, MoveRelatedValuesCanShareWhileEqual) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  VirtReg S = B.buildBinary(Opcode::Add, A, Copy); // A used after the copy
  B.buildRet(S);
  Fx.finalize();
  // Both live in [copy, S], but they hold the same value the whole time —
  // no interference, and coalescing may merge them.
  EXPECT_FALSE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, MoveDestConflictsOnceSourceIsRedefined) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg Copy = B.buildMove(A);
  B.buildBinaryInto(A, Opcode::Add, A, A); // A diverges from Copy
  VirtReg S = B.buildBinary(Opcode::Add, A, Copy);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, Copy));
}

TEST(InterferenceGraphTest, DifferentBanksNeverConflict) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg I = B.buildLoadImm(1);
  VirtReg Fl = B.buildFLoadImm(2);
  VirtReg Fl2 = B.buildBinary(Opcode::FAdd, Fl, Fl);
  VirtReg S = B.buildBinary(Opcode::Add, I, I);
  VirtReg C = B.buildFCmp(Fl2, Fl2);
  VirtReg R = B.buildBinary(Opcode::Add, S, C);
  B.buildRet(R);
  Fx.finalize();
  EXPECT_FALSE(Fx.interfere(I, Fl));
}

TEST(InterferenceGraphTest, MultipleCallResultsConflict) {
  GraphFixture Fx;
  Function *Leaf = Fx.M.createFunction("leaf");
  {
    IRBuilder B(*Leaf);
    B.startBlock("entry");
    B.buildRet();
  }
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  auto Results = B.buildCall(Leaf, {}, {RegBank::Int, RegBank::Int});
  VirtReg S = B.buildBinary(Opcode::Add, Results[0], Results[1]);
  B.buildRet(S);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(Results[0], Results[1]));
}

TEST(InterferenceGraphTest, LiveThroughBranchConflictsWithBothArms) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  VirtReg A = B.buildLoadImm(1);
  VirtReg C = B.buildCmp(A, A);
  BasicBlock *Then = Fx.F->createBlock("then");
  BasicBlock *Else = Fx.F->createBlock("else");
  BasicBlock *Join = Fx.F->createBlock("join");
  B.buildCondBr(C, Then, Else, 0.5);
  B.setInsertBlock(Then);
  VirtReg T = B.buildLoadImm(10);
  VirtReg T2 = B.buildBinary(Opcode::Add, T, T);
  (void)T2;
  B.buildBr(Join);
  B.setInsertBlock(Else);
  VirtReg E = B.buildLoadImm(20);
  VirtReg E2 = B.buildBinary(Opcode::Add, E, E);
  (void)E2;
  B.buildBr(Join);
  B.setInsertBlock(Join);
  B.buildRet(A);
  Fx.finalize();
  EXPECT_TRUE(Fx.interfere(A, T));
  EXPECT_TRUE(Fx.interfere(A, E));
  EXPECT_FALSE(Fx.interfere(T, E)); // disjoint arms
}

TEST(InterferenceGraphTest, DegreeMatchesAdjacency) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  std::vector<VirtReg> Pool;
  for (int I = 0; I < 5; ++I)
    Pool.push_back(B.buildLoadImm(I));
  VirtReg Acc = Pool[0];
  for (int I = 1; I < 5; ++I)
    Acc = B.buildBinary(Opcode::Add, Acc, Pool[static_cast<size_t>(I)]);
  B.buildRet(Acc);
  Fx.finalize();
  // Pool[4] coexists with all other pool values.
  EXPECT_GE(Fx.degreeOf(Pool[4]), 4u);
  for (unsigned Node = 0; Node < Fx.IG.numNodes(); ++Node) {
    const auto &Neighbors = Fx.IG.neighbors(Node);
    EXPECT_EQ(Fx.IG.degree(Node), Neighbors.size());
    for (unsigned Neighbor : Neighbors) {
      EXPECT_TRUE(Fx.IG.interfere(Node, Neighbor));
      const auto &Back = Fx.IG.neighbors(Neighbor);
      EXPECT_NE(std::find(Back.begin(), Back.end(), Node), Back.end());
    }
  }
}

TEST(InterferenceGraphTest, NumEdgesMatchesHandshakeCount) {
  GraphFixture Fx;
  Fx.F = Fx.M.createFunction("main");
  IRBuilder B(*Fx.F);
  B.startBlock("entry");
  std::vector<VirtReg> Pool;
  for (int I = 0; I < 8; ++I)
    Pool.push_back(B.buildLoadImm(I));
  VirtReg Acc = Pool[0];
  for (int I = 1; I < 8; ++I)
    Acc = B.buildBinary(Opcode::Add, Acc, Pool[static_cast<size_t>(I)]);
  B.buildRet(Acc);
  Fx.finalize();
  // The maintained edge counter must agree with the handshake lemma over
  // the adjacency lists it summarizes.
  std::size_t DegreeSum = 0;
  for (unsigned Node = 0; Node < Fx.IG.numNodes(); ++Node)
    DegreeSum += Fx.IG.degree(Node);
  EXPECT_GT(Fx.IG.numEdges(), 0u);
  EXPECT_EQ(Fx.IG.numEdges() * 2, DegreeSum);
}

// --- Dense / sparse representation cross-checks --------------------------

TEST(InterferenceGraphTest, DenseAndSparseAgreeOnRandomPrograms) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    RandomProgramParams P;
    P.Seed = Seed;
    std::unique_ptr<Module> M = generateRandomProgram(P);
    FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
    for (const auto &F : M->functions()) {
      if (F->isDeclaration())
        continue;
      SCOPED_TRACE(testing::Message()
                   << "seed=" << Seed << " fn=" << F->getName());
      Liveness LV = Liveness::compute(*F);
      VRegClasses Classes(F->numVRegs());
      LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
      InterferenceGraph Dense =
          InterferenceGraph::build(*F, LV, LRS, nullptr, GraphRep::Dense);
      InterferenceGraph Sparse =
          InterferenceGraph::build(*F, LV, LRS, nullptr, GraphRep::Sparse);
      ASSERT_EQ(Dense.activeRep(), GraphRep::Dense);
      ASSERT_EQ(Sparse.activeRep(), GraphRep::Sparse);
      ASSERT_EQ(Dense.numNodes(), Sparse.numNodes());
      EXPECT_EQ(Dense.numEdges(), Sparse.numEdges());
      EXPECT_GT(Dense.memoryBytes(), 0u);
      for (unsigned A = 0; A < Dense.numNodes(); ++A) {
        // finalize() canonicalizes adjacency, so the *order* must match
        // too — consumers like the steal fallback observe it.
        EXPECT_EQ(Dense.neighbors(A), Sparse.neighbors(A));
        for (unsigned B = 0; B < Dense.numNodes(); ++B)
          EXPECT_EQ(Dense.interfere(A, B), Sparse.interfere(A, B));
      }
    }
  }
}

TEST(InterferenceGraphTest, DenseAndSparseAgreeUnderDuplicateEdgeAttempts) {
  // HighDegree pools keep many ranges live across repeated definitions of
  // the same range, so the scan offers the same edge many times: dense
  // absorbs repeats in the matrix, sparse in finalize()'s sort-unique.
  FuzzGenParams P;
  P.Seed = 1;
  P.Profile = FuzzProfile::HighDegree;
  std::unique_ptr<Module> M = generateFuzzModule(P);
  FrequencyInfo Freq = FrequencyInfo::compute(*M, FrequencyMode::Profile);
  AllocationScratch S;
  unsigned MultiDefRanges = 0;
  for (const auto &F : M->functions()) {
    if (F->isDeclaration())
      continue;
    SCOPED_TRACE(F->getName());
    Liveness LV = Liveness::compute(*F);
    VRegClasses Classes(F->numVRegs());
    LiveRangeSet LRS = LiveRangeSet::build(*F, LV, Freq, Classes);
    std::vector<unsigned> DefsOfRange(LRS.numRanges(), 0);
    for (const auto &BB : F->blocks())
      for (const Instruction &I : BB->instructions())
        for (VirtReg D : I.Defs)
          ++DefsOfRange[static_cast<unsigned>(LRS.rangeIdOf(D))];
    for (unsigned Defs : DefsOfRange)
      MultiDefRanges += Defs > 1 ? 1 : 0;

    InterferenceGraph Dense =
        InterferenceGraph::build(*F, LV, LRS, &S, GraphRep::Dense);
    InterferenceGraph Sparse =
        InterferenceGraph::build(*F, LV, LRS, &S, GraphRep::Sparse);
    ASSERT_EQ(Dense.numNodes(), Sparse.numNodes());
    EXPECT_EQ(Dense.numEdges(), Sparse.numEdges());
    for (unsigned A = 0; A < Dense.numNodes(); ++A) {
      const std::vector<unsigned> &List = Sparse.neighbors(A);
      ASSERT_EQ(Dense.neighbors(A), List) << "node " << A;
      for (size_t I = 1; I < List.size(); ++I)
        EXPECT_LT(List[I - 1], List[I]) << "node " << A;
      for (unsigned B : List)
        EXPECT_TRUE(Dense.interfere(A, B) && Sparse.interfere(B, A));
    }
    Dense.recycle(S);
    Sparse.recycle(S);
  }
  // The module must exercise repeats: 124 of its 322 ranges have more
  // than one def.
  EXPECT_GE(MultiDefRanges, 100u);
}

TEST(InterferenceGraphTest, SparseQueriesWorkBeforeAndAfterFinalize) {
  InterferenceGraph IG(8, GraphRep::Sparse);
  ASSERT_EQ(IG.activeRep(), GraphRep::Sparse);
  IG.addEdge(0, 5);
  IG.addEdge(5, 2);
  IG.addEdge(7, 0);
  EXPECT_TRUE(IG.interfere(0, 5)); // linear scan of the appended lists
  EXPECT_FALSE(IG.interfere(1, 2));
  IG.finalize();
  EXPECT_TRUE(IG.interfere(5, 0)); // binary-search path
  EXPECT_FALSE(IG.interfere(3, 4));
  EXPECT_EQ(IG.neighbors(0), (std::vector<unsigned>{5, 7})); // canonical
  // addEdge after finalize re-opens the graph; the next finalize drops the
  // duplicate attempt.
  IG.addEdge(1, 0);
  EXPECT_TRUE(IG.interfere(0, 1));
  EXPECT_TRUE(IG.interfere(0, 5));
  IG.addEdge(0, 1);
  IG.finalize();
  EXPECT_EQ(IG.degree(1), 1u);
  EXPECT_EQ(IG.neighbors(0), (std::vector<unsigned>{1, 5, 7}));
  EXPECT_EQ(IG.numEdges(), 4u);
}

TEST(InterferenceGraphTest, AutoPolicyPicksRepresentationByNodeCount) {
  InterferenceGraph Small(16);
  EXPECT_EQ(Small.activeRep(), GraphRep::Dense);
  EXPECT_EQ(Small.policy(), GraphRep::Auto);
  // Constructor-only: the sparse representation allocates no V^2 state.
  InterferenceGraph Large(InterferenceGraph::DenseNodeThreshold + 1);
  EXPECT_EQ(Large.activeRep(), GraphRep::Sparse);
  EXPECT_EQ(Large.policy(), GraphRep::Auto);
  InterferenceGraph Forced(16, GraphRep::Sparse);
  EXPECT_EQ(Forced.activeRep(), GraphRep::Sparse);
}

TEST(InterferenceGraphTest, RecycledBuffersDoNotLeakEdges) {
  AllocationScratch S;
  for (GraphRep Rep : {GraphRep::Dense, GraphRep::Sparse}) {
    SCOPED_TRACE(Rep == GraphRep::Dense ? "dense" : "sparse");
    InterferenceGraph A(6, Rep, &S);
    A.addEdge(0, 1);
    A.addEdge(2, 3);
    A.addEdge(4, 5);
    A.finalize();
    A.recycle(S);
    InterferenceGraph B(4, Rep, &S);
    EXPECT_EQ(B.numEdges(), 0u);
    for (unsigned X = 0; X < 4; ++X) {
      EXPECT_EQ(B.degree(X), 0u);
      for (unsigned Y = 0; Y < 4; ++Y)
        EXPECT_FALSE(B.interfere(X, Y));
    }
    B.addEdge(1, 2);
    EXPECT_TRUE(B.interfere(2, 1));
    B.finalize();
    EXPECT_EQ(B.numEdges(), 1u);
    EXPECT_EQ(B.neighbors(1), (std::vector<unsigned>{2}));
    EXPECT_EQ(B.degree(0), 0u);
    B.recycle(S);
  }
  EXPECT_GT(S.reuses(), 0u);
}

} // namespace
