//===- tests/SupportTest.cpp - support library unit tests -----------------===//

#include "support/BitVector.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ccra;

namespace {

// --- BitVector -----------------------------------------------------------

TEST(BitVector, StartsEmpty) {
  BitVector BV(130);
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_TRUE(BV.none());
  EXPECT_FALSE(BV.any());
  EXPECT_EQ(BV.count(), 0u);
}

TEST(BitVector, SetResetTest) {
  BitVector BV(100);
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(99);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(63));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(99));
  EXPECT_FALSE(BV.test(1));
  EXPECT_EQ(BV.count(), 4u);
  BV.reset(63);
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
}

TEST(BitVector, InitialValueTrue) {
  BitVector BV(70, true);
  EXPECT_EQ(BV.count(), 70u);
  for (unsigned I = 0; I < 70; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
}

TEST(BitVector, ResizeGrowWithOnes) {
  BitVector BV(10);
  BV.set(3);
  BV.resize(130, true);
  EXPECT_TRUE(BV.test(3));
  EXPECT_FALSE(BV.test(4));
  for (unsigned I = 10; I < 130; ++I)
    EXPECT_TRUE(BV.test(I)) << I;
  EXPECT_EQ(BV.count(), 121u);
}

TEST(BitVector, ResizeShrinkClearsTail) {
  BitVector BV(128, true);
  BV.resize(65);
  EXPECT_EQ(BV.count(), 65u);
  BV.resize(128);
  EXPECT_EQ(BV.count(), 65u); // regrown bits are zero
}

TEST(BitVector, SetAllRespectsSize) {
  BitVector BV(67);
  BV.setAll();
  EXPECT_EQ(BV.count(), 67u);
}

TEST(BitVector, UnionReportsChange) {
  BitVector A(80), B(80);
  B.set(5);
  B.set(70);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // second union changes nothing
  EXPECT_TRUE(A.test(5));
  EXPECT_TRUE(A.test(70));
}

TEST(BitVector, IntersectAndSubtract) {
  BitVector A(64), B(64);
  A.set(1);
  A.set(2);
  A.set(3);
  B.set(2);
  B.set(3);
  B.set(4);
  BitVector I = A;
  I.intersectWith(B);
  EXPECT_EQ(I.count(), 2u);
  EXPECT_TRUE(I.test(2));
  EXPECT_TRUE(I.test(3));
  BitVector S = A;
  S.subtract(B);
  EXPECT_EQ(S.count(), 1u);
  EXPECT_TRUE(S.test(1));
}

TEST(BitVector, FindNextAndIteration) {
  BitVector BV(200);
  BV.set(0);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findFirst(), 0);
  EXPECT_EQ(BV.findNext(1), 64);
  EXPECT_EQ(BV.findNext(65), 199);
  EXPECT_EQ(BV.findNext(200), -1);

  std::vector<unsigned> Bits;
  for (unsigned Bit : BV)
    Bits.push_back(Bit);
  EXPECT_EQ(Bits, (std::vector<unsigned>{0, 64, 199}));

  std::vector<size_t> Visited;
  BV.forEachSetBit([&](size_t Bit) { Visited.push_back(Bit); });
  EXPECT_EQ(Visited, (std::vector<size_t>{0, 64, 199}));
}

TEST(BitVector, CollectSetBits) {
  BitVector BV(10);
  BV.set(2);
  BV.set(7);
  std::vector<unsigned> Out;
  BV.collectSetBits(Out);
  EXPECT_EQ(Out, (std::vector<unsigned>{2, 7}));
}

TEST(BitVector, Equality) {
  BitVector A(33), B(33);
  A.set(32);
  EXPECT_FALSE(A == B);
  B.set(32);
  EXPECT_TRUE(A == B);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(9);
  bool SawLow = false, SawHigh = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLow |= (V == -3);
    SawHigh |= (V == 3);
  }
  EXPECT_TRUE(SawLow);
  EXPECT_TRUE(SawHigh);
}

TEST(Rng, NextDoubleUnit) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, ForkIndependent) {
  Rng A(5);
  Rng B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(Rng, PickCoversElements) {
  Rng R(3);
  std::vector<int> Items = {10, 20, 30};
  bool Seen[3] = {false, false, false};
  for (int I = 0; I < 300; ++I)
    Seen[R.pick(Items) / 10 - 1] = true;
  EXPECT_TRUE(Seen[0] && Seen[1] && Seen[2]);
}

// --- Statistics -------------------------------------------------------------

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, GeometricMean) {
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Statistics, SafeRatio) {
  EXPECT_DOUBLE_EQ(safeRatio(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(safeRatio(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(safeRatio(5.0, 0.0, 99.0), 99.0);
}

// --- TextTable ---------------------------------------------------------------

TEST(TextTable, FormatDouble) {
  EXPECT_EQ(TextTable::formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::formatDouble(2.0, 1), "2.0");
}

TEST(TextTable, FormatCountSeparators) {
  EXPECT_EQ(TextTable::formatCount(0), "0");
  EXPECT_EQ(TextTable::formatCount(999), "999");
  EXPECT_EQ(TextTable::formatCount(1000), "1,000");
  EXPECT_EQ(TextTable::formatCount(120000000), "120,000,000");
  EXPECT_EQ(TextTable::formatCount(-54321), "-54,321");
}

TEST(TextTable, PrintAlignsColumns) {
  TextTable Table;
  Table.setHeader({"name", "value"});
  Table.addRow({"x", "1"});
  Table.addRow({"longer", "12345"});
  std::ostringstream OS;
  Table.print(OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("name"), std::string::npos);
  EXPECT_NE(Text.find("longer"), std::string::npos);
  EXPECT_NE(Text.find("-----"), std::string::npos);
  EXPECT_EQ(Table.numRows(), 2u);
}

TEST(TextTable, CsvOutput) {
  TextTable Table;
  Table.setHeader({"a", "b"});
  Table.addRow({"1", "2"});
  std::ostringstream OS;
  Table.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

} // namespace
