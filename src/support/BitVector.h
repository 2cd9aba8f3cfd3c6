//===- support/BitVector.h - Fixed-capacity dynamic bit vector --*- C++ -*-===//
//
// Part of the ccra project: a reproduction of "Call-Cost Directed Register
// Allocation" (Lueh & Gross, PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A word-packed bit vector used for dataflow sets (liveness) and
/// interference bit matrices. Mirrors the subset of llvm::BitVector the
/// allocator needs: set/reset/test, bulk union/intersect/subtract, iteration
/// over set bits, and population count.
///
/// Indices are size_t: the triangular interference bit matrix stores
/// V*(V-1)/2 bits, which exceeds 2^32 once V reaches ~93k nodes, so the
/// index space must be wider than the node count's.
///
//===----------------------------------------------------------------------===//

#ifndef CCRA_SUPPORT_BITVECTOR_H
#define CCRA_SUPPORT_BITVECTOR_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccra {

/// A resizable vector of bits with word-granularity bulk operations.
class BitVector {
public:
  BitVector() = default;

  /// Creates a bit vector holding \p NumBits bits, all initialized to
  /// \p InitialValue.
  explicit BitVector(size_t NumBits, bool InitialValue = false) {
    resize(NumBits, InitialValue);
  }

  /// Returns the number of bits tracked by this vector.
  size_t size() const { return NumBits; }

  /// Returns true if no bit is set.
  bool none() const;

  /// Returns true if at least one bit is set.
  bool any() const { return !none(); }

  /// Returns the number of set bits.
  size_t count() const;

  /// Grows or shrinks the vector to \p NewSize bits; new bits take
  /// \p Value.
  void resize(size_t NewSize, bool Value = false);

  /// Sets bit \p Idx to one.
  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] |= wordMask(Idx);
  }

  /// Clears bit \p Idx.
  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / BitsPerWord] &= ~wordMask(Idx);
  }

  /// Clears every bit.
  void resetAll();

  /// Sets every bit.
  void setAll();

  /// Returns the value of bit \p Idx.
  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / BitsPerWord] & wordMask(Idx)) != 0;
  }

  bool operator[](size_t Idx) const { return test(Idx); }

  /// Bitwise-or of \p Other into this vector. Returns true if any bit of
  /// this vector changed (used to detect dataflow fixpoints). Sizes must
  /// match.
  bool unionWith(const BitVector &Other);

  /// Bitwise-and with \p Other. Sizes must match.
  void intersectWith(const BitVector &Other);

  /// Clears every bit that is set in \p Other. Sizes must match.
  void subtract(const BitVector &Other);

  /// Returns the index of the first set bit at or after \p From, or -1 if
  /// there is none.
  ptrdiff_t findNext(size_t From) const;

  /// Returns the index of the first set bit, or -1 for an empty vector.
  ptrdiff_t findFirst() const { return findNext(0); }

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Calls \p Visit with the index of every set bit, in ascending order: the
  /// word-at-a-time equivalent of iterating begin()..end().
  template <typename Fn> void forEachSetBit(Fn &&Visit) const {
    for (size_t W = 0; W < Words.size(); ++W)
      for (uint64_t Word = Words[W]; Word != 0; Word &= Word - 1)
        Visit(W * BitsPerWord + static_cast<size_t>(std::countr_zero(Word)));
  }

  /// Appends the index of every set bit to \p Out.
  void collectSetBits(std::vector<unsigned> &Out) const;

  /// Bytes of heap capacity held by the word array (for memory telemetry).
  size_t memoryBytes() const { return Words.capacity() * sizeof(uint64_t); }

  /// Iterator over the indices of set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, ptrdiff_t Pos) : BV(&BV), Pos(Pos) {}
    unsigned operator*() const { return static_cast<unsigned>(Pos); }
    SetBitIterator &operator++() {
      Pos = BV->findNext(static_cast<size_t>(Pos) + 1);
      return *this;
    }
    bool operator!=(const SetBitIterator &Other) const {
      return Pos != Other.Pos;
    }

  private:
    const BitVector *BV;
    ptrdiff_t Pos;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, -1); }

private:
  static constexpr size_t BitsPerWord = 64;

  static uint64_t wordMask(size_t Idx) {
    return uint64_t(1) << (Idx % BitsPerWord);
  }

  /// Zeroes any bits in the last word beyond NumBits so count()/none()
  /// stay exact.
  void clearUnusedBits();

  std::vector<uint64_t> Words;
  size_t NumBits = 0;
};

} // namespace ccra

#endif // CCRA_SUPPORT_BITVECTOR_H
