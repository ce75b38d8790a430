#pragma once

/// \file bitset.h
/// \brief Dynamic fixed-universe bitset — the workhorse set representation.
///
/// Every object the paper manipulates (itemsets, hypergraph edges, minimal
/// transversals, attribute sets, Boolean assignments) is a subset of a fixed
/// universe {0, ..., n-1}.  Bitset stores such a subset as packed 64-bit
/// words and provides the full set algebra, subset/intersection predicates,
/// set-bit iteration, hashing and ordering, all branch-light and inlined.
///
/// Invariant: bits at positions >= size() in the last word are always zero,
/// so whole-word comparisons and popcounts are exact.

#include <bit>
#include <cassert>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace hgm {

/// A subset of the universe {0, ..., size()-1}, packed into 64-bit words.
class Bitset {
 public:
  static constexpr size_t npos = static_cast<size_t>(-1);

  /// Constructs the empty subset of a universe with \p nbits elements.
  explicit Bitset(size_t nbits = 0)
      : nbits_(nbits), words_(NumWordsFor(nbits), 0) {}

  /// Constructs a subset of {0..nbits-1} containing exactly \p indices.
  Bitset(size_t nbits, std::initializer_list<size_t> indices)
      : Bitset(nbits) {
    for (size_t i : indices) Set(i);
  }

  /// Returns the subset of {0..nbits-1} containing exactly \p indices.
  template <typename Container>
  static Bitset FromIndices(size_t nbits, const Container& indices) {
    Bitset b(nbits);
    for (size_t i : indices) b.Set(i);
    return b;
  }

  /// Returns {i} as a subset of {0..nbits-1}.
  static Bitset Singleton(size_t nbits, size_t i) {
    Bitset b(nbits);
    b.Set(i);
    return b;
  }

  /// Returns the full universe {0..nbits-1}.
  static Bitset Full(size_t nbits) {
    Bitset b(nbits);
    b.SetAll();
    return b;
  }

  /// Number of elements in the universe (not the subset).
  size_t size() const { return nbits_; }

  /// True iff the universe itself is empty (size() == 0).
  bool UniverseEmpty() const { return nbits_ == 0; }

  /// Membership test for element \p i.
  bool Test(size_t i) const {
    assert(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Inserts element \p i.
  void Set(size_t i) {
    assert(i < nbits_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  /// Removes element \p i.
  void Reset(size_t i) {
    assert(i < nbits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Toggles element \p i.
  void Flip(size_t i) {
    assert(i < nbits_);
    words_[i >> 6] ^= uint64_t{1} << (i & 63);
  }

  /// Makes this the full universe.
  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    MaskTail();
  }

  /// Makes this the empty set.
  void ResetAll() {
    for (auto& w : words_) w = 0;
  }

  /// Number of elements in the subset.
  size_t Count() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(std::popcount(w));
    return c;
  }

  /// True iff the subset is non-empty.
  bool Any() const {
    for (uint64_t w : words_)
      if (w) return true;
    return false;
  }

  /// True iff the subset is empty.
  bool None() const { return !Any(); }

  /// True iff the subset equals the whole universe.
  bool AllSet() const { return Count() == nbits_; }

  /// Grows or shrinks the universe to \p nbits, dropping elements >= nbits.
  void Resize(size_t nbits) {
    nbits_ = nbits;
    words_.resize(NumWordsFor(nbits), 0);
    MaskTail();
  }

  Bitset& operator&=(const Bitset& o) {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }
  Bitset& operator|=(const Bitset& o) {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  Bitset& operator^=(const Bitset& o) {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= o.words_[i];
    return *this;
  }
  /// Set difference: removes every element of \p o from this set.
  Bitset& operator-=(const Bitset& o) {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator^(Bitset a, const Bitset& b) { return a ^= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }

  /// Complement within the universe.
  Bitset operator~() const {
    Bitset r(*this);
    for (auto& w : r.words_) w = ~w;
    r.MaskTail();
    return r;
  }

  /// Returns a copy with element \p i inserted.
  Bitset WithBit(size_t i) const {
    Bitset r(*this);
    r.Set(i);
    return r;
  }

  /// Returns a copy with element \p i removed.
  Bitset WithoutBit(size_t i) const {
    Bitset r(*this);
    r.Reset(i);
    return r;
  }

  /// True iff this ⊆ o.
  bool IsSubsetOf(const Bitset& o) const {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  /// True iff this ⊂ o (subset and not equal).
  bool IsProperSubsetOf(const Bitset& o) const {
    return IsSubsetOf(o) && *this != o;
  }

  /// True iff this ∩ o ≠ ∅.
  bool Intersects(const Bitset& o) const {
    assert(nbits_ == o.nbits_);
    for (size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  /// |this ∩ o| without materializing the intersection.
  size_t IntersectionCount(const Bitset& o) const {
    assert(nbits_ == o.nbits_);
    size_t c = 0;
    for (size_t i = 0; i < words_.size(); ++i)
      c += static_cast<size_t>(std::popcount(words_[i] & o.words_[i]));
    return c;
  }

  /// Capped |this ∩ o|: streams the word-wise AND in 4-word unrolled
  /// blocks with the early-exit compare hoisted to the block boundary, so
  /// the common no-exit case runs popcounts back to back instead of
  /// branching per word.  Returns the exact intersection size when it is
  /// below \p cap, and the (>= cap) running count at the block where it
  /// crossed otherwise — callers accumulating partial counts only need
  /// "at least cap", and the returned value is always a lower bound of
  /// the exact count.
  size_t IntersectionCountCapped(const Bitset& o, size_t cap) const {
    assert(nbits_ == o.nbits_);
    if (cap == 0) return 0;
    const uint64_t* a = words_.data();
    const uint64_t* b = o.words_.data();
    const size_t nw = words_.size();
    size_t c = 0;
    size_t i = 0;
    for (; i + 4 <= nw; i += 4) {
      c += static_cast<size_t>(std::popcount(a[i] & b[i])) +
           static_cast<size_t>(std::popcount(a[i + 1] & b[i + 1])) +
           static_cast<size_t>(std::popcount(a[i + 2] & b[i + 2])) +
           static_cast<size_t>(std::popcount(a[i + 3] & b[i + 3]));
      if (c >= cap) return c;
    }
    for (; i < nw; ++i) {
      c += static_cast<size_t>(std::popcount(a[i] & b[i]));
    }
    return c;
  }

  /// True iff |this ∩ o| >= threshold, early-exiting once the running
  /// popcount reaches the threshold.  For support counting this lets
  /// frequent candidates stop as soon as min_support rows are confirmed
  /// instead of scanning the whole tidset.
  bool IntersectionCountAtLeast(const Bitset& o, size_t threshold) const {
    return IntersectionCountCapped(o, threshold) >= threshold;
  }

  /// True iff Count() >= threshold, early-exiting per word.
  bool CountAtLeast(size_t threshold) const {
    if (threshold == 0) return true;
    size_t c = 0;
    for (uint64_t w : words_) {
      c += static_cast<size_t>(std::popcount(w));
      if (c >= threshold) return true;
    }
    return false;
  }

  /// Index of the smallest element, or npos if empty.
  size_t FindFirst() const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      if (words_[wi])
        return (wi << 6) + static_cast<size_t>(std::countr_zero(words_[wi]));
    }
    return npos;
  }

  /// Index of the smallest element strictly greater than \p i, or npos.
  size_t FindNext(size_t i) const {
    ++i;
    if (i >= nbits_) return npos;
    size_t wi = i >> 6;
    uint64_t w = words_[wi] & (~uint64_t{0} << (i & 63));
    if (w) return (wi << 6) + static_cast<size_t>(std::countr_zero(w));
    for (++wi; wi < words_.size(); ++wi) {
      if (words_[wi])
        return (wi << 6) + static_cast<size_t>(std::countr_zero(words_[wi]));
    }
    return npos;
  }

  /// Index of the largest element, or npos if empty.
  size_t FindLast() const {
    for (size_t wi = words_.size(); wi-- > 0;) {
      if (words_[wi])
        return (wi << 6) + 63 -
               static_cast<size_t>(std::countl_zero(words_[wi]));
    }
    return npos;
  }

  /// Invokes \p fn(i) for each element i in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w) {
        size_t bit = static_cast<size_t>(std::countr_zero(w));
        fn((wi << 6) + bit);
        w &= w - 1;
      }
    }
  }

  /// Materializes the elements in increasing order.
  std::vector<size_t> Indices() const {
    std::vector<size_t> out;
    out.reserve(Count());
    ForEach([&](size_t i) { out.push_back(i); });
    return out;
  }

  /// Input iterator over set-bit indices, smallest first.
  class Iterator {
   public:
    using value_type = size_t;
    using difference_type = std::ptrdiff_t;

    Iterator(const Bitset* owner, size_t pos) : owner_(owner), pos_(pos) {}
    size_t operator*() const { return pos_; }
    Iterator& operator++() {
      pos_ = owner_->FindNext(pos_);
      return *this;
    }
    Iterator operator++(int) {
      Iterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    const Bitset* owner_;
    size_t pos_;
  };

  Iterator begin() const { return Iterator(this, FindFirst()); }
  Iterator end() const { return Iterator(this, npos); }

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.nbits_ == b.nbits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const Bitset& a, const Bitset& b) {
    return !(a == b);
  }

  /// Total order (by universe size, then by words little-endian), suitable
  /// for std::map / std::sort.  Not the colex order of the subsets.
  friend bool operator<(const Bitset& a, const Bitset& b) {
    if (a.nbits_ != b.nbits_) return a.nbits_ < b.nbits_;
    for (size_t i = a.words_.size(); i-- > 0;) {
      if (a.words_[i] != b.words_[i]) return a.words_[i] < b.words_[i];
    }
    return false;
  }

  /// 64-bit FNV-1a over the words; used by BitsetHash.
  size_t HashValue() const {
    uint64_t h = 1469598103934665603ull;
    for (uint64_t w : words_) {
      h ^= w;
      h *= 1099511628211ull;
    }
    h ^= nbits_;
    h *= 1099511628211ull;
    return static_cast<size_t>(h);
  }

  /// Renders as "{1, 4, 7}".
  std::string ToString() const;

  /// Renders as a dense 0/1 string, index 0 leftmost, e.g. "01011".
  std::string ToDenseString() const;

  /// Renders using per-element \p names, e.g. "ABD" with names {"A","B",..}.
  std::string Format(const std::vector<std::string>& names,
                     const std::string& sep = "") const;

  /// Direct word access for bulk algorithms (read-only).
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  static size_t NumWordsFor(size_t nbits) { return (nbits + 63) >> 6; }

  /// Clears any bits beyond nbits_ in the last word.
  void MaskTail() {
    size_t rem = nbits_ & 63;
    if (rem != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << rem) - 1;
    }
  }

  size_t nbits_;
  std::vector<uint64_t> words_;
};

/// The canonical family order: by size, then by value.
inline bool CanonicalLess(const Bitset& a, const Bitset& b) {
  const size_t ca = a.Count(), cb = b.Count();
  return ca != cb ? ca < cb : a < b;
}

/// Hash functor for unordered containers keyed by Bitset.
struct BitsetHash {
  size_t operator()(const Bitset& b) const { return b.HashValue(); }
};

}  // namespace hgm
