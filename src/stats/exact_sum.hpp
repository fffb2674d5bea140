#pragma once
// Order-independent exact accumulation of doubles (a fixed-point
// "superaccumulator", in the spirit of reproducible-BLAS summation).
//
// Floating-point addition is not associative, so two runs that sum the same
// multiset of charges in different orders — serial vs sharded, one merge
// grouping vs another — generally disagree in the last bits. ExactSum removes
// the order from the answer: every added double is decomposed exactly into a
// wide fixed-point accumulator (32-bit limbs spanning the full binary64
// exponent range), where integer addition is associative and commutative.
// value() rounds the exact fixed-point sum to the nearest double (ties to
// even), so for any grouping, ordering, or partitioning of the same addends
//
//     value() == round_to_nearest(exact real sum)   — byte-identical.
//
// This is what lets a shard-streamed evaluation merge per-shard
// BillingReports into a bill byte-identical to the monolithic in-RAM path
// for every shard size (DESIGN.md §9).
//
// Costs: ~544 bytes of state; add(double) is a handful of ALU ops (no
// branches on magnitude, no tables); add_scaled(x, k) adds k copies of x in
// a few more; add(ExactSum) merges exactly.

#include <array>
#include <cstdint>

namespace minicost::stats {

class ExactSum {
 public:
  ExactSum() noexcept { reset(); }

  /// Adds one finite double to the exact sum. Throws std::invalid_argument
  /// on NaN or infinity (a bill must stay finite; feeding one non-finite
  /// charge would silently poison every later total).
  void add(double x);

  /// Adds k copies of one finite double, exactly: the same state as k
  /// add(x) calls. x's 53-bit significand is multiplied by k in integer
  /// arithmetic (at most 85 bits, deposited over four limbs), so the
  /// product is exact for every finite x, subnormals included. Throws like
  /// add() on NaN or infinity, whatever k is.
  void add_scaled(double x, std::uint32_t k);

  /// Adds another accumulator's exact sum (associative and exact, so any
  /// merge tree over the same addends yields the same state).
  void add(const ExactSum& other) noexcept;

  /// The exact sum rounded to the nearest double, ties to even. Independent
  /// of the order in which addends and merges arrived.
  double value() const noexcept;

  void reset() noexcept {
    limbs_.fill(0);
    pending_ = 0;
  }

 private:
  // 32-bit limbs in int64 slots, base 2^32, little-endian: limb i covers
  // absolute bit positions [32i, 32i+32) where bit 0 weighs 2^-1074 (the
  // least subnormal). The largest finite double's top mantissa bit sits at
  // position 2097 (limb 65), and times a 32-bit count at position 2129
  // (limb 66); the top limb absorbs carries and sign.
  static constexpr std::size_t kLimbs = 68;
  // A single add() or add_scaled() deposits < 2^32 into each of at most
  // four adjacent limbs, so a limb stays within int64 for 2^29 adds between
  // carry propagations.
  static constexpr std::uint32_t kMaxPending = 1u << 29;

  void normalize() const noexcept;

  mutable std::array<std::int64_t, kLimbs> limbs_;
  mutable std::uint32_t pending_ = 0;
};

}  // namespace minicost::stats
