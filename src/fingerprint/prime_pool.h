#ifndef RSTLAB_FINGERPRINT_PRIME_POOL_H_
#define RSTLAB_FINGERPRINT_PRIME_POOL_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace rstlab::fingerprint {

/// The primes <= k for one parameter point, enumerated once by a sieve
/// of Eratosthenes so that repeated draws (Monte-Carlo trials) and full
/// enumerations (the exact-probability path) stop paying a Miller-Rabin
/// rejection loop per prime.
///
/// The pool is compact: one bit per odd number <= k, sieved in
/// cache-sized segments, plus a popcount rank directory with one entry
/// per kRankBlockBits bits. At(i) selects the i-th prime through that
/// directory, so the pool costs about k/16 bytes instead of 8 bytes per
/// prime, and Sample draws exactly the prime a sorted prime list would
/// give for the same index.
///
/// Sieving is O(k log log k) time, so it is only attempted up to
/// `sieve_limit`; above that the pool transparently falls back to the
/// rejection sampler (Sample still works, Count() is 0). The fingerprint
/// benches all sit far below the default limit.
class PrimePool {
 public:
  /// Odd numbers sieved per segment: 2^18 bits, 32 KiB of the bitset.
  static constexpr std::uint64_t kSegmentBits = std::uint64_t{1} << 18;
  /// Bits of the bitset per rank-directory entry.
  static constexpr std::uint64_t kRankBlockBits = 512;

  /// A pool over the primes <= k. Requires k >= 2.
  explicit PrimePool(std::uint64_t k,
                     std::uint64_t sieve_limit = std::uint64_t{1} << 27);

  std::uint64_t k() const { return k_; }

  /// True when the primes were enumerated (k <= sieve_limit).
  bool sieved() const { return sieved_; }

  /// pi(k) when sieved; 0 otherwise.
  std::uint64_t Count() const { return count_; }

  /// The i-th prime <= k in increasing order (At(0) == 2). Requires
  /// sieved() and i < Count().
  std::uint64_t At(std::uint64_t i) const;

  /// A prime chosen uniformly among the primes <= k:
  /// At(rng.UniformBelow(Count())) when sieved, expected O(log k)
  /// Miller-Rabin tests otherwise. Fails only in the unsieved fallback
  /// if sampling does not converge.
  Result<std::uint64_t> Sample(Rng& rng) const;

 private:
  std::uint64_t k_;
  bool sieved_ = false;
  std::uint64_t count_ = 0;
  /// Bit j of word j / 64 is set iff 2j + 1 is prime.
  std::vector<std::uint64_t> odd_primes_;
  /// rank_[b]: set bits in the blocks before block b.
  std::vector<std::uint64_t> rank_;
};

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_PRIME_POOL_H_
