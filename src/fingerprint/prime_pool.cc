#include "fingerprint/prime_pool.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "fingerprint/prime.h"

namespace rstlab::fingerprint {
namespace {

constexpr std::uint64_t kWordsPerBlock = PrimePool::kRankBlockBits / 64;

/// The odd primes p with p * p <= k, by a plain sieve up to sqrt(k).
std::vector<std::uint64_t> OddSievingPrimes(std::uint64_t k) {
  std::uint64_t root = 1;
  while ((root + 1) * (root + 1) <= k) ++root;
  std::vector<bool> composite(static_cast<std::size_t>(root) + 1, false);
  std::vector<std::uint64_t> primes;
  for (std::uint64_t p = 3; p <= root; p += 2) {
    if (composite[static_cast<std::size_t>(p)]) continue;
    primes.push_back(p);
    for (std::uint64_t q = p * p; q <= root; q += 2 * p) {
      composite[static_cast<std::size_t>(q)] = true;
    }
  }
  return primes;
}

}  // namespace

PrimePool::PrimePool(std::uint64_t k, std::uint64_t sieve_limit) : k_(k) {
  assert(k >= 2);
  if (k > sieve_limit) return;
  // Bit j stands for the odd number 2j + 1 <= k; start from "all prime"
  // and strike 1 and the odd composites.
  const std::uint64_t bits = (k + 1) / 2;
  odd_primes_.assign(static_cast<std::size_t>((bits + 63) / 64),
                     ~std::uint64_t{0});
  if (bits % 64 != 0) {
    odd_primes_.back() = (std::uint64_t{1} << (bits % 64)) - 1;
  }
  odd_primes_[0] &= ~std::uint64_t{1};

  // Segmented: every sieving prime strikes its odd multiples (a stride
  // of p bits, starting at p * p) within one cache-sized segment before
  // the next segment is touched; next[i] carries its position across.
  const std::vector<std::uint64_t> sieving = OddSievingPrimes(k);
  std::vector<std::uint64_t> next(sieving.size());
  for (std::size_t i = 0; i < sieving.size(); ++i) {
    next[i] = sieving[i] * sieving[i] / 2;
  }
  for (std::uint64_t lo = 0; lo < bits; lo += kSegmentBits) {
    const std::uint64_t hi = std::min(bits, lo + kSegmentBits);
    for (std::size_t i = 0; i < sieving.size(); ++i) {
      std::uint64_t j = next[i];
      for (; j < hi; j += sieving[i]) {
        odd_primes_[static_cast<std::size_t>(j / 64)] &=
            ~(std::uint64_t{1} << (j % 64));
      }
      next[i] = j;
    }
  }

  rank_.reserve(odd_primes_.size() / kWordsPerBlock + 1);
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < odd_primes_.size(); ++w) {
    if (w % kWordsPerBlock == 0) rank_.push_back(total);
    total += static_cast<std::uint64_t>(std::popcount(odd_primes_[w]));
  }
  count_ = total + 1;  // the odd primes and 2
  sieved_ = true;
}

std::uint64_t PrimePool::At(std::uint64_t i) const {
  assert(sieved_ && i < count_);
  if (i == 0) return 2;
  // Select the (i-1)-th set bit: the last block whose rank is <= it,
  // then a popcount walk over at most kWordsPerBlock words, then the
  // bit inside the word.
  std::uint64_t rank = i - 1;
  const std::size_t block = static_cast<std::size_t>(
      std::upper_bound(rank_.begin(), rank_.end(), rank) - rank_.begin() -
      1);
  rank -= rank_[block];
  std::size_t w = block * kWordsPerBlock;
  for (;; ++w) {
    const auto ones =
        static_cast<std::uint64_t>(std::popcount(odd_primes_[w]));
    if (rank < ones) break;
    rank -= ones;
  }
  std::uint64_t word = odd_primes_[w];
  for (; rank > 0; --rank) word &= word - 1;
  const std::uint64_t j =
      std::uint64_t{w} * 64 +
      static_cast<std::uint64_t>(std::countr_zero(word));
  return 2 * j + 1;
}

Result<std::uint64_t> PrimePool::Sample(Rng& rng) const {
  if (sieved_) return At(rng.UniformBelow(count_));
  return RandomPrimeAtMost(k_, rng);
}

}  // namespace rstlab::fingerprint
