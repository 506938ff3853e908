#include "fingerprint/batch.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "fingerprint/prime_pool.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RSTLAB_BATCH_AVX2 1
#include <immintrin.h>
#endif

namespace rstlab::fingerprint {
namespace {

/// The 32-bit Shoup kernel's domain: every modulus must satisfy
/// m < 2^31 so that a*w, q*p < 2^62 and every intermediate fits a
/// (signed-comparable) 64-bit lane. Paper-sized parameters always
/// qualify (6k <= 2^62 caps p2 only for astronomically large m*n).
constexpr std::uint64_t kShoupDomain = std::uint64_t{1} << 31;

/// Lane-group width of the kernels; batches are padded up to it.
constexpr std::size_t kGroup = 4;

/// Parameters of the padding lanes: any tiny valid triple works — the
/// padded lanes' sums are computed (branchlessly, like all lanes) and
/// then simply never copied out.
constexpr std::uint64_t kPadP1 = 2;
constexpr std::uint64_t kPadP2 = 5;
constexpr std::uint64_t kPadX = 1;

/// Copies v's bits (MSB first) into a flat buffer once per value, so
/// the per-group kernels re-read them from L1 instead of re-calling
/// BitString::bit once per (bit, lane-group).
void ExtractBits(const BitString& v, std::vector<std::uint8_t>& bits) {
  bits.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    bits[i] = v.bit(i) ? 1 : 0;
  }
}

// -------------------------------------------------------------------
// Portable lane-group kernels (simd::U64x2 wrapper: NEON on aarch64,
// scalar pairs elsewhere).
//
// Shoup multiplication, 32-bit flavour: for w < p < 2^31 with
// precomputed w' = floor(w * 2^32 / p) and any a < 2^32,
//   q = floor(a * w' / 2^32),   t = a*w - q*p
// satisfies 0 <= t < 2p (q <= a*w/p and q > a*w/p - a/2^32 - 1), so
// one conditional subtraction yields the exact a*w mod p. Every
// product fits 64 bits: a*w' < 2^63, q < 2^31, q*p < 2^62, a*w < 2^62.
// -------------------------------------------------------------------

inline simd::U64x2 ShoupMul2(simd::U64x2 a, simd::U64x2 w, simd::U64x2 wsh,
                             simd::U64x2 p) {
  const simd::U64x2 q = simd::ShiftRight(simd::MulLo32(a, wsh), 32);
  const simd::U64x2 t =
      simd::Sub(simd::MulLo32(a, w), simd::MulLo32(q, p));
  return simd::CondSub(t, p);
}

/// One value against one 4-lane group: residue scan (e = v mod p1 by
/// Horner over the bits) followed by the table powmod
/// (acc = x^e mod p2 via x^(2^j) tables) and the sum update. `stride`
/// is the padded batch width separating table rows.
void EvalValueGroup4Wrapper(const std::uint8_t* bits, std::size_t nbits,
                            const std::uint64_t* p1, const std::uint64_t* p2,
                            const std::uint64_t* xpow,
                            const std::uint64_t* xshoup, std::size_t stride,
                            unsigned levels, std::uint64_t* sums) {
  using simd::U64x2;
  const U64x2 m0 = simd::Load2(p1);
  const U64x2 m1 = simd::Load2(p1 + 2);
  U64x2 r0 = simd::Dup(0);
  U64x2 r1 = simd::Dup(0);
  for (std::size_t i = 0; i < nbits; ++i) {
    const U64x2 b = simd::Dup(bits[i]);
    r0 = simd::CondSub(simd::Add(simd::ShiftLeftOne(r0), b), m0);
    r1 = simd::CondSub(simd::Add(simd::ShiftLeftOne(r1), b), m1);
  }
  const U64x2 q0 = simd::Load2(p2);
  const U64x2 q1 = simd::Load2(p2 + 2);
  const U64x2 one = simd::Dup(1);
  U64x2 a0 = one;
  U64x2 a1 = one;
  for (unsigned j = 0; j < levels; ++j) {
    const std::uint64_t* row_w = xpow + static_cast<std::size_t>(j) * stride;
    const std::uint64_t* row_s =
        xshoup + static_cast<std::size_t>(j) * stride;
    const U64x2 t0 = ShoupMul2(a0, simd::Load2(row_w), simd::Load2(row_s), q0);
    const U64x2 t1 =
        ShoupMul2(a1, simd::Load2(row_w + 2), simd::Load2(row_s + 2), q1);
    a0 = simd::Select01(simd::And(simd::ShiftRight(r0, j), one), t0, a0);
    a1 = simd::Select01(simd::And(simd::ShiftRight(r1, j), one), t1, a1);
  }
  simd::Store2(sums, simd::CondSub(simd::Add(simd::Load2(sums), a0), q0));
  simd::Store2(sums + 2,
               simd::CondSub(simd::Add(simd::Load2(sums + 2), a1), q1));
}

/// Residue-only flavour for BatchResidues: e[lane] = v mod p1[lane]
/// over one 4-lane group.
void ResidueGroup4Wrapper(const std::uint8_t* bits, std::size_t nbits,
                          const std::uint64_t* p1, std::uint64_t* out) {
  using simd::U64x2;
  const U64x2 m0 = simd::Load2(p1);
  const U64x2 m1 = simd::Load2(p1 + 2);
  U64x2 r0 = simd::Dup(0);
  U64x2 r1 = simd::Dup(0);
  for (std::size_t i = 0; i < nbits; ++i) {
    const U64x2 b = simd::Dup(bits[i]);
    r0 = simd::CondSub(simd::Add(simd::ShiftLeftOne(r0), b), m0);
    r1 = simd::CondSub(simd::Add(simd::ShiftLeftOne(r1), b), m1);
  }
  simd::Store2(out, r0);
  simd::Store2(out + 2, r1);
}

// -------------------------------------------------------------------
// AVX2 lane-group kernels (x86 only; selected at runtime via
// __builtin_cpu_supports so the binary never needs -mavx2 globally).
// Same exact arithmetic as the wrapper kernels, four u64 lanes per
// register. All values stay below 2^32, so the signed 64-bit compares
// (_mm256_cmpgt_epi64) are exact.
// -------------------------------------------------------------------

#if defined(RSTLAB_BATCH_AVX2)

__attribute__((target("avx2"))) inline __m256i Load4(
    const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void Store4(std::uint64_t* p,
                                                   __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// v >= m ? v - m : v (values < 2^32 per lane).
__attribute__((target("avx2"))) inline __m256i CondSub4(__m256i v,
                                                        __m256i m) {
  const __m256i lt = _mm256_cmpgt_epi64(m, v);
  return _mm256_sub_epi64(v, _mm256_andnot_si256(lt, m));
}

__attribute__((target("avx2"))) inline __m256i ShoupMul4(__m256i a,
                                                         __m256i w,
                                                         __m256i wsh,
                                                         __m256i p) {
  const __m256i q = _mm256_srli_epi64(_mm256_mul_epu32(a, wsh), 32);
  const __m256i t =
      _mm256_sub_epi64(_mm256_mul_epu32(a, w), _mm256_mul_epu32(q, p));
  return CondSub4(t, p);
}

__attribute__((target("avx2"))) void EvalValueGroup4Avx2(
    const std::uint8_t* bits, std::size_t nbits, const std::uint64_t* p1,
    const std::uint64_t* p2, const std::uint64_t* xpow,
    const std::uint64_t* xshoup, std::size_t stride, unsigned levels,
    std::uint64_t* sums) {
  const __m256i m = Load4(p1);
  __m256i r = _mm256_setzero_si256();
  for (std::size_t i = 0; i < nbits; ++i) {
    const __m256i b = _mm256_set1_epi64x(bits[i]);
    r = CondSub4(_mm256_add_epi64(_mm256_slli_epi64(r, 1), b), m);
  }
  const __m256i p = Load4(p2);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i acc = one;
  for (unsigned j = 0; j < levels; ++j) {
    const std::uint64_t* row_w = xpow + static_cast<std::size_t>(j) * stride;
    const std::uint64_t* row_s =
        xshoup + static_cast<std::size_t>(j) * stride;
    const __m256i t = ShoupMul4(acc, Load4(row_w), Load4(row_s), p);
    const __m256i bit = _mm256_and_si256(
        _mm256_srl_epi64(r, _mm_cvtsi32_si128(static_cast<int>(j))), one);
    acc = _mm256_blendv_epi8(acc, t, _mm256_cmpeq_epi64(bit, one));
  }
  Store4(sums, CondSub4(_mm256_add_epi64(Load4(sums), acc), p));
}

/// Two 4-lane groups sharing one pass over the bits — the kLanes8
/// schedule, which reads the value stream once for all 8 lanes.
__attribute__((target("avx2"))) void EvalValueGroup8Avx2(
    const std::uint8_t* bits, std::size_t nbits, const std::uint64_t* p1,
    const std::uint64_t* p2, const std::uint64_t* xpow,
    const std::uint64_t* xshoup, std::size_t stride, unsigned levels,
    std::uint64_t* sums) {
  const __m256i m0 = Load4(p1);
  const __m256i m1 = Load4(p1 + 4);
  __m256i r0 = _mm256_setzero_si256();
  __m256i r1 = _mm256_setzero_si256();
  for (std::size_t i = 0; i < nbits; ++i) {
    const __m256i b = _mm256_set1_epi64x(bits[i]);
    r0 = CondSub4(_mm256_add_epi64(_mm256_slli_epi64(r0, 1), b), m0);
    r1 = CondSub4(_mm256_add_epi64(_mm256_slli_epi64(r1, 1), b), m1);
  }
  const __m256i p0 = Load4(p2);
  const __m256i p1v = Load4(p2 + 4);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i acc0 = one;
  __m256i acc1 = one;
  for (unsigned j = 0; j < levels; ++j) {
    const std::uint64_t* row_w = xpow + static_cast<std::size_t>(j) * stride;
    const std::uint64_t* row_s =
        xshoup + static_cast<std::size_t>(j) * stride;
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(j));
    const __m256i t0 = ShoupMul4(acc0, Load4(row_w), Load4(row_s), p0);
    const __m256i t1 =
        ShoupMul4(acc1, Load4(row_w + 4), Load4(row_s + 4), p1v);
    const __m256i bit0 =
        _mm256_and_si256(_mm256_srl_epi64(r0, shift), one);
    const __m256i bit1 =
        _mm256_and_si256(_mm256_srl_epi64(r1, shift), one);
    acc0 = _mm256_blendv_epi8(acc0, t0, _mm256_cmpeq_epi64(bit0, one));
    acc1 = _mm256_blendv_epi8(acc1, t1, _mm256_cmpeq_epi64(bit1, one));
  }
  Store4(sums, CondSub4(_mm256_add_epi64(Load4(sums), acc0), p0));
  Store4(sums + 4, CondSub4(_mm256_add_epi64(Load4(sums + 4), acc1), p1v));
}

#endif  // RSTLAB_BATCH_AVX2

}  // namespace

void FingerprintParamBatch::PushLane(const FingerprintParams& params) {
  k.push_back(params.k);
  p1.push_back(params.p1);
  p2.push_back(params.p2);
  x.push_back(params.x);
}

FingerprintParams FingerprintParamBatch::Lane(std::size_t i) const {
  FingerprintParams params;
  params.k = k[i];
  params.p1 = p1[i];
  params.p2 = p2[i];
  params.x = x[i];
  return params;
}

Result<FingerprintParamBatch> SampleFingerprintParamBatch(std::size_t m,
                                                          std::size_t n,
                                                          std::size_t lanes,
                                                          Rng& rng) {
  FingerprintParamBatch batch;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Result<FingerprintParams> params = SampleFingerprintParams(m, n, rng);
    if (!params.ok()) return params.status();
    batch.PushLane(params.value());
  }
  return batch;
}

std::size_t BatchTally::accepted_count() const {
  std::size_t count = 0;
  for (const std::uint8_t a : lane_accepted) count += a;
  return count;
}

bool BatchTally::all_accepted() const {
  return accepted_count() == lane_accepted.size();
}

BatchFingerprintEngine::BatchFingerprintEngine(FingerprintParamBatch batch,
                                               simd::SimdLevel level)
    : batch_(std::move(batch)), level_(level) {
  const std::size_t lanes = batch_.lanes();
  barrett_p2_.reserve(lanes);
  narrow_ = true;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    barrett_p2_.emplace_back(batch_.p2[lane]);
    if (batch_.p1[lane] >= kShoupDomain || batch_.p2[lane] >= kShoupDomain) {
      narrow_ = false;
    }
  }
  one_pass_ = level_ != simd::SimdLevel::kScalar && lanes > 0;
  if (!one_pass_) return;

  padded_ = (lanes + kGroup - 1) / kGroup * kGroup;
  p1_.assign(padded_, kPadP1);
  p2_.assign(padded_, kPadP2);
  x_.assign(padded_, kPadX);
  std::copy(batch_.p1.begin(), batch_.p1.end(), p1_.begin());
  std::copy(batch_.p2.begin(), batch_.p2.end(), p2_.begin());
  std::copy(batch_.x.begin(), batch_.x.end(), x_.begin());
  if (!narrow_) return;  // one-pass wide path needs no tables

  // Tables: xpow[j][lane] = x^(2^j) mod p2 and its Shoup companion,
  // for every exponent bit the residues e < p1 can have. Moduli are
  // < 2^31, so squaring stays within u64 without Barrett.
  std::uint64_t max_e = 1;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    max_e = std::max(max_e, batch_.p1[lane] - 1);
  }
  table_levels_ = static_cast<unsigned>(std::bit_width(max_e));
  xpow_.resize(static_cast<std::size_t>(table_levels_) * padded_);
  xshoup_.resize(xpow_.size());
  for (std::size_t lane = 0; lane < padded_; ++lane) {
    const std::uint64_t p2v = p2_[lane];
    std::uint64_t w = x_[lane] % p2v;
    for (unsigned j = 0; j < table_levels_; ++j) {
      xpow_[static_cast<std::size_t>(j) * padded_ + lane] = w;
      xshoup_[static_cast<std::size_t>(j) * padded_ + lane] =
          (w << 32) / p2v;
      w = (w * w) % p2v;
    }
  }
#if defined(RSTLAB_BATCH_AVX2)
  use_avx2_ = __builtin_cpu_supports("avx2") != 0;
#endif
  vectorized_ = simd::VectorKernelsAvailable();
}

void BatchFingerprintEngine::EvaluateSideScalar(
    const std::vector<BitString>& values, std::uint64_t* sums) const {
  // The reference schedule: lane-major, one stream scan per lane —
  // exactly AcceptsWithParams repeated over the batch.
  for (std::size_t lane = 0; lane < batch_.lanes(); ++lane) {
    const std::uint64_t p1 = batch_.p1[lane];
    const std::uint64_t p2 = batch_.p2[lane];
    const std::uint64_t x = batch_.x[lane];
    const Barrett& bp2 = barrett_p2_[lane];
    std::uint64_t sum = 0;
    for (const BitString& v : values) {
      const std::uint64_t e = v.ModUint64(p1);
      sum += bp2.PowMod(x, e);
      if (sum >= p2) sum -= p2;
    }
    sums[lane] = sum;
  }
}

void BatchFingerprintEngine::EvaluateSideOnePass(
    const std::vector<BitString>& values, std::uint64_t* sums) const {
  std::vector<std::uint8_t> bits;
  if (!narrow_) {
    // Out-of-domain moduli: keep the one-pass schedule (all lanes'
    // residues advance during a single scan of each value's bits) but
    // run the arithmetic in exact scalar u64 / Barrett form.
    const std::size_t lanes = batch_.lanes();
    std::vector<std::uint64_t> residues(lanes);
    for (const BitString& v : values) {
      ExtractBits(v, bits);
      std::fill(residues.begin(), residues.end(), 0);
      for (const std::uint8_t b : bits) {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          std::uint64_t r = (residues[lane] << 1) + b;
          if (r >= batch_.p1[lane]) r -= batch_.p1[lane];
          residues[lane] = r;
        }
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        sums[lane] += barrett_p2_[lane].PowMod(batch_.x[lane],
                                               residues[lane]);
        if (sums[lane] >= batch_.p2[lane]) sums[lane] -= batch_.p2[lane];
      }
    }
    return;
  }
  const bool wide_groups =
      level_ == simd::SimdLevel::kLanes8 && padded_ >= 2 * kGroup;
  for (const BitString& v : values) {
    ExtractBits(v, bits);
    std::size_t base = 0;
#if defined(RSTLAB_BATCH_AVX2)
    if (use_avx2_) {
      if (wide_groups) {
        for (; padded_ - base >= 2 * kGroup; base += 2 * kGroup) {
          EvalValueGroup8Avx2(bits.data(), bits.size(), p1_.data() + base,
                              p2_.data() + base, xpow_.data() + base,
                              xshoup_.data() + base, padded_, table_levels_,
                              sums + base);
        }
      }
      for (; base < padded_; base += kGroup) {
        EvalValueGroup4Avx2(bits.data(), bits.size(), p1_.data() + base,
                            p2_.data() + base, xpow_.data() + base,
                            xshoup_.data() + base, padded_, table_levels_,
                            sums + base);
      }
      continue;
    }
#endif
    (void)wide_groups;
    for (; base < padded_; base += kGroup) {
      EvalValueGroup4Wrapper(bits.data(), bits.size(), p1_.data() + base,
                             p2_.data() + base, xpow_.data() + base,
                             xshoup_.data() + base, padded_, table_levels_,
                             sums + base);
    }
  }
}

BatchTally BatchFingerprintEngine::Evaluate(
    const problems::Instance& instance) const {
  const std::size_t lanes = batch_.lanes();
  BatchTally tally;
  tally.sum_first.assign(lanes, 0);
  tally.sum_second.assign(lanes, 0);
  tally.lane_accepted.assign(lanes, 0);
  if (lanes == 0) return tally;
  if (!one_pass_) {
    EvaluateSideScalar(instance.first, tally.sum_first.data());
    EvaluateSideScalar(instance.second, tally.sum_second.data());
  } else {
    std::vector<std::uint64_t> sums(padded_, 0);
    EvaluateSideOnePass(instance.first, sums.data());
    std::copy(sums.begin(), sums.begin() + lanes, tally.sum_first.begin());
    std::fill(sums.begin(), sums.end(), 0);
    EvaluateSideOnePass(instance.second, sums.data());
    std::copy(sums.begin(), sums.begin() + lanes, tally.sum_second.begin());
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    tally.lane_accepted[lane] =
        tally.sum_first[lane] == tally.sum_second[lane] ? 1 : 0;
  }
  return tally;
}

Result<AmplifiedOutcome> TestMultisetEqualityAmplified(
    const problems::Instance& instance, std::size_t lanes, Rng& rng,
    simd::SimdLevel level) {
  Result<FingerprintParamBatch> batch = SampleFingerprintParamBatch(
      instance.m(), MaxValueBits(instance), lanes, rng);
  if (!batch.ok()) return batch.status();
  const BatchFingerprintEngine engine(batch.value(), level);
  const BatchTally tally = engine.Evaluate(instance);
  AmplifiedOutcome outcome;
  outcome.accepted = tally.all_accepted();
  outcome.params = engine.params();
  outcome.lane_accepted = tally.lane_accepted;
  return outcome;
}

std::vector<std::uint64_t> BatchResidues(
    const problems::Instance& instance,
    const std::vector<std::uint64_t>& primes, simd::SimdLevel level) {
  const std::size_t lanes = primes.size();
  const std::size_t count = instance.first.size() + instance.second.size();
  std::vector<std::uint64_t> result(count * lanes, 0);
  if (lanes == 0) return result;
  const auto value_at = [&instance](std::size_t i) -> const BitString& {
    return i < instance.first.size()
               ? instance.first[i]
               : instance.second[i - instance.first.size()];
  };
  bool narrow = true;
  for (const std::uint64_t p : primes) {
    if (p >= kShoupDomain) narrow = false;
  }
  if (level == simd::SimdLevel::kScalar || !narrow) {
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        result[i * lanes + lane] = value_at(i).ModUint64(primes[lane]);
      }
    }
    return result;
  }
  const std::size_t padded = (lanes + kGroup - 1) / kGroup * kGroup;
  std::vector<std::uint64_t> p1(padded, kPadP1);
  std::copy(primes.begin(), primes.end(), p1.begin());
  std::vector<std::uint64_t> out(padded, 0);
  std::vector<std::uint8_t> bits;
  for (std::size_t i = 0; i < count; ++i) {
    ExtractBits(value_at(i), bits);
    for (std::size_t base = 0; base < padded; base += kGroup) {
      ResidueGroup4Wrapper(bits.data(), bits.size(), p1.data() + base,
                           out.data() + base);
    }
    std::copy(out.begin(), out.begin() + lanes,
              result.begin() + static_cast<std::ptrdiff_t>(i * lanes));
  }
  return result;
}

Claim1Estimate EstimateClaim1CollisionRateBatched(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner, std::size_t lanes,
    simd::SimdLevel level) {
  Claim1Estimate estimate;
  Result<std::uint64_t> k_result =
      ComputeFingerprintK(instance.m(), MaxValueBits(instance));
  if (!k_result.ok() || trials == 0) return estimate;
  const PrimePool pool(k_result.value());
  const parallel::SeedSequence seeds(seed);
  struct CollisionTally {
    std::uint64_t collisions = 0;
    void Merge(const CollisionTally& other) {
      collisions += other.collisions;
    }
  };
  const std::size_t values = instance.first.size() + instance.second.size();
  const CollisionTally tally = runner.RunSeededBatches<CollisionTally>(
      trials, lanes == 0 ? 1 : lanes, seeds,
      [&](std::uint64_t, std::uint64_t count, Rng& rng,
          CollisionTally& local) {
        std::vector<std::uint64_t> primes;
        primes.reserve(count);
        for (std::uint64_t c = 0; c < count; ++c) {
          Result<std::uint64_t> p = pool.Sample(rng);
          if (p.ok()) primes.push_back(p.value());
        }
        const std::vector<std::uint64_t> residues =
            BatchResidues(instance, primes, level);
        std::vector<std::uint64_t> lane_residues(values);
        for (std::size_t lane = 0; lane < primes.size(); ++lane) {
          for (std::size_t i = 0; i < values; ++i) {
            lane_residues[i] = residues[i * primes.size() + lane];
          }
          local.collisions +=
              HasResidueCollision(instance, lane_residues) ? 1 : 0;
        }
      });
  estimate.trials = trials;
  estimate.collisions = tally.collisions;
  return estimate;
}

}  // namespace rstlab::fingerprint
