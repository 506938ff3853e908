#ifndef RSTLAB_FINGERPRINT_BATCH_H_
#define RSTLAB_FINGERPRINT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fingerprint/barrett.h"
#include "fingerprint/fingerprint.h"
#include "parallel/trial_runner.h"
#include "problems/instance.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/status.h"

/// Batched evaluation of the Theorem 8(a) fingerprint.
///
/// The scalar tester (`AcceptsWithParams`) evaluates one (p1, x) pair
/// per scan of the value stream, so k-fold error amplification costs k
/// scans. The engine here evaluates L parameter *lanes* against the
/// same stream in one pass: residue accumulators live in
/// structure-of-arrays form, the x^e mod p2 kernel runs over lane
/// groups (AVX2 4/8-wide on x86, the NEON-backed `simd::U64x2` wrapper
/// elsewhere, plain scalar loops as the universal fallback), and the
/// per-lane verdict is exactly the scalar verdict because every path
/// computes the exact values e = v mod p1 and x^e mod p2 — there is no
/// floating point and no approximate reduction anywhere, so tallies
/// are bit-identical across lane widths and thread counts by
/// construction. The `fingerprint-batch` conform suite enforces this.
namespace rstlab::fingerprint {

/// Structure-of-arrays batch of per-lane fingerprint parameters.
struct FingerprintParamBatch {
  std::vector<std::uint64_t> k;
  std::vector<std::uint64_t> p1;
  std::vector<std::uint64_t> p2;
  std::vector<std::uint64_t> x;

  std::size_t lanes() const { return p1.size(); }
  bool empty() const { return p1.empty(); }

  /// Appends one lane.
  void PushLane(const FingerprintParams& params);

  /// The lane at `i` as a scalar parameter struct.
  FingerprintParams Lane(std::size_t i) const;
};

/// Samples `lanes` independent parameter sets for m values of n bits.
/// k and p2 are deterministic functions of (m, n), so every lane shares
/// them; p1 and x are drawn independently per lane — the amplification
/// lanes are exactly `lanes` independent runs of steps 2-4.
Result<FingerprintParamBatch> SampleFingerprintParamBatch(std::size_t m,
                                                          std::size_t n,
                                                          std::size_t lanes,
                                                          Rng& rng);

/// Per-lane tallies of one batched evaluation. The sums are the exact
/// Sum_i x^{e_i} mod p2 accumulations of the scalar tester, exposed so
/// oracles can compare paths bit for bit rather than verdict for
/// verdict.
struct BatchTally {
  std::vector<std::uint64_t> sum_first;
  std::vector<std::uint64_t> sum_second;
  std::vector<std::uint8_t> lane_accepted;

  std::size_t accepted_count() const;
  bool all_accepted() const;
};

/// Evaluates a fixed parameter batch against instances.
///
/// Construction precomputes, per lane, the Barrett reciprocal of p2
/// and — when every lane fits the 32-bit Shoup kernel (p1, p2 < 2^31,
/// always true for paper-sized parameters) — the table of squared
/// powers x^(2^j) mod p2 with their Shoup companions, padded to the
/// lane-group width. `Evaluate` then makes ONE pass over the value
/// stream: each value's bits update every lane's residue accumulator,
/// and each finished residue multiplies every lane's sum via the
/// precomputed tables.
///
/// The level picks the schedule, never the result:
///   kScalar         lane-major reference loop (ModUint64 + Barrett
///                   PowMod per lane — literally AcceptsWithParams
///                   repeated), the baseline the roofline bench
///                   measures against;
///   kLanes4/kLanes8 value-major one-pass schedule over groups of 4/8
///                   lanes, executed by AVX2 kernels when the CPU has
///                   them, by the `simd::U64x2` wrapper otherwise, and
///                   by exact scalar loops when some lane's modulus
///                   exceeds the 32-bit kernel's domain.
class BatchFingerprintEngine {
 public:
  explicit BatchFingerprintEngine(
      FingerprintParamBatch batch,
      simd::SimdLevel level = simd::ResolveSimdLevel());

  const FingerprintParamBatch& params() const { return batch_; }
  simd::SimdLevel level() const { return level_; }
  std::size_t lanes() const { return batch_.lanes(); }

  /// True when lane groups actually execute on vector units (AVX2 or
  /// NEON); false for the scalar level, for hardware without vector
  /// kernels, and for out-of-domain moduli. Diagnostic only — the
  /// tallies do not depend on it.
  bool vectorized() const { return vectorized_; }

  /// One pass over `instance`'s two value lists; exact per-lane sums
  /// and verdicts.
  BatchTally Evaluate(const problems::Instance& instance) const;

 private:
  void EvaluateSideScalar(const std::vector<BitString>& values,
                          std::uint64_t* sums) const;
  void EvaluateSideOnePass(const std::vector<BitString>& values,
                           std::uint64_t* sums) const;

  FingerprintParamBatch batch_;
  simd::SimdLevel level_;
  bool one_pass_ = false;    // value-major schedule (kLanes4/kLanes8)
  bool narrow_ = false;      // all lanes fit the 32-bit Shoup kernel
  bool use_avx2_ = false;    // x86 AVX2 kernels selected at runtime
  bool vectorized_ = false;
  std::size_t padded_ = 0;   // lanes rounded up to the group width
  unsigned table_levels_ = 0;
  std::vector<std::uint64_t> p1_;     // padded SoA copies
  std::vector<std::uint64_t> p2_;
  std::vector<std::uint64_t> x_;
  std::vector<std::uint64_t> xpow_;   // [j * padded_ + lane] = x^(2^j) mod p2
  std::vector<std::uint64_t> xshoup_;  // floor(xpow << 32 / p2)
  std::vector<Barrett> barrett_p2_;   // one per real lane
};

/// Outcome of one k-fold amplified test.
struct AmplifiedOutcome {
  bool accepted = false;
  FingerprintParamBatch params;
  std::vector<std::uint8_t> lane_accepted;
};

/// The k-fold error-amplified multiset-equality tester: `lanes`
/// independent (p1, x) draws evaluated against the instance in one
/// stream pass, accepting iff every lane accepts. Equal multisets are
/// still always accepted (each lane is one-sided); unequal multisets
/// survive with probability at most (1/3 + O(1/m))^lanes. Fails only
/// when parameter sampling fails (astronomical m*n).
Result<AmplifiedOutcome> TestMultisetEqualityAmplified(
    const problems::Instance& instance, std::size_t lanes, Rng& rng,
    simd::SimdLevel level = simd::ResolveSimdLevel());

/// Residues of every value against every prime lane in one stream
/// pass: result[i * primes.size() + lane] = value_i mod primes[lane],
/// where value_i enumerates `instance.first` then `instance.second`.
/// Exact at every level (the level only picks the schedule).
std::vector<std::uint64_t> BatchResidues(
    const problems::Instance& instance,
    const std::vector<std::uint64_t>& primes,
    simd::SimdLevel level = simd::ResolveSimdLevel());

/// Batched Claim 1 estimator: trial group g (lane-width `lanes`) draws
/// its primes from the Rng of its first trial index, computes all
/// residues in one stream pass via `BatchResidues`, and tests each
/// prime lane for a collision. The tally is a pure function of
/// (instance, trials, seed, lanes) — identical at any thread count and
/// any SIMD level. Note the random schedule differs from the unbatched
/// estimator (one draw per trial Rng there, `lanes` draws per group
/// Rng here), so compare rates, not bits, across the two APIs.
Claim1Estimate EstimateClaim1CollisionRateBatched(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner, std::size_t lanes,
    simd::SimdLevel level = simd::ResolveSimdLevel());

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_BATCH_H_
