#ifndef RSTLAB_FINGERPRINT_FINGERPRINT_H_
#define RSTLAB_FINGERPRINT_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "parallel/trial_runner.h"
#include "problems/instance.h"
#include "stmodel/st_context.h"
#include "util/random.h"
#include "util/status.h"

namespace rstlab::fingerprint {

class PrimePool;

/// The random parameters of one fingerprinting trial (Theorem 8(a)).
struct FingerprintParams {
  std::uint64_t k = 0;   // k = m^3 * n * ceil(log2(m^3 * n))
  std::uint64_t p1 = 0;  // random prime <= k        (step 2)
  std::uint64_t p2 = 0;  // fixed prime in (3k, 6k]  (step 3)
  std::uint64_t x = 0;   // uniform in {1,...,p2-1}  (step 4)
};

/// The paper's k = m^3 * n * ceil(log2(m^3 * n)), clamped to >= 2 so a
/// prime <= k exists; fails when 6k would overflow the uint64
/// arithmetic (step 3 needs the Bertrand prime p2 <= 6k).
Result<std::uint64_t> ComputeFingerprintK(std::size_t m, std::size_t n);

/// The longest value length in the instance (the paper's n).
std::size_t MaxValueBits(const problems::Instance& instance);

/// Samples fingerprint parameters for m values of n bits. Fails if the
/// derived k overflows the uint64 arithmetic (m^3 * n * log must stay
/// below 2^63 / 6).
Result<FingerprintParams> SampleFingerprintParams(std::size_t m,
                                                  std::size_t n, Rng& rng);

/// Outcome of one fingerprinting run.
struct FingerprintOutcome {
  bool accepted = false;
  FingerprintParams params;
};

/// The randomized multiset-equality tester of Theorem 8(a), host-memory
/// version: computes e_i = v_i mod p1 and accepts iff
/// sum_i x^{e_i} == sum_i x^{e'_i} (mod p2).
///
/// (The paper's step (5) prints "mod p1" for the accumulation — a typo;
/// equation (1) and the correctness proof, which views the fingerprint as
/// a polynomial over F_{p2}, require p2. We implement equation (1).)
///
/// Guarantees: equal multisets are always accepted (no false negatives —
/// the co-RST one-sided-error regime); unequal multisets are accepted
/// with probability at most 1/3 + O(1/m) <= 1/2 for large m.
FingerprintOutcome TestMultisetEquality(const problems::Instance& instance,
                                        Rng& rng);

/// Deterministic core of the tester for a fixed parameter choice
/// (exposed so error-probability experiments can average over params).
bool AcceptsWithParams(const problems::Instance& instance,
                       const FingerprintParams& params);

/// The tape-level implementation: a (2, O(log N), 1)-bounded run on `ctx`
/// whose input tape holds an encoded instance. Performs one forward scan
/// to determine m and n, one reversal, and a second forward scan
/// accumulating the fingerprints; never writes to external memory. The
/// context's ResourceReport afterwards shows r = 2 and s = O(log N).
Result<FingerprintOutcome> TestMultisetEqualityOnTapes(
    stmodel::StContext& ctx, Rng& rng);

/// Empirical estimate of the Claim 1 collision event for one random
/// prime draw: given the two value lists, the fraction of `trials`
/// independent primes p <= k for which some pair v_i != v'_j collides
/// mod p. Claim 1 bounds the true probability by O(1/m).
double EstimateClaim1CollisionRate(const problems::Instance& instance,
                                   std::size_t trials, Rng& rng);

/// The Claim 1 event for one prime p: is there a pair v_i != v'_j of a
/// first-list and a second-list value with v_i = v'_j (mod p)?
/// `residues` holds every value of `instance` mod p, the first list's
/// in order and then the second's (the value order of BatchResidues).
bool HasResidueCollision(const problems::Instance& instance,
                         const std::vector<std::uint64_t>& residues);

/// Integer tally of the Claim 1 Monte-Carlo estimate, kept exact so
/// runs at different thread counts can be compared bit for bit.
struct Claim1Estimate {
  std::uint64_t trials = 0;
  std::uint64_t collisions = 0;
  double rate() const {
    return trials == 0
               ? 0.0
               : static_cast<double>(collisions) / static_cast<double>(trials);
  }
};

/// Parallel Claim 1 estimator: trial t draws its prime from an Rng
/// derived from (seed, t) via parallel::SeedSequence, so the tally is a
/// pure function of (instance, trials, seed) — identical for any thread
/// count. The primes <= k are sieved once into a PrimePool shared
/// read-only across workers.
Claim1Estimate EstimateClaim1CollisionRate(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner);

/// The same estimator over a caller-owned pool, so a caller that keeps
/// the pool for several requests sieves it once. `pool` must hold the
/// primes <= ComputeFingerprintK(instance.m(), MaxValueBits(instance));
/// the tally then equals the overload above bit for bit.
Claim1Estimate EstimateClaim1CollisionRate(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner,
    const PrimePool& pool);

/// The EXACT acceptance probability of the Theorem 8(a) algorithm on
/// `instance`, computed by full enumeration of the random choices: all
/// primes p1 <= k (uniform over primes) and all x in {1..p2-1}
/// (uniform), with p2 the algorithm's fixed Bertrand prime. On unequal
/// multisets this is the exact false-positive probability the paper
/// bounds by 1/3 + O(1/m); on equal multisets it is exactly 1.
///
/// Enumeration costs O(pi(k) * p2 * m) fingerprint evaluations, so this
/// is for tiny parameters (k up to a few thousand) — which is precisely
/// where the paper's constants are least comfortable and an exact
/// number is most interesting. Fails if k exceeds `max_k`.
Result<double> ExactAcceptProbability(const problems::Instance& instance,
                                      std::uint64_t max_k = 5000);

/// Parallel exact enumeration: the outer p1 prime axis (sieved once
/// into a PrimePool) is mapped over `runner`; each prime's inner x loop
/// runs with a Barrett-reduced fixed-p2 kernel. The result is exactly
/// the serial ExactAcceptProbability (the accept counts are integers,
/// so the deterministic chunk merge is trivially exact).
Result<double> ExactAcceptProbability(const problems::Instance& instance,
                                      parallel::TrialRunner& runner,
                                      std::uint64_t max_k = 5000);

}  // namespace rstlab::fingerprint

#endif  // RSTLAB_FINGERPRINT_FINGERPRINT_H_
