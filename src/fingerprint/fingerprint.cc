#include "fingerprint/fingerprint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "fingerprint/barrett.h"
#include "fingerprint/prime.h"
#include "fingerprint/prime_pool.h"
#include "stmodel/internal_arena.h"
#include "stmodel/tape_io.h"

namespace rstlab::fingerprint {

namespace {

/// ceil(log2(v)) for v >= 1, at least 1.
std::uint64_t CeilLog2(std::uint64_t v) {
  if (v <= 2) return 1;
  return static_cast<std::uint64_t>(std::bit_width(v - 1));
}

}  // namespace

Result<std::uint64_t> ComputeFingerprintK(std::size_t m, std::size_t n) {
  const unsigned __int128 m128 = m == 0 ? 1 : m;
  const unsigned __int128 n128 = n == 0 ? 1 : n;
  const unsigned __int128 mn = m128 * m128 * m128 * n128;
  if (mn > (static_cast<unsigned __int128>(1) << 62)) {
    return Status::OutOfRange("m^3 * n too large for 64-bit fingerprints");
  }
  const unsigned __int128 k =
      mn * CeilLog2(static_cast<std::uint64_t>(mn));
  if (k > (static_cast<unsigned __int128>(1) << 62) / 6) {
    return Status::OutOfRange("k too large for 64-bit fingerprints");
  }
  // The algorithm needs k >= 2 so a prime <= k exists.
  return std::max<std::uint64_t>(2, static_cast<std::uint64_t>(k));
}

std::size_t MaxValueBits(const problems::Instance& instance) {
  std::size_t n = 0;
  for (const BitString& v : instance.first) n = std::max(n, v.size());
  for (const BitString& v : instance.second) n = std::max(n, v.size());
  return n;
}

namespace {

/// Number of x in {1..p2-1} for which the fingerprint accepts under
/// prime p1 — the inner loop of the exact enumeration, with the fixed
/// modulus p2 reduced via Barrett instead of 128-bit division.
std::uint64_t CountAcceptingX(const problems::Instance& instance,
                              std::uint64_t p1, const Barrett& bp2) {
  // Residues are independent of x; hoist them out of the x loop.
  std::vector<std::uint64_t> e_first;
  std::vector<std::uint64_t> e_second;
  e_first.reserve(instance.first.size());
  e_second.reserve(instance.second.size());
  for (const BitString& v : instance.first) {
    e_first.push_back(v.ModUint64(p1));
  }
  for (const BitString& v : instance.second) {
    e_second.push_back(v.ModUint64(p1));
  }
  const std::uint64_t p2 = bp2.modulus();
  std::uint64_t accepting = 0;
  for (std::uint64_t x = 1; x < p2; ++x) {
    std::uint64_t sum_first = 0;
    std::uint64_t sum_second = 0;
    for (std::uint64_t e : e_first) {
      sum_first += bp2.PowMod(x, e);
      if (sum_first >= p2) sum_first -= p2;
    }
    for (std::uint64_t e : e_second) {
      sum_second += bp2.PowMod(x, e);
      if (sum_second >= p2) sum_second -= p2;
    }
    accepting += sum_first == sum_second;
  }
  return accepting;
}

/// The Claim 1 event for one concrete prime p.
bool HasResidueCollisionMod(const problems::Instance& instance,
                            std::uint64_t p) {
  std::vector<std::uint64_t> residues;
  residues.reserve(instance.first.size() + instance.second.size());
  for (const BitString& v : instance.first) residues.push_back(v.ModUint64(p));
  for (const BitString& v : instance.second) residues.push_back(v.ModUint64(p));
  return HasResidueCollision(instance, residues);
}

/// Shared setup of the exact enumeration: the Bertrand prime p2 and the
/// sieved pool of candidate p1 primes.
struct ExactEnumeration {
  std::uint64_t p2 = 0;
  PrimePool pool;
};

Result<ExactEnumeration> PrepareExactEnumeration(
    const problems::Instance& instance, std::uint64_t max_k) {
  Result<std::uint64_t> k_result =
      ComputeFingerprintK(instance.m(), MaxValueBits(instance));
  if (!k_result.ok()) return k_result.status();
  const std::uint64_t k = k_result.value();
  if (k > max_k) {
    return Status::OutOfRange("k = " + std::to_string(k) +
                              " too large for exact enumeration");
  }
  Result<std::uint64_t> p2_result = PrimeInBertrandInterval(k);
  if (!p2_result.ok()) return p2_result.status();
  ExactEnumeration prep{p2_result.value(), PrimePool(k)};
  if (prep.pool.Count() == 0) return Status::Internal("no primes <= k");
  return prep;
}

}  // namespace

bool HasResidueCollision(const problems::Instance& instance,
                         const std::vector<std::uint64_t>& residues) {
  const std::size_t m_first = instance.first.size();
  const auto value = [&](std::size_t index) -> const BitString& {
    return index < m_first ? instance.first[index]
                           : instance.second[index - m_first];
  };
  // (residue, index) pairs in ascending order: equal residues form one
  // run, and within a run the first list's indices come first.
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed(residues.size());
  for (std::size_t i = 0; i < residues.size(); ++i) {
    keyed[i] = {residues[i], i};
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t lo = 0; lo < keyed.size();) {
    std::size_t hi = lo + 1;
    while (hi < keyed.size() && keyed[hi].first == keyed[lo].first) ++hi;
    // A run that holds values of both lists has an unequal pair across
    // them iff not all of its values are equal: if a first-list v and a
    // second-list w are equal, any u differing from them pairs with one.
    if (keyed[lo].second < m_first && keyed[hi - 1].second >= m_first) {
      const BitString& head = value(keyed[lo].second);
      for (std::size_t i = lo + 1; i < hi; ++i) {
        if (value(keyed[i].second) != head) return true;
      }
    }
    lo = hi;
  }
  return false;
}

Result<FingerprintParams> SampleFingerprintParams(std::size_t m,
                                                  std::size_t n,
                                                  Rng& rng) {
  FingerprintParams params;
  Result<std::uint64_t> k = ComputeFingerprintK(m, n);
  if (!k.ok()) return k.status();
  params.k = k.value();
  Result<std::uint64_t> p1 = RandomPrimeAtMost(params.k, rng);
  if (!p1.ok()) return p1.status();
  params.p1 = p1.value();
  Result<std::uint64_t> p2 = PrimeInBertrandInterval(params.k);
  if (!p2.ok()) return p2.status();
  params.p2 = p2.value();
  params.x = rng.UniformInRange(1, params.p2 - 1);
  return params;
}

bool AcceptsWithParams(const problems::Instance& instance,
                       const FingerprintParams& params) {
  // p2 is fixed for the whole accumulation; reduce it via Barrett.
  const Barrett bp2(params.p2);
  std::uint64_t sum_first = 0;
  std::uint64_t sum_second = 0;
  for (const BitString& v : instance.first) {
    const std::uint64_t e = v.ModUint64(params.p1);
    sum_first += bp2.PowMod(params.x, e);
    if (sum_first >= params.p2) sum_first -= params.p2;
  }
  for (const BitString& v : instance.second) {
    const std::uint64_t e = v.ModUint64(params.p1);
    sum_second += bp2.PowMod(params.x, e);
    if (sum_second >= params.p2) sum_second -= params.p2;
  }
  return sum_first == sum_second;
}

FingerprintOutcome TestMultisetEquality(const problems::Instance& instance,
                                        Rng& rng) {
  FingerprintOutcome outcome;
  Result<FingerprintParams> params =
      SampleFingerprintParams(instance.m(), MaxValueBits(instance), rng);
  // Parameter sampling only fails on astronomically large m*n (beyond
  // what fits in memory). Accepting on failure keeps the one-sided
  // guarantee intact: false accepts are the permitted error direction,
  // false rejects never are.
  if (!params.ok()) {
    outcome.accepted = true;
    return outcome;
  }
  outcome.params = params.value();
  outcome.accepted = AcceptsWithParams(instance, outcome.params);
  return outcome;
}

Result<FingerprintOutcome> TestMultisetEqualityOnTapes(
    stmodel::StContext& ctx, Rng& rng) {
  tape::Tape& in = ctx.tape(0);
  stmodel::InternalArena& arena = ctx.arena();
  const std::size_t N = std::max<std::size_t>(1, ctx.input_size());

  // ---- Scan 1: determine m and n (step 1). O(log N)-bit counters. ----
  const std::size_t ctr_bits = stmodel::BitsFor(N);
  stmodel::MeteredUint64 num_fields(arena, ctr_bits);
  stmodel::MeteredUint64 field_len(arena, ctr_bits);
  stmodel::MeteredUint64 max_len(arena, ctr_bits);

  // Each cell is read exactly ONCE into a register (2N + 1 reads for
  // the whole two-scan run, including the terminal blank probe): the
  // model charges a scan one visit per cell, so re-reading under a
  // stationary head would inflate the obs event counts and extmem
  // cache statistics relative to Definition 1.
  stmodel::Rewind(in);
  char cell = in.Read();
  while (cell != tape::kBlank) {
    if (cell == stmodel::kFieldSeparator) {
      max_len = std::max(max_len.get(), field_len.get());
      field_len = 0;
      num_fields = num_fields.get() + 1;
    } else if (cell == '0' || cell == '1') {
      field_len = field_len.get() + 1;
    } else {
      return Status::InvalidArgument("non-binary character in field");
    }
    in.MoveRight();
    cell = in.Read();
  }
  if (in.head() < ctx.input_size()) {
    return Status::InvalidArgument("blank cell inside input");
  }
  if (field_len.get() != 0) {
    return Status::InvalidArgument(
        "unterminated field: instance must end with '#'");
  }
  if (num_fields.get() == 0) {
    return Status::InvalidArgument("empty input tape");
  }
  if (num_fields.get() % 2 != 0) {
    return Status::InvalidArgument(
        "odd field count: instance must have 2m fields");
  }
  const std::size_t m = static_cast<std::size_t>(num_fields.get() / 2);
  const std::size_t n = static_cast<std::size_t>(max_len.get());

  // ---- Steps 2-4: sample p1, p2, x in internal memory. ----
  Result<FingerprintParams> params_result =
      SampleFingerprintParams(m, n, rng);
  if (!params_result.ok()) return params_result.status();
  const FingerprintParams params = params_result.value();
  // Account for the O(log N)-bit registers holding k, p1, p2, x and the
  // arithmetic scratch (Theorem 8(a): "with numbers of length O(log N)
  // we can carry out the necessary arithmetic").
  stmodel::MeteredUint64 reg_p1(arena, stmodel::BitsFor(params.p1),
                                params.p1);
  stmodel::MeteredUint64 reg_p2(arena, stmodel::BitsFor(params.p2),
                                params.p2);
  stmodel::MeteredUint64 reg_x(arena, stmodel::BitsFor(params.p2),
                               params.x);
  stmodel::MeteredUint64 residue(arena, stmodel::BitsFor(params.p1));
  stmodel::MeteredUint64 power(arena, stmodel::BitsFor(params.p1));
  stmodel::MeteredUint64 sum_first(arena, stmodel::BitsFor(params.p2));
  stmodel::MeteredUint64 sum_second(arena, stmodel::BitsFor(params.p2));
  stmodel::MeteredUint64 field_index(arena, ctr_bits);

  // ---- Scan 2: one BACKWARD pass (exactly one head reversal, so the
  // whole run uses the paper's two sequential scans). Reading a value
  // right-to-left, e_i = sum_j bit_j * 2^j mod p1 is accumulated with an
  // incrementally maintained power of two (step 5, reversed). ----
  residue = 0;
  power = 1 % reg_p1.get();
  field_index = 2 * m;  // counts down; fields are met in reverse order
  bool in_field = false;
  // Head is one past the last '#' after scan 1; walk left to cell 0.
  std::size_t remaining = in.head();
  auto finalize_field = [&]() {
    field_index = field_index.get() - 1;
    const std::uint64_t term =
        PowMod(reg_x.get(), residue.get(), reg_p2.get());
    if (field_index.get() < m) {
      sum_first = (sum_first.get() + term) % reg_p2.get();
    } else {
      sum_second = (sum_second.get() + term) % reg_p2.get();
    }
    residue = 0;
    power = 1 % reg_p1.get();
  };
  while (remaining > 0) {
    in.MoveLeft();
    --remaining;
    const char c = in.Read();
    if (c == stmodel::kFieldSeparator) {
      if (in_field) finalize_field();
      in_field = true;  // a '#' opens the field to its left
    } else {
      residue = (residue.get() +
                 (c == '1' ? power.get() : 0) % reg_p1.get()) %
                reg_p1.get();
      power = MulMod(power.get(), 2, reg_p1.get());
    }
  }
  if (in_field) finalize_field();
  if (field_index.get() != 0) {
    return Status::Internal("backward scan lost field alignment");
  }

  FingerprintOutcome outcome;
  outcome.params = params;
  outcome.accepted = sum_first.get() == sum_second.get();
  return outcome;
}

Result<double> ExactAcceptProbability(const problems::Instance& instance,
                                      std::uint64_t max_k) {
  Result<ExactEnumeration> prep = PrepareExactEnumeration(instance, max_k);
  if (!prep.ok()) return prep.status();
  const ExactEnumeration& enumeration = prep.value();
  const Barrett bp2(enumeration.p2);
  std::uint64_t accepting = 0;
  for (std::uint64_t i = 0; i < enumeration.pool.Count(); ++i) {
    accepting += CountAcceptingX(instance, enumeration.pool.At(i), bp2);
  }
  const std::uint64_t total =
      enumeration.pool.Count() * (enumeration.p2 - 1);
  return static_cast<double>(accepting) / static_cast<double>(total);
}

Result<double> ExactAcceptProbability(const problems::Instance& instance,
                                      parallel::TrialRunner& runner,
                                      std::uint64_t max_k) {
  Result<ExactEnumeration> prep = PrepareExactEnumeration(instance, max_k);
  if (!prep.ok()) return prep.status();
  const ExactEnumeration& enumeration = prep.value();
  const Barrett bp2(enumeration.p2);
  struct AcceptTally {
    std::uint64_t accepting = 0;
    void Merge(const AcceptTally& other) { accepting += other.accepting; }
  };
  const AcceptTally tally = runner.Run<AcceptTally>(
      enumeration.pool.Count(),
      [&](std::uint64_t prime_index, AcceptTally& local) {
        local.accepting += CountAcceptingX(
            instance, enumeration.pool.At(prime_index), bp2);
      });
  const std::uint64_t total =
      enumeration.pool.Count() * (enumeration.p2 - 1);
  return static_cast<double>(tally.accepting) /
         static_cast<double>(total);
}

double EstimateClaim1CollisionRate(const problems::Instance& instance,
                                   std::size_t trials, Rng& rng) {
  Result<std::uint64_t> k_result =
      ComputeFingerprintK(instance.m(), MaxValueBits(instance));
  if (!k_result.ok() || trials == 0) return 0.0;
  const PrimePool pool(k_result.value());

  std::size_t collisions = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    Result<std::uint64_t> p = pool.Sample(rng);
    if (!p.ok()) continue;
    if (HasResidueCollisionMod(instance, p.value())) ++collisions;
  }
  return static_cast<double>(collisions) / static_cast<double>(trials);
}

Claim1Estimate EstimateClaim1CollisionRate(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner) {
  Result<std::uint64_t> k_result =
      ComputeFingerprintK(instance.m(), MaxValueBits(instance));
  if (!k_result.ok() || trials == 0) return Claim1Estimate{};
  // Sieve once on the calling thread; workers only read.
  return EstimateClaim1CollisionRate(instance, trials, seed, runner,
                                     PrimePool(k_result.value()));
}

Claim1Estimate EstimateClaim1CollisionRate(
    const problems::Instance& instance, std::size_t trials,
    std::uint64_t seed, parallel::TrialRunner& runner,
    const PrimePool& pool) {
  Claim1Estimate estimate;
  const parallel::SeedSequence seeds(seed);
  struct CollisionTally {
    std::uint64_t trials = 0;
    std::uint64_t collisions = 0;
    void Merge(const CollisionTally& other) {
      trials += other.trials;
      collisions += other.collisions;
    }
  };
  const CollisionTally tally = runner.RunSeeded<CollisionTally>(
      trials, seeds,
      [&](std::uint64_t, Rng& rng, CollisionTally& local) {
        Result<std::uint64_t> p = pool.Sample(rng);
        if (!p.ok()) return;
        ++local.trials;
        if (HasResidueCollisionMod(instance, p.value())) ++local.collisions;
      });
  // The rate denominator stays the requested trial count (failed prime
  // draws are impossible in the sieved regime and merely skipped
  // otherwise, matching the serial estimator).
  estimate.trials = trials;
  estimate.collisions = tally.collisions;
  return estimate;
}

}  // namespace rstlab::fingerprint
