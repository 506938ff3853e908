// The fingerprint-batch oracle: the batched SIMD engine promises
// tallies BIT-identical to the scalar reference path at every lane
// width, every thread count and every input — the gate that lets
// A1-A3/E1/E2 consume batches without changing a single recorded
// number. This suite drives three differentials per case:
//   1. engine sums/verdicts at {scalar, lanes4, lanes8} against each
//      other and against the per-lane AcceptsWithParams reference;
//   2. the batched Claim 1 estimator on a 1-thread vs an N-thread
//      runner (RunSeededBatches group layout must be schedule-free);
//   3. the hardened tape tester against Instance::Parse on possibly
//      corrupted encodings — the tape scan must accept exactly the
//      parseable non-empty encodings and replay its verdict on the
//      host.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "conform/case_id.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "problems/instance.h"
#include "stmodel/st_context.h"
#include "util/random.h"
#include "util/simd.h"

namespace rstlab::conform {

namespace {

using fingerprint::AcceptsWithParams;
using fingerprint::BatchFingerprintEngine;
using fingerprint::BatchTally;
using fingerprint::Claim1Estimate;
using fingerprint::FingerprintParamBatch;
using fingerprint::SampleFingerprintParamBatch;

struct BatchCase {
  std::size_t m = 2;
  std::size_t n = 4;
  std::size_t lanes = 4;
  std::size_t threads = 2;
  std::uint64_t workload_seed = 0;
  std::uint64_t claim_trials = 8;
  /// -1: well-formed encoding; otherwise one of the mutation kinds
  /// below applied to the encoding before the tape differential.
  int mutation = -1;
};

constexpr int kMutationKinds = 5;

/// Applies the case's mutation to a well-formed encoding.
std::string MutateEncoding(const std::string& encoded, int mutation,
                           Rng& rng) {
  std::string out = encoded;
  switch (mutation) {
    case 0:  // empty tape
      return "";
    case 1:  // lone separator (odd field count)
      return "#";
    case 2:  // truncate the final separator (unterminated field)
      if (!out.empty()) out.pop_back();
      return out.empty() ? "0" : out;
    case 3: {  // non-binary character inside a field
      const std::size_t pos =
          static_cast<std::size_t>(rng.UniformBelow(out.size()));
      out[pos] = '2';
      return out;
    }
    case 4: {  // blank cell inside the declared input
      const std::size_t pos =
          static_cast<std::size_t>(rng.UniformBelow(out.size()));
      out[pos] = '_';
      return out;
    }
    default:
      return out;
  }
}

std::string RenderTally(const BatchTally& tally) {
  std::string out = "sums=[";
  for (std::size_t i = 0; i < tally.sum_first.size(); ++i) {
    out += std::string(i == 0 ? "" : ",") +
           std::to_string(tally.sum_first[i]) + "/" +
           std::to_string(tally.sum_second[i]);
  }
  return out + "]";
}

/// "" when every differential agrees bit for bit.
std::string CheckBatchCase(const BatchCase& c) {
  Rng rng(c.workload_seed);
  const problems::Instance instance =
      c.workload_seed % 2 == 0
          ? problems::EqualMultisets(c.m, c.n, rng)
          : problems::PerturbedMultisets(
                c.m, c.n, 1 + rng.UniformBelow(c.m), rng);

  Result<FingerprintParamBatch> batch_result =
      SampleFingerprintParamBatch(c.m, c.n, c.lanes, rng);
  if (!batch_result.ok()) {
    return "parameter sampling failed: " +
           std::string(batch_result.status().message());
  }
  const FingerprintParamBatch& batch = batch_result.value();

  // ---- 1. Lane-width bit-identity against the scalar reference. ----
  const BatchFingerprintEngine scalar_engine(batch,
                                             simd::SimdLevel::kScalar);
  const BatchTally reference = scalar_engine.Evaluate(instance);
  for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
    const bool expected = AcceptsWithParams(instance, batch.Lane(lane));
    if ((reference.lane_accepted[lane] != 0) != expected) {
      return "scalar engine lane " + std::to_string(lane) +
             " disagrees with AcceptsWithParams";
    }
  }
  const simd::SimdLevel wide_levels[] = {simd::SimdLevel::kLanes4,
                                         simd::SimdLevel::kLanes8};
  for (const simd::SimdLevel level : wide_levels) {
    const BatchFingerprintEngine engine(batch, level);
    BatchTally tally = engine.Evaluate(instance);
    // Self-test fault: one flipped sum bit on one lane — the smallest
    // divergence a broken kernel could produce.
    if (FaultInjectionEnabled() && level == simd::SimdLevel::kLanes4) {
      tally.sum_first[0] ^= 1;
    }
    if (tally.sum_first != reference.sum_first ||
        tally.sum_second != reference.sum_second ||
        tally.lane_accepted != reference.lane_accepted) {
      return std::string("lane-width mismatch at ") +
             simd::SimdLevelName(level) + ": " + RenderTally(tally) +
             " vs scalar " + RenderTally(reference);
    }
  }

  // ---- 2. Thread bit-identity of the batched trial path. ----
  parallel::TrialRunner serial_runner(1);
  parallel::TrialRunner parallel_runner(c.threads);
  const Claim1Estimate serial = fingerprint::EstimateClaim1CollisionRateBatched(
      instance, c.claim_trials, c.workload_seed, serial_runner, c.lanes,
      simd::SimdLevel::kLanes8);
  const Claim1Estimate threaded =
      fingerprint::EstimateClaim1CollisionRateBatched(
          instance, c.claim_trials, c.workload_seed, parallel_runner,
          c.lanes, simd::SimdLevel::kScalar);
  if (serial.collisions != threaded.collisions ||
      serial.trials != threaded.trials) {
    return "batched Claim 1 tally: 1-thread/lanes8 " +
           std::to_string(serial.collisions) + "/" +
           std::to_string(serial.trials) + " vs " +
           std::to_string(c.threads) + "-thread/scalar " +
           std::to_string(threaded.collisions) + "/" +
           std::to_string(threaded.trials);
  }

  // ---- 3. Tape tester vs Instance::Parse on (mutated) encodings. ----
  std::string encoded = instance.Encode();
  if (c.mutation >= 0) encoded = MutateEncoding(encoded, c.mutation, rng);
  const Result<problems::Instance> parsed = problems::Instance::Parse(encoded);
  const bool expected_ok = !encoded.empty() && parsed.ok();
  stmodel::StContext ctx(1);
  ctx.LoadInput(encoded);
  Rng tape_rng(c.workload_seed + 1);
  const Result<fingerprint::FingerprintOutcome> tape_outcome =
      fingerprint::TestMultisetEqualityOnTapes(ctx, tape_rng);
  if (tape_outcome.ok() != expected_ok) {
    return "tape tester " +
           std::string(tape_outcome.ok() ? "accepted" : "rejected") +
           " encoding '" + encoded + "' but Instance::Parse " +
           std::string(expected_ok ? "accepts" : "rejects") + " it";
  }
  if (tape_outcome.ok() &&
      tape_outcome.value().accepted !=
          AcceptsWithParams(parsed.value(), tape_outcome.value().params)) {
    return "tape verdict does not replay on host for '" + encoded + "'";
  }
  return "";
}

std::string RenderBatchCase(const BatchCase& c) {
  return "m=" + std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " lanes=" + std::to_string(c.lanes) +
         " threads=" + std::to_string(c.threads) +
         " claim_trials=" + std::to_string(c.claim_trials) +
         " mutation=" + std::to_string(c.mutation) +
         " workload_seed=" + std::to_string(c.workload_seed);
}

class FingerprintBatchSuite final : public Suite {
 public:
  const char* name() const override { return "fingerprint-batch"; }
  const char* description() const override {
    return "scalar vs SIMD fingerprint tally bit-identity at every lane "
           "width and thread count";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    BatchCase c;
    c.m = 1 + static_cast<std::size_t>(rng.UniformBelow(6));
    c.n = 1 + static_cast<std::size_t>(rng.UniformBelow(16));
    c.lanes = 1 + static_cast<std::size_t>(rng.UniformBelow(9));
    c.threads = static_cast<std::size_t>(rng.UniformInRange(2, 6));
    c.claim_trials = 1 + rng.UniformBelow(16);
    c.workload_seed = rng.Next64();
    // Every third case exercises the malformed-encoding differential.
    c.mutation = index % 3 == 0
                     ? static_cast<int>(rng.UniformBelow(kMutationKinds))
                     : -1;

    CaseOutcome outcome;
    std::string failure = CheckBatchCase(c);
    if (failure.empty()) return outcome;

    // Shrink workload size first (m, n, lanes, trials); the seed,
    // thread count and mutation kind name the failure and stay fixed.
    const std::function<bool(const BatchCase&)> still_fails =
        [](const BatchCase& candidate) {
          return !CheckBatchCase(candidate).empty();
        };
    const std::function<std::vector<BatchCase>(const BatchCase&)>
        candidates = [](const BatchCase& current) {
          std::vector<BatchCase> out;
          if (current.m > 1) {
            BatchCase smaller = current;
            smaller.m = current.m / 2;
            out.push_back(smaller);
          }
          if (current.n > 1) {
            BatchCase shorter = current;
            shorter.n = current.n / 2;
            out.push_back(shorter);
          }
          if (current.lanes > 1) {
            BatchCase fewer = current;
            fewer.lanes = current.lanes - 1;
            out.push_back(fewer);
          }
          if (current.claim_trials > 1) {
            BatchCase quicker = current;
            quicker.claim_trials = current.claim_trials / 2;
            out.push_back(quicker);
          }
          return out;
        };
    ShrinkStats stats;
    const BatchCase shrunk = GreedyShrink(
        c, still_fails, candidates, /*max_attempts=*/200, &stats);

    outcome.passed = false;
    outcome.failure = CheckBatchCase(shrunk);
    outcome.counterexample = RenderBatchCase(shrunk);
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeFingerprintBatchSuite() {
  return std::make_unique<FingerprintBatchSuite>();
}

}  // namespace rstlab::conform
