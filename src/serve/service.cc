#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "fingerprint/batch.h"
#include "fingerprint/fingerprint.h"
#include "fingerprint/prime.h"
#include "fingerprint/prime_pool.h"
#include "parallel/bench_recorder.h"
#include "parallel/seed_sequence.h"
#include "parallel/trial_runner.h"
#include "problems/disjoint_sets.h"
#include "problems/generators.h"
#include "problems/instance.h"
#include "query/xml.h"
#include "query/xpath.h"
#include "serve/json.h"
#include "sorting/deciders.h"
#include "stmodel/st_context.h"

namespace rstlab::serve {

namespace {

using parallel::Checksum64;

/// Everything the Theorem 8(a) tester and the Claim 1 estimator need
/// that depends only on (m, n): the parameter k, the fixed Bertrand
/// prime p2 and the compact pool of candidate p1 primes. One artifact
/// per (m, n), shared by every fingerprint and claim1 request and every
/// trial.
struct FingerprintSetup {
  std::uint64_t k = 0;
  std::uint64_t p2 = 0;
  fingerprint::PrimePool pool;
};

/// The cached (m, n) setup of `instance`; fails when k or p2 is out of
/// the 64-bit range.
Result<std::shared_ptr<const FingerprintSetup>> GetFingerprintSetup(
    ArtifactCache& cache, const problems::Instance& instance) {
  const std::size_t m = instance.m();
  const std::size_t n = fingerprint::MaxValueBits(instance);
  Result<std::uint64_t> k = fingerprint::ComputeFingerprintK(m, n);
  if (!k.ok()) return k.status();
  std::shared_ptr<const FingerprintSetup> setup =
      cache.GetOrCreate<FingerprintSetup>(
          "fingerprint-setup", std::to_string(m) + ":" + std::to_string(n),
          [&]() -> std::shared_ptr<const FingerprintSetup> {
            Result<std::uint64_t> p2 =
                fingerprint::PrimeInBertrandInterval(k.value());
            if (!p2.ok()) return nullptr;
            return std::make_shared<const FingerprintSetup>(
                FingerprintSetup{k.value(), p2.value(),
                                 fingerprint::PrimePool(k.value())});
          });
  if (setup == nullptr) {
    Result<std::uint64_t> p2 =
        fingerprint::PrimeInBertrandInterval(k.value());
    return p2.ok() ? Status::Internal("fingerprint setup cache miss")
                   : p2.status();
  }
  return setup;
}

/// Generates the instance a GeneratorSpec describes (pure function of
/// the spec).
problems::Instance GenerateInstance(const GeneratorSpec& spec) {
  Rng rng(spec.seed);
  const std::size_t m = static_cast<std::size_t>(spec.m);
  const std::size_t n = static_cast<std::size_t>(spec.n);
  if (spec.kind == "equal") return problems::EqualMultisets(m, n, rng);
  if (spec.kind == "perturbed") {
    return problems::PerturbedMultisets(m, n, 1, rng);
  }
  if (spec.kind == "sorted") return problems::SortedPair(m, n, rng);
  if (spec.kind == "misordered") {
    return problems::MisorderedPair(m, n, rng);
  }
  return problems::DisjointSets(m, n, rng);  // kinds validated at parse
}

void EmitTrialPair(NdjsonTraceSink* events, bool stream,
                   std::uint64_t trial) {
  if (events == nullptr || !stream) return;
  events->OnEvent(obs::MakeTrialEvent(obs::EventKind::kTrialBegin, trial));
  events->OnEvent(obs::MakeTrialEvent(obs::EventKind::kTrialEnd, trial));
}

}  // namespace

std::string ExperimentResult::ToJson() const {
  JsonWriter writer;
  writer.Field("event", "result")
      .Field("request_id", request_id)
      .Field("problem", problem)
      .Field("trials", executed_trials)
      .Field("accepts", accepts)
      .Field("checksum", checksum)
      .Field("extra", extra);
  if (report.has_value()) {
    writer.Field("r", report->scan_bound)
        .Field("s", static_cast<std::uint64_t>(report->internal_space))
        .Field("t",
               static_cast<std::uint64_t>(report->num_external_tapes))
        .Field("ext",
               static_cast<std::uint64_t>(report->external_space));
  }
  writer.Field("budget_ok", budget_ok);
  return writer.Build();
}

ExperimentService::ExperimentService(ArtifactCache& cache,
                                     sorting::RunOptions run)
    : cache_(cache), run_(std::move(run)) {}

Result<ExperimentResult> ExperimentService::Execute(
    const ExperimentRequest& request, NdjsonTraceSink* events) {
  ExperimentResult result;
  result.request_id = request.request_id;
  result.problem = request.problem;

  // --- test-sleep: a worker-occupancy diagnostic, no instance. ---
  if (request.problem == "test-sleep") {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(request.sleep_ms));
    result.executed_trials = 1;
    result.checksum = Checksum64({request.sleep_ms});
    EmitTrialPair(events, request.stream, 0);
    return result;
  }

  // --- xpath-count: parsed query and document are cached artifacts. ---
  if (request.problem == "xpath-count") {
    std::shared_ptr<const query::XPathPath> path =
        cache_.GetOrCreate<query::XPathPath>(
            "xpath", request.xpath_query,
            [&]() -> std::shared_ptr<const query::XPathPath> {
              Result<query::XPathPath> parsed =
                  query::ParseXPath(request.xpath_query);
              if (!parsed.ok()) return nullptr;
              return std::make_shared<query::XPathPath>(
                  std::move(parsed).value());
            });
    if (path == nullptr) {
      // Re-parse outside the cache to surface the named error.
      Result<query::XPathPath> parsed =
          query::ParseXPath(request.xpath_query);
      return parsed.ok() ? Status::Internal("xpath cache miss")
                         : parsed.status();
    }
    std::shared_ptr<const query::XmlNode> document =
        cache_.GetOrCreate<query::XmlNode>(
            "xml", request.xml_text,
            [&]() -> std::shared_ptr<const query::XmlNode> {
              Result<query::XmlDocument> parsed =
                  query::ParseXml(request.xml_text);
              if (!parsed.ok()) return nullptr;
              return std::shared_ptr<const query::XmlNode>(
                  std::move(parsed).value().release());
            });
    if (document == nullptr) {
      Result<query::XmlDocument> parsed =
          query::ParseXml(request.xml_text);
      return parsed.ok() ? Status::Internal("xml cache miss")
                         : parsed.status();
    }
    const std::vector<const query::XmlNode*> selected =
        query::EvalPath(*document, *path);
    result.executed_trials = 1;
    result.extra = selected.size();
    result.checksum = Checksum64(
        {result.extra, HashContent(request.xpath_query)});
    EmitTrialPair(events, request.stream, 0);
    return result;
  }

  // --- Instance problems: resolve the (cached) parsed instance. ---
  std::string encoded;
  std::shared_ptr<const problems::Instance> instance;
  if (request.instance.has_value()) {
    encoded = *request.instance;
    instance = cache_.GetOrCreate<problems::Instance>(
        "instance", encoded,
        [&]() -> std::shared_ptr<const problems::Instance> {
          Result<problems::Instance> parsed =
              problems::Instance::Parse(encoded);
          if (!parsed.ok()) return nullptr;
          return std::make_shared<problems::Instance>(
              std::move(parsed).value());
        });
    if (instance == nullptr) {
      Result<problems::Instance> parsed =
          problems::Instance::Parse(encoded);
      return parsed.ok() ? Status::Internal("instance cache miss")
                         : parsed.status();
    }
  } else {
    instance = cache_.GetOrCreate<problems::Instance>(
        "generated", request.generator->CacheKey(),
        [&]() -> std::shared_ptr<const problems::Instance> {
          return std::make_shared<problems::Instance>(
              GenerateInstance(*request.generator));
        });
    encoded = instance->Encode();
  }
  if (instance->m() == 0) {
    return Status::InvalidArgument("instance has no values");
  }

  // --- Deterministic tape deciders: one metered run is the answer. ---
  if (request.problem == "set-equality" ||
      request.problem == "multiset-equality" ||
      request.problem == "check-sort" || request.problem == "disjoint") {
    stmodel::StContext ctx(sorting::kDeciderTapes, run_.storage);
    ctx.LoadInput(encoded);
    Result<bool> verdict = false;
    if (request.problem == "disjoint") {
      verdict = sorting::DecideDisjointOnTapes(ctx, run_.sort);
    } else {
      const problems::Problem problem =
          request.problem == "set-equality"
              ? problems::Problem::kSetEquality
              : request.problem == "multiset-equality"
                    ? problems::Problem::kMultisetEquality
                    : problems::Problem::kCheckSort;
      verdict = sorting::DecideOnTapes(problem, ctx, run_.sort);
    }
    if (!verdict.ok()) return verdict.status();
    const tape::ResourceReport report = ctx.Report();
    result.executed_trials = 1;
    result.accepts = verdict.value() ? 1 : 0;
    result.report = report;
    result.checksum =
        Checksum64({result.accepts, report.scan_bound,
                    static_cast<std::uint64_t>(report.internal_space)});
    if (request.budget.has_value()) {
      result.budget_ok = tape::Complies(
          report,
          tape::StBounds{
              request.budget->max_scans,
              static_cast<std::size_t>(request.budget->max_internal),
              static_cast<std::size_t>(request.budget->max_tapes)});
    }
    EmitTrialPair(events, request.stream, 0);
    return result;
  }

  // --- claim1: the parallel-engine estimator on a 1-thread runner,
  // which runs every trial on this thread (the scheduler provides
  // cross-request parallelism; within one request the 1-thread tally
  // equals the N-thread tally by the TrialRunner contract anyway), over
  // the cached (m, n) prime pool. ---
  if (request.problem == "claim1") {
    parallel::TrialRunner runner(1);
    if (request.stream) runner.set_trace(events);
    const auto trials = static_cast<std::size_t>(request.trials);
    Result<std::shared_ptr<const FingerprintSetup>> setup =
        GetFingerprintSetup(cache_, *instance);
    // Without a setup (k out of range) the self-sieving entry point
    // gives the answer it always gave: an empty estimate.
    const fingerprint::Claim1Estimate estimate =
        setup.ok() ? fingerprint::EstimateClaim1CollisionRate(
                         *instance, trials, request.seed, runner,
                         setup.value()->pool)
                   : fingerprint::EstimateClaim1CollisionRate(
                         *instance, trials, request.seed, runner);
    result.executed_trials = estimate.trials;
    result.extra = estimate.collisions;
    result.checksum = Checksum64({estimate.trials, estimate.collisions});
    return result;
  }

  // --- fingerprint: the Theorem 8(a) randomized tester. Trial t draws
  // (p1, x) from its own SeedSequence stream; the trials are evaluated
  // kFingerprintLaneGroup at a time as the lanes of one batch-engine
  // pass over the values, and folded and streamed in trial order. ---
  Result<std::shared_ptr<const FingerprintSetup>> setup_result =
      GetFingerprintSetup(cache_, *instance);
  if (!setup_result.ok()) return setup_result.status();
  const FingerprintSetup& setup = *setup_result.value();
  const parallel::SeedSequence seeds(request.seed);
  for (std::uint64_t first = 0; first < request.trials;
       first += kFingerprintLaneGroup) {
    const std::uint64_t end =
        std::min(request.trials, first + kFingerprintLaneGroup);
    fingerprint::FingerprintParamBatch batch;
    for (std::uint64_t trial = first; trial < end; ++trial) {
      Rng rng = seeds.RngForTrial(trial);
      Result<std::uint64_t> p1 = setup.pool.Sample(rng);
      if (!p1.ok()) {
        // The frames a trial-at-a-time loop sends before this failure.
        for (std::uint64_t t = first; t < trial; ++t) {
          EmitTrialPair(events, request.stream, t);
        }
        if (events != nullptr && request.stream) {
          events->OnEvent(
              obs::MakeTrialEvent(obs::EventKind::kTrialBegin, trial));
        }
        return p1.status();
      }
      const std::uint64_t x = rng.UniformInRange(1, setup.p2 - 1);
      batch.PushLane({setup.k, p1.value(), setup.p2, x});
    }
    const fingerprint::BatchFingerprintEngine engine(std::move(batch),
                                                     run_.simd);
    const fingerprint::BatchTally tally = engine.Evaluate(*instance);
    for (std::size_t lane = 0; lane < engine.lanes(); ++lane) {
      const std::uint64_t accepted = tally.lane_accepted[lane];
      result.accepts += accepted;
      result.checksum =
          Checksum64({result.checksum, engine.params().p1[lane],
                      engine.params().x[lane], accepted});
      EmitTrialPair(events, request.stream, first + lane);
    }
  }
  result.executed_trials = request.trials;

  // The metered tape replay: one (2, O(log N), 1)-bounded run bills the
  // (r, s, t) the budget is judged against. Parameters are drawn from a
  // dedicated stream past the trial range, so the tally above is
  // untouched.
  if (request.budget.has_value()) {
    stmodel::StContext ctx(1, run_.storage);
    ctx.LoadInput(encoded);
    Rng meter_rng(seeds.SeedForTrial(request.trials));
    Result<fingerprint::FingerprintOutcome> metered =
        fingerprint::TestMultisetEqualityOnTapes(ctx, meter_rng);
    if (!metered.ok()) return metered.status();
    const tape::ResourceReport report = ctx.Report();
    result.report = report;
    result.budget_ok = tape::Complies(
        report,
        tape::StBounds{
            request.budget->max_scans,
            static_cast<std::size_t>(request.budget->max_internal),
            static_cast<std::size_t>(request.budget->max_tapes)});
  }
  return result;
}

}  // namespace rstlab::serve
