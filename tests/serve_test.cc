#include <gtest/gtest.h>

#include <poll.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fingerprint/fingerprint.h"
#include "fingerprint/prime.h"
#include "fingerprint/prime_pool.h"
#include "obs/metrics.h"
#include "parallel/bench_recorder.h"
#include "parallel/seed_sequence.h"
#include "parallel/trial_runner.h"
#include "problems/generators.h"
#include "problems/instance.h"
#include "serve/artifact_cache.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard.h"
#include "serve/shutdown.h"
#include "serve/trace_bridge.h"
#include "sorting/deciders.h"
#include "sorting/run_options.h"
#include "stmodel/st_context.h"
#include "util/random.h"
#include "util/status.h"

namespace rstlab::serve {
namespace {

// ---------------------------------------------------------------------
// HTTP/1.1 parser edge cases. Every malformed input must map to a named
// status plus the HTTP code the server answers with — never a crash,
// never a silent acceptance.
// ---------------------------------------------------------------------

HttpParseResult Parse(std::string_view buffer) {
  return ParseHttpRequest(buffer, HttpLimits{});
}

TEST(HttpParseTest, ParsesSimpleGet) {
  const HttpParseResult r =
      Parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_EQ(r.progress, ParseProgress::kDone);
  EXPECT_EQ(r.request.method, "GET");
  EXPECT_EQ(r.request.target, "/healthz");
  EXPECT_EQ(r.request.version, "HTTP/1.1");
  ASSERT_NE(r.request.FindHeader("host"), nullptr);
  EXPECT_EQ(*r.request.FindHeader("host"), "x");
}

TEST(HttpParseTest, HeaderLookupIsCaseInsensitive) {
  const HttpParseResult r = Parse(
      "POST /v1/experiment HTTP/1.1\r\nCoNtEnT-LeNgTh: 2\r\n\r\nok");
  ASSERT_EQ(r.progress, ParseProgress::kDone);
  EXPECT_EQ(r.request.body, "ok");
  EXPECT_NE(r.request.FindHeader("content-length"), nullptr);
}

TEST(HttpParseTest, TruncatedHeadNeedsMore) {
  EXPECT_EQ(Parse("").progress, ParseProgress::kNeedMore);
  EXPECT_EQ(Parse("POST /v1/exp").progress, ParseProgress::kNeedMore);
  EXPECT_EQ(Parse("POST / HTTP/1.1\r\nHost: x\r\n").progress,
            ParseProgress::kNeedMore);
}

TEST(HttpParseTest, TruncatedBodyNeedsMore) {
  const HttpParseResult r = Parse(
      "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345");
  EXPECT_EQ(r.progress, ParseProgress::kNeedMore);
}

TEST(HttpParseTest, BadRequestLineIs400) {
  const HttpParseResult r = Parse("NONSENSE\r\nHost: x\r\n\r\n");
  ASSERT_EQ(r.progress, ParseProgress::kError);
  EXPECT_EQ(r.http_status, 400);
  EXPECT_EQ(r.error.code(), StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, NonNumericContentLengthIs400) {
  const HttpParseResult r = Parse(
      "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
  ASSERT_EQ(r.progress, ParseProgress::kError);
  EXPECT_EQ(r.http_status, 400);
  EXPECT_EQ(r.error.code(), StatusCode::kInvalidArgument);
}

TEST(HttpParseTest, OversizedDeclaredBodyIs413BeforeBodyArrives) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  // The declared length alone triggers the error — no body bytes sent.
  const HttpParseResult r = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n", limits);
  ASSERT_EQ(r.progress, ParseProgress::kError);
  EXPECT_EQ(r.http_status, 413);
  EXPECT_EQ(r.error.code(), StatusCode::kOutOfRange);
}

TEST(HttpParseTest, OversizedHeadIs431) {
  HttpLimits limits;
  limits.max_head_bytes = 128;
  std::string head = "GET / HTTP/1.1\r\nX-Pad: ";
  head.append(256, 'a');
  head += "\r\n\r\n";
  const HttpParseResult r = ParseHttpRequest(head, limits);
  ASSERT_EQ(r.progress, ParseProgress::kError);
  EXPECT_EQ(r.http_status, 431);
}

TEST(HttpParseTest, TransferEncodingOnRequestIs501) {
  const HttpParseResult r = Parse(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_EQ(r.progress, ParseProgress::kError);
  EXPECT_EQ(r.http_status, 501);
}

TEST(HttpParseTest, PipelinedRequestsConsumeExactly) {
  const std::string first =
      "POST /v1/experiment HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  const std::string second = "GET /metrics HTTP/1.1\r\n\r\n";
  const std::string buffer = first + second;

  const HttpParseResult r1 = Parse(buffer);
  ASSERT_EQ(r1.progress, ParseProgress::kDone);
  EXPECT_EQ(r1.consumed, first.size());
  EXPECT_EQ(r1.request.body, "abc");

  const HttpParseResult r2 =
      Parse(std::string_view(buffer).substr(r1.consumed));
  ASSERT_EQ(r2.progress, ParseProgress::kDone);
  EXPECT_EQ(r2.request.method, "GET");
  EXPECT_EQ(r2.request.target, "/metrics");
  EXPECT_EQ(r2.consumed, second.size());
}

TEST(HttpParseTest, StatusMappingCoversProtocolCodes) {
  EXPECT_EQ(HttpStatusForError(Status::OK()), 200);
  EXPECT_EQ(HttpStatusForError(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpStatusForError(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpStatusForError(Status::OutOfRange("x")), 413);
  EXPECT_EQ(HttpStatusForError(Status::ResourceExhausted("x")), 429);
  EXPECT_EQ(HttpStatusForError(Status::FailedPrecondition("x")), 503);
  EXPECT_EQ(HttpStatusForError(Status::Internal("x")), 500);
}

// ---------------------------------------------------------------------
// JSON parser and writer.
// ---------------------------------------------------------------------

TEST(JsonTest, ParsesNestedDocument) {
  const Result<JsonValue> parsed = JsonValue::Parse(
      R"({"a":1,"b":"x","c":[1,2,3],"d":{"e":true},"f":null})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("a")->uint_value(), 1u);
  EXPECT_EQ(root.Find("b")->string_value(), "x");
  EXPECT_EQ(root.Find("c")->array_items().size(), 3u);
  EXPECT_TRUE(root.Find("d")->Find("e")->bool_value());
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(JsonTest, Uint64FieldsRoundTripExactly) {
  const std::uint64_t seed = 18104395783060395222ULL;
  const std::string doc = "{\"seed\":" + std::to_string(seed) + "}";
  const Result<JsonValue> parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().Find("seed")->is_uint());
  EXPECT_EQ(parsed.value().Find("seed")->uint_value(), seed);
}

TEST(JsonTest, MalformedDocumentsAreNamedErrors) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "{\"a\":1,}", "[1,2", "{\"a\" 1}", "tru",
        "{\"a\":1}x", "\"unterminated", "{\"a\":--3}"}) {
    const Result<JsonValue> parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(JsonTest, SurrogatePairsDecodeToFourByteUtf8) {
  // A high+low surrogate escape pair (U+1F600) must decode to one
  // 4-byte UTF-8 sequence, not two 3-byte CESU-8 surrogate encodings.
  const Result<JsonValue> parsed = JsonValue::Parse(
      "{\"e\":\"\\uD83D\\uDE00\",\"bmp\":\"\\u00E9\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().Find("e")->string_value(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(parsed.value().Find("bmp")->string_value(), "\xC3\xA9");
}

TEST(JsonTest, LoneSurrogatesAreRejected) {
  const std::string bad_bodies[] = {
      R"({"e":"\uD83D"})",                 // high surrogate ends the string
      R"({"e":"\uD83Dxy"})",               // high surrogate, no \u follows
      "{\"e\":\"\\uD83D\\u0041\"}",        // \u follows but is not low
      R"({"e":"\uDE00"})",                 // low surrogate first
  };
  for (const std::string& bad : bad_bodies) {
    const Result<JsonValue> parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(JsonTest, WriterEscapesStrings) {
  const std::string doc = JsonWriter()
                              .Field("k", "a\"b\\c\nd")
                              .Field("n", std::uint64_t{7})
                              .Build();
  EXPECT_EQ(doc, "{\"k\":\"a\\\"b\\\\c\\nd\",\"n\":7}");
  // Writer output must re-parse to the same values.
  const Result<JsonValue> parsed = JsonValue::Parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Find("k")->string_value(), "a\"b\\c\nd");
}

// ---------------------------------------------------------------------
// Experiment request validation: every rejection is a named status.
// ---------------------------------------------------------------------

TEST(RequestTest, ParsesFingerprintRequest) {
  const Result<ExperimentRequest> r = ParseExperimentRequest(
      R"({"request_id":"r1","tenant":"alice","problem":"fingerprint",
          "generator":{"kind":"equal","m":16,"n":12,"seed":3},
          "trials":8,"seed":42,"stream":true})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().request_id, "r1");
  EXPECT_EQ(r.value().tenant, "alice");
  ASSERT_TRUE(r.value().generator.has_value());
  EXPECT_EQ(r.value().generator->CacheKey(), "equal:16:12:3");
  EXPECT_EQ(r.value().trials, 8u);
  EXPECT_TRUE(r.value().stream);
}

TEST(RequestTest, UnknownProblemIsNotFound) {
  const Result<ExperimentRequest> r = ParseExperimentRequest(
      R"({"request_id":"r1","problem":"halting"})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RequestTest, MalformedBodiesAreInvalidArgument) {
  const char* bad[] = {
      "{not json",
      "[1,2,3]",
      R"({"request_id":"r1"})",  // missing problem
      R"({"problem":"fingerprint",
          "generator":{"kind":"equal","m":4,"n":4}})",  // missing id
      // instance and generator are mutually exclusive and required:
      R"({"request_id":"r","problem":"fingerprint"})",
      R"({"request_id":"r","problem":"fingerprint","instance":"1#2#",
          "generator":{"kind":"equal","m":4,"n":4}})",
      R"({"request_id":"r","problem":"fingerprint",
          "generator":{"kind":"bogus","m":4,"n":4}})",
      R"({"request_id":"r","problem":"fingerprint",
          "generator":{"kind":"equal","m":0,"n":4}})",
      R"({"request_id":"r","problem":"fingerprint",
          "generator":{"kind":"equal","m":4,"n":4},"trials":0})",
      R"({"request_id":"r","problem":"xpath-count","query":""})",
      R"({"request_id":"r","problem":"xpath-count",
          "query":"child::a","xml":"<a/>",
          "generator":{"kind":"equal","m":4,"n":4}})",
  };
  for (const char* body : bad) {
    const Result<ExperimentRequest> r = ParseExperimentRequest(body);
    ASSERT_FALSE(r.ok()) << "accepted: " << body;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << body;
  }
}

TEST(RequestTest, TrialCountBeyondLimitIsRejected) {
  const Result<ExperimentRequest> r = ParseExperimentRequest(
      R"({"request_id":"r","problem":"fingerprint",
          "generator":{"kind":"equal","m":4,"n":4},"trials":11})",
      /*max_trials=*/10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestTest, GeneratorBeyondCellLimitIsRejected) {
  // An unchecked generator size would let one request allocate ~m
  // values when it runs; the ceiling rejects it at parse time.
  // 2*m*(n+1) cells: m=16, n=12 needs 416.
  const auto body = [](std::uint64_t m, std::uint64_t n) {
    return R"({"request_id":"r","problem":"fingerprint",
               "generator":{"kind":"equal","m":)" +
           std::to_string(m) + ",\"n\":" + std::to_string(n) + "}}";
  };
  EXPECT_TRUE(ParseExperimentRequest(body(16, 12), /*max_trials=*/10,
                                     /*max_generator_cells=*/416)
                  .ok());
  const Result<ExperimentRequest> over_m = ParseExperimentRequest(
      body(17, 12), /*max_trials=*/10, /*max_generator_cells=*/416);
  ASSERT_FALSE(over_m.ok());
  EXPECT_EQ(over_m.status().code(), StatusCode::kInvalidArgument);
  const Result<ExperimentRequest> over_n = ParseExperimentRequest(
      body(1, 1000), /*max_trials=*/10, /*max_generator_cells=*/416);
  ASSERT_FALSE(over_n.ok());
  EXPECT_EQ(over_n.status().code(), StatusCode::kInvalidArgument);

  // The default ceiling stops the pathological request outright, with
  // no overflow in the size computation.
  const Result<ExperimentRequest> huge =
      ParseExperimentRequest(body(1000000000000000ULL, 8));
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  const Result<ExperimentRequest> huge_n =
      ParseExperimentRequest(body(8, 18446744073709551615ULL));
  ASSERT_FALSE(huge_n.ok());
  EXPECT_EQ(huge_n.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestTest, BudgetBelowCertifiedBoundIsRejected) {
  ArtifactCache cache(8);
  Result<ExperimentRequest> r = ParseExperimentRequest(
      R"({"request_id":"r","problem":"fingerprint",
          "generator":{"kind":"equal","m":4,"n":4},
          "budget":{"r":1,"s":1024,"t":2}})");
  ASSERT_TRUE(r.ok()) << r.status();
  ExperimentRequest request = std::move(r).value();
  const Status below = ValidateBudgetAgainstRegistry(request, cache);
  EXPECT_EQ(below.code(), StatusCode::kInvalidArgument);

  // A generous budget passes, and the certificate is now a cached
  // artifact: the second validation must hit.
  request.budget->max_scans = 1 << 20;
  EXPECT_TRUE(ValidateBudgetAgainstRegistry(request, cache).ok());
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(RequestTest, CertificateCacheIsKeyedByRequestSize) {
  // The symbolic certificate is evaluated at the request's own N, so
  // two request sizes must never alias one cached admission decision:
  // each size gets its own "machine@N=n" entry, and only a repeat of
  // the same size hits.
  ArtifactCache cache(8);
  auto parse = [](std::uint64_t m) {
    Result<ExperimentRequest> r = ParseExperimentRequest(
        R"({"request_id":"r","problem":"fingerprint",
            "generator":{"kind":"equal","m":)" +
        std::to_string(m) +
        R"(,"n":4},"budget":{"r":1048576,"s":1024,"t":2}})");
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  };
  const ExperimentRequest small = parse(4);
  const ExperimentRequest large = parse(8);
  EXPECT_NE(RequestInputSize(small), RequestInputSize(large));
  EXPECT_TRUE(ValidateBudgetAgainstRegistry(small, cache).ok());
  EXPECT_TRUE(ValidateBudgetAgainstRegistry(large, cache).ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_TRUE(ValidateBudgetAgainstRegistry(small, cache).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------
// ArtifactCache: content-hash keying, single-flight, LRU eviction.
// ---------------------------------------------------------------------

TEST(ArtifactCacheTest, MissBuildsOnceThenHits) {
  obs::MetricsRegistry metrics;
  ArtifactCache cache(4, &metrics);
  int builds = 0;
  const auto factory = [&builds]() -> std::shared_ptr<const int> {
    ++builds;
    return std::make_shared<const int>(7);
  };
  for (int i = 0; i < 3; ++i) {
    const std::shared_ptr<const int> value =
        cache.GetOrCreate<int>("pool", "k=12", factory);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 7);
  }
  EXPECT_EQ(builds, 1);
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(metrics.counter("serve.cache.hits"), 2u);
  EXPECT_EQ(metrics.counter("serve.cache.misses"), 1u);
}

TEST(ArtifactCacheTest, KindPartitionsTheNamespace) {
  ArtifactCache cache(4);
  const auto make = [](int v) {
    return [v]() -> std::shared_ptr<const int> {
      return std::make_shared<const int>(v);
    };
  };
  // Same content, different kinds: two distinct artifacts.
  EXPECT_EQ(*cache.GetOrCreate<int>("xml", "same", make(1)), 1);
  EXPECT_EQ(*cache.GetOrCreate<int>("xpath", "same", make(2)), 2);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsed) {
  ArtifactCache cache(2);
  const auto make = [](int v) {
    return [v]() -> std::shared_ptr<const int> {
      return std::make_shared<const int>(v);
    };
  };
  cache.GetOrCreate<int>("k", "a", make(1));
  cache.GetOrCreate<int>("k", "b", make(2));
  // Touch "a" so "b" is the LRU victim.
  cache.GetOrCreate<int>("k", "a", make(1));
  cache.GetOrCreate<int>("k", "c", make(3));

  int rebuilt_a = 0;
  int rebuilt_b = 0;
  cache.GetOrCreate<int>("k", "a", [&rebuilt_a]() {
    ++rebuilt_a;
    return std::make_shared<const int>(1);
  });
  cache.GetOrCreate<int>("k", "b", [&rebuilt_b]() {
    ++rebuilt_b;
    return std::make_shared<const int>(2);
  });
  EXPECT_EQ(rebuilt_a, 0) << "recently-used entry was evicted";
  EXPECT_EQ(rebuilt_b, 1) << "LRU entry survived past capacity";
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ArtifactCacheTest, FailedBuildsAreNotCached) {
  ArtifactCache cache(4);
  int attempts = 0;
  const auto failing = [&attempts]() -> std::shared_ptr<const int> {
    ++attempts;
    return nullptr;
  };
  EXPECT_EQ(cache.GetOrCreate<int>("k", "bad", failing), nullptr);
  EXPECT_EQ(cache.GetOrCreate<int>("k", "bad", failing), nullptr);
  EXPECT_EQ(attempts, 2) << "a failed build must retry, not cache null";
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCacheTest, HashCollisionFallsBackToFactory) {
  // Same (kind, hash), different content — injected through the erased
  // core since real 64-bit FNV-1a colliding strings are impractical to
  // find. The colliding request must get its own freshly built value,
  // and the resident entry must survive untouched.
  obs::MetricsRegistry metrics;
  ArtifactCache cache(4, &metrics);
  const auto make = [](int v) {
    return [v]() -> std::shared_ptr<const void> {
      return std::make_shared<const int>(v);
    };
  };
  const std::uint64_t hash = 42;
  const auto resident =
      cache.GetOrCreateErased("k", hash, "payload-a", make(1));
  ASSERT_NE(resident, nullptr);

  const auto colliding =
      cache.GetOrCreateErased("k", hash, "payload-b", make(2));
  ASSERT_NE(colliding, nullptr);
  EXPECT_EQ(*std::static_pointer_cast<const int>(colliding), 2)
      << "collision served the other payload's artifact";
  EXPECT_EQ(cache.stats().collisions, 1u);
  EXPECT_EQ(metrics.counter("serve.cache.collisions"), 1u);

  // The original content still hits its entry.
  const auto again =
      cache.GetOrCreateErased("k", hash, "payload-a", make(3));
  EXPECT_EQ(*std::static_pointer_cast<const int>(again), 1);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ArtifactCacheTest, ContentHashIsStable) {
  // The shard-determinism argument needs every process to key its cache
  // identically; pin the FNV-1a values so a drift is loud.
  EXPECT_EQ(HashContent(""), 1469598103934665603ULL);
  EXPECT_EQ(HashContent("a"), 4953267810257967366ULL);
  EXPECT_EQ(HashContent("equal:16:12:3"), HashContent("equal:16:12:3"));
  EXPECT_NE(HashContent("equal:16:12:3"), HashContent("equal:16:12:4"));
}

// ---------------------------------------------------------------------
// FairScheduler: bounded admission and per-tenant round-robin.
// ---------------------------------------------------------------------

/// A gate the test holds closed while it stacks up queued jobs.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Polls until `n` jobs are queued or running, so a test orders its
/// concurrent callers without guessing at delays.
void AwaitInflight(const FairScheduler& scheduler, std::size_t n) {
  while (scheduler.stats().inflight != n) std::this_thread::yield();
}

TEST(FairSchedulerTest, RejectsBeyondAdmissionBound) {
  FairScheduler::Options options;
  options.threads = 1;
  options.max_inflight = 2;
  FairScheduler scheduler(options);

  Gate gate;
  std::atomic<int> ran{0};
  const auto job = [&] {
    gate.Wait();
    ran.fetch_add(1);
  };
  // The first caller runs (held at the gate); the second waits for the
  // slot. Both count against the bound.
  Status statuses[2];
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < 2; ++i) {
    callers.emplace_back([&, i] { statuses[i] = scheduler.Run("alice", job); });
    AwaitInflight(scheduler, i + 1);
  }

  const Status rejected = scheduler.Run("alice", job);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.stats().rejected, 1u);
  EXPECT_EQ(scheduler.stats().inflight, 2u);

  gate.Open();
  for (std::thread& caller : callers) caller.join();
  EXPECT_TRUE(statuses[0].ok()) << statuses[0];
  EXPECT_TRUE(statuses[1].ok()) << statuses[1];
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(scheduler.stats().completed, 2u);
  EXPECT_EQ(scheduler.stats().inflight, 0u);

  scheduler.Drain();
  const Status draining = scheduler.Run("alice", job);
  EXPECT_EQ(draining.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ran.load(), 2);
}

TEST(FairSchedulerTest, ThrowingJobReleasesItsSlot) {
  FairScheduler::Options options;
  options.threads = 1;
  options.max_inflight = 1;
  FairScheduler scheduler(options);

  // With max_inflight=1 a leaked slot would make every later Run a 429
  // and Drain() a deadlock.
  EXPECT_THROW(
      scheduler.Run("alice", [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_EQ(scheduler.stats().completed, 1u);
  EXPECT_EQ(scheduler.stats().inflight, 0u);

  bool ran = false;
  EXPECT_TRUE(scheduler.Run("alice", [&] { ran = true; }).ok());
  EXPECT_TRUE(ran);
  EXPECT_EQ(scheduler.stats().completed, 2u);
  scheduler.Drain();
}

TEST(FairSchedulerTest, FloodingTenantDoesNotStarveOthers) {
  FairScheduler::Options options;
  options.threads = 1;
  options.max_inflight = 16;
  FairScheduler scheduler(options);

  Gate gate;
  std::mutex order_mutex;
  std::vector<std::string> order;
  std::vector<std::thread> callers;
  // Each caller is admitted before the next one starts, so while f0
  // holds the single slot the tenant queues fill in call order.
  const auto call = [&](const std::string& tenant, const std::string& tag,
                        bool blocking) {
    callers.emplace_back([&, tenant, tag, blocking] {
      const Status status = scheduler.Run(tenant, [&] {
        if (blocking) gate.Wait();
        std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(tag);
      });
      EXPECT_TRUE(status.ok()) << status;
    });
    AwaitInflight(scheduler, callers.size());
  };
  call("flooder", "f0", true);
  for (const char* tag : {"f1", "f2", "f3", "f4"}) call("flooder", tag, false);
  call("bob", "b0", false);

  gate.Open();
  for (std::thread& caller : callers) caller.join();
  scheduler.Drain();

  ASSERT_EQ(order.size(), 6u);
  const auto position = [&](const std::string& tag) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == tag) return i;
    }
    return order.size();
  };
  // Fairness: bob's single request must not sit behind the flooder's
  // whole backlog — at most one flooder job runs between grants.
  EXPECT_LT(position("b0"), position("f4"))
      << "tenant bob starved behind the flooder's backlog";
}

TEST(FairSchedulerTest, RunsTheJobOnTheCallingThread) {
  FairScheduler::Options options;
  options.threads = 1;
  FairScheduler scheduler(options);

  std::thread::id ran_on;
  EXPECT_TRUE(
      scheduler.Run("alice", [&] { ran_on = std::this_thread::get_id(); })
          .ok());
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // A caller that waited for its slot runs on its own thread too, not on
  // the thread whose finished job granted it the slot.
  Gate gate;
  std::thread holder([&] {
    EXPECT_TRUE(scheduler.Run("alice", [&] { gate.Wait(); }).ok());
  });
  AwaitInflight(scheduler, 1);
  std::thread::id waiter_id;
  std::thread::id waiter_ran_on;
  std::thread waiter([&] {
    waiter_id = std::this_thread::get_id();
    EXPECT_TRUE(scheduler
                    .Run("bob",
                         [&] { waiter_ran_on = std::this_thread::get_id(); })
                    .ok());
  });
  AwaitInflight(scheduler, 2);
  gate.Open();
  holder.join();
  waiter.join();
  EXPECT_EQ(waiter_ran_on, waiter_id);
}

// ---------------------------------------------------------------------
// ShardRouter: deterministic placement, bounded remap on regrowth.
// ---------------------------------------------------------------------

TEST(ShardRouterTest, RoutingIsDeterministicAcrossInstances) {
  const ShardRouter a(3);
  const ShardRouter b(3);
  for (int i = 0; i < 200; ++i) {
    const std::string id = "req-" + std::to_string(i);
    const std::size_t shard = a.Route(id);
    EXPECT_LT(shard, 3u);
    EXPECT_EQ(shard, b.Route(id)) << id;
  }
}

TEST(ShardRouterTest, SpreadsLoadAcrossShards) {
  const ShardRouter router(3);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 999; ++i) {
    counts[router.Route("request-" + std::to_string(i))] += 1;
  }
  for (int shard = 0; shard < 3; ++shard) {
    EXPECT_GT(counts[shard], 100)
        << "shard " << shard << " owns almost nothing";
  }
}

TEST(ShardRouterTest, GrowingTheRingRemapsAMinority) {
  const ShardRouter before(4);
  const ShardRouter after(5);
  int moved = 0;
  const int total = 1000;
  for (int i = 0; i < total; ++i) {
    const std::string id = "key-" + std::to_string(i);
    if (before.Route(id) != after.Route(id)) ++moved;
  }
  // Consistent hashing moves ~1/(N+1) = 20%; hash % N would move 80%.
  EXPECT_LT(moved, total / 2);
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------
// ShutdownGuard: signal -> flag + pollable wake, per the contract the
// serve daemon and the bench binaries share.
// ---------------------------------------------------------------------

bool FdReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, timeout_ms) == 1 && (p.revents & POLLIN) != 0;
}

TEST(ShutdownGuardTest, SigtermSetsFlagAndWakesPoller) {
  ShutdownGuard guard;
  EXPECT_FALSE(guard.requested());
  EXPECT_FALSE(FdReadable(guard.wait_fd(), 0));
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(guard.requested());
  EXPECT_TRUE(FdReadable(guard.wait_fd(), 1000));
}

TEST(ShutdownGuardTest, SigintAndProgrammaticTriggerBehaveAlike) {
  {
    ShutdownGuard guard;
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(guard.requested());
  }
  // A fresh guard starts clean: the previous trigger must not leak.
  ShutdownGuard guard;
  EXPECT_FALSE(guard.requested());
  guard.RequestShutdown();
  EXPECT_TRUE(guard.requested());
  EXPECT_TRUE(FdReadable(guard.wait_fd(), 1000));
}

// ---------------------------------------------------------------------
// NdjsonTraceSink: trial markers only, one complete line per frame.
// ---------------------------------------------------------------------

TEST(TraceBridgeTest, ForwardsTrialMarkersOnly) {
  std::vector<std::string> lines;
  NdjsonTraceSink sink([&lines](std::string_view line) {
    lines.emplace_back(line);
  });
  sink.OnEvent(obs::MakeTrialEvent(obs::EventKind::kTrialBegin, 3));
  sink.OnEvent(obs::MakeTrialEvent(obs::EventKind::kTrialEnd, 3));
  ASSERT_EQ(sink.frames(), 2u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"trial_begin\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trial\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"trial_end\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The Theorem 8(a) paths of ExperimentService against their references:
// lane groups of the batch engine must fold exactly what a per-trial
// AcceptsWithParams loop folds, and claim1 over the cached pool must
// equal the estimator that sieves its own.
// ---------------------------------------------------------------------

struct FoldedTrials {
  std::uint64_t accepts = 0;
  std::uint64_t checksum = 0;
};

/// The fingerprint path one trial at a time: trial t's (p1, x) from
/// SeedSequence(seed).RngForTrial(t), its verdict from AcceptsWithParams.
FoldedTrials ScalarFingerprintReference(const problems::Instance& instance,
                                        std::uint64_t trials,
                                        std::uint64_t seed) {
  const std::uint64_t k =
      fingerprint::ComputeFingerprintK(instance.m(),
                                       fingerprint::MaxValueBits(instance))
          .value();
  const std::uint64_t p2 = fingerprint::PrimeInBertrandInterval(k).value();
  const fingerprint::PrimePool pool(k);
  const parallel::SeedSequence seeds(seed);
  FoldedTrials folded;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    Rng rng = seeds.RngForTrial(trial);
    fingerprint::FingerprintParams params;
    params.k = k;
    params.p1 = pool.Sample(rng).value();
    params.p2 = p2;
    params.x = rng.UniformInRange(1, p2 - 1);
    const std::uint64_t accepted =
        fingerprint::AcceptsWithParams(instance, params) ? 1 : 0;
    folded.accepts += accepted;
    folded.checksum = parallel::Checksum64(
        {folded.checksum, params.p1, params.x, accepted});
  }
  return folded;
}

ExperimentRequest InlineRequest(const std::string& problem,
                                const problems::Instance& instance,
                                std::uint64_t trials, std::uint64_t seed) {
  ExperimentRequest request;
  request.request_id = problem + "-" + std::to_string(trials);
  request.problem = problem;
  request.instance = instance.Encode();
  request.trials = trials;
  request.seed = seed;
  return request;
}

/// Runs the fingerprint path at trial counts on both sides of one and
/// two lane groups, on an equal (all accept) and a perturbed instance.
void ExpectBatchedMatchesScalar(std::size_t m, std::size_t n,
                                std::uint64_t seed) {
  ArtifactCache cache(16);
  ExperimentService service(cache);
  Rng rng(seed);
  const std::uint64_t g = kFingerprintLaneGroup;
  for (const problems::Instance& instance :
       {problems::EqualMultisets(m, n, rng),
        problems::PerturbedMultisets(m, n, 1, rng)}) {
    for (const std::uint64_t trials :
         {std::uint64_t{1}, g - 1, g, g + 1, 2 * g + 3}) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                   " trials=" + std::to_string(trials));
      const Result<ExperimentResult> result = service.Execute(
          InlineRequest("fingerprint", instance, trials, seed));
      ASSERT_TRUE(result.ok()) << result.status();
      const FoldedTrials reference =
          ScalarFingerprintReference(instance, trials, seed);
      EXPECT_EQ(result.value().executed_trials, trials);
      EXPECT_EQ(result.value().accepts, reference.accepts);
      EXPECT_EQ(result.value().checksum, reference.checksum);
    }
  }
}

std::uint64_t KFor(std::size_t m, std::size_t n) {
  return fingerprint::ComputeFingerprintK(m, n).value();
}

TEST(FingerprintServiceTest, BatchedMatchesScalarOnSievedPool) {
  ASSERT_TRUE(fingerprint::PrimePool(KFor(16, 12)).sieved());
  ExpectBatchedMatchesScalar(16, 12, 71);
}

TEST(FingerprintServiceTest, BatchedMatchesScalarOnUnsievedPool) {
  ASSERT_FALSE(fingerprint::PrimePool(KFor(80, 12)).sieved());
  ExpectBatchedMatchesScalar(80, 12, 72);
}

TEST(FingerprintServiceTest, BatchedMatchesScalarBeyondThe32BitKernel) {
  // p2 >= 2^31 sends every lane down the engine's exact wide path.
  ASSERT_GE(fingerprint::PrimeInBertrandInterval(KFor(64, 120)).value(),
            std::uint64_t{1} << 31);
  ExpectBatchedMatchesScalar(64, 120, 73);
}

/// A streamed `problem` request emits trial_begin/trial_end for every
/// trial in trial order, then the result the unstreamed request gives.
void ExpectStreamedFramesFollowTrialOrder(const std::string& problem) {
  ArtifactCache cache(16);
  ExperimentService service(cache);
  Rng rng(74);
  const problems::Instance instance = problems::EqualMultisets(24, 12, rng);
  const std::uint64_t trials = kFingerprintLaneGroup + 1;
  ExperimentRequest request = InlineRequest(problem, instance, trials, 75);
  const Result<ExperimentResult> buffered = service.Execute(request);
  ASSERT_TRUE(buffered.ok()) << buffered.status();

  request.stream = true;
  std::vector<std::string> lines;
  NdjsonTraceSink sink(
      [&lines](std::string_view line) { lines.emplace_back(line); });
  const Result<ExperimentResult> streamed = service.Execute(request, &sink);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  ASSERT_EQ(lines.size(), 2 * trials);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const std::string stamp = "\"trial\":" + std::to_string(trial);
    EXPECT_NE(lines[2 * trial].find("\"event\":\"trial_begin\""),
              std::string::npos);
    EXPECT_NE(lines[2 * trial].find(stamp), std::string::npos);
    EXPECT_NE(lines[2 * trial + 1].find("\"event\":\"trial_end\""),
              std::string::npos);
    EXPECT_NE(lines[2 * trial + 1].find(stamp), std::string::npos);
  }
  EXPECT_EQ(streamed.value().ToJson(), buffered.value().ToJson());
}

TEST(FingerprintServiceTest, StreamedFramesFollowTrialOrder) {
  ExpectStreamedFramesFollowTrialOrder("fingerprint");
}

TEST(FingerprintServiceTest, StreamedClaim1FramesFollowTrialOrder) {
  ExpectStreamedFramesFollowTrialOrder("claim1");
}

TEST(FingerprintServiceTest, Claim1OverTheCachedPoolMatchesSelfSieving) {
  ArtifactCache cache(16);
  ExperimentService service(cache);
  Rng rng(76);
  const problems::Instance instance =
      problems::PerturbedMultisets(4, 24, 2, rng);
  const std::uint64_t trials = 400;
  const std::uint64_t seed = 77;
  // A fingerprint request builds the (m, n) setup; claim1 then only
  // hits the cache.
  ASSERT_TRUE(
      service.Execute(InlineRequest("fingerprint", instance, 1, seed)).ok());
  const std::uint64_t misses = cache.stats().misses;
  const Result<ExperimentResult> result =
      service.Execute(InlineRequest("claim1", instance, trials, seed));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(cache.stats().misses, misses);

  parallel::TrialRunner runner(2);
  const fingerprint::Claim1Estimate reference =
      fingerprint::EstimateClaim1CollisionRate(instance, trials, seed,
                                               runner);
  EXPECT_EQ(result.value().executed_trials, reference.trials);
  EXPECT_EQ(result.value().extra, reference.collisions);
  EXPECT_EQ(result.value().checksum,
            parallel::Checksum64({reference.trials, reference.collisions}));
}

// ---------------------------------------------------------------------
// The run options reach the service as a value: a decider request bills
// exactly what DecideOnTapes bills at the service's geometry.
// ---------------------------------------------------------------------

TEST(DeciderServiceTest, BillsAtTheGeometryItIsGiven) {
  Rng rng(5);
  const problems::Instance instance = problems::EqualMultisets(64, 12, rng);
  const auto bills = [&](const sorting::SortConfig& sort) {
    stmodel::StContext ctx(sorting::kDeciderTapes);
    ctx.LoadInput(instance.Encode());
    const Result<bool> decided = sorting::DecideOnTapes(
        problems::Problem::kMultisetEquality, ctx, sort);
    EXPECT_TRUE(decided.ok() && decided.value());
    sorting::RunOptions run;
    run.sort = sort;
    ArtifactCache cache(16);
    const Result<ExperimentResult> served =
        ExperimentService(cache, run)
            .Execute(InlineRequest("multiset-equality", instance, 1, 1));
    EXPECT_EQ(served.ok() && served.value().report
                  ? served.value().report->ToString()
                  : "no bill",
              ctx.Report().ToString());
    return ctx.Report().ToString();
  };
  // 64 one-field runs take six binary merge passes; at fanout 8 and run
  // length 1024 they are one formation run.
  EXPECT_NE(bills(sorting::kPaperSortConfig), bills(sorting::SortConfig{}));
}

// ---------------------------------------------------------------------
// End-to-end over loopback: one server per fixture, keep-alive clients.
// ---------------------------------------------------------------------

class ServeEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.threads = 2;
    options.max_inflight = 32;
    options.limits.max_body_bytes = 4096;
    server_ = std::make_unique<HttpServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect(server_->port()).ok());
  }

  void TearDown() override { server_->Shutdown(); }

  Result<ClientResponse> Post(const std::string& body) {
    return client_.Request("POST", "/v1/experiment", body);
  }

  static std::string FingerprintBody(const std::string& id,
                                     bool stream = false) {
    return JsonWriter()
        .Field("request_id", id)
        .Field("tenant", "alice")
        .Field("problem", "fingerprint")
        .FieldRaw("generator", JsonWriter()
                                   .Field("kind", "equal")
                                   .Field("m", std::uint64_t{16})
                                   .Field("n", std::uint64_t{12})
                                   .Field("seed", std::uint64_t{3})
                                   .Build())
        .Field("trials", std::uint64_t{3})
        .Field("seed", std::uint64_t{42})
        .Field("stream", stream)
        .Build();
  }

  std::unique_ptr<HttpServer> server_;
  HttpClient client_;
};

TEST_F(ServeEndToEndTest, HealthzAnswersOk) {
  const Result<ClientResponse> r = client_.Request("GET", "/healthz", "");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 200);
  EXPECT_NE(r.value().body.find("\"status\":\"ok\""), std::string::npos);
}

TEST_F(ServeEndToEndTest, MetricsEndpointPublishesCounters) {
  ASSERT_TRUE(Post(FingerprintBody("m1")).ok());
  const Result<ClientResponse> r = client_.Request("GET", "/metrics", "");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 200);
  EXPECT_NE(r.value().body.find("serve.requests"), std::string::npos);
  EXPECT_NE(r.value().body.find("serve.experiment.completed"),
            std::string::npos);
}

TEST_F(ServeEndToEndTest, ExperimentResponsesAreDeterministic) {
  const Result<ClientResponse> first = Post(FingerprintBody("same-id"));
  const Result<ClientResponse> second = Post(FingerprintBody("same-id"));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().status, 200);
  EXPECT_EQ(first.value().body, second.value().body)
      << "byte-identical requests must produce byte-identical frames";
  EXPECT_NE(first.value().body.find("\"event\":\"result\""),
            std::string::npos);
  EXPECT_NE(first.value().body.find("\"checksum\":"), std::string::npos);
}

TEST_F(ServeEndToEndTest, MalformedJsonBodyIs400) {
  const Result<ClientResponse> r = Post("{not json at all");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 400);
  EXPECT_NE(r.value().body.find("\"event\":\"error\""), std::string::npos);
  EXPECT_NE(r.value().body.find("\"code\":\"InvalidArgument\""),
            std::string::npos);
}

TEST_F(ServeEndToEndTest, UnknownProblemIs404WithNamedError) {
  const Result<ClientResponse> r = Post(
      R"({"request_id":"r","problem":"halting","trials":1})");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 404);
  EXPECT_NE(r.value().body.find("\"code\":\"NotFound\""),
            std::string::npos);
  EXPECT_NE(r.value().body.find("halting"), std::string::npos);
}

TEST_F(ServeEndToEndTest, UnknownRouteIs404) {
  const Result<ClientResponse> r =
      client_.Request("GET", "/v2/nothing", "");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 404);
}

TEST_F(ServeEndToEndTest, OversizedBodyIs413) {
  std::string body = FingerprintBody("big");
  body.append(8192, ' ');
  const Result<ClientResponse> r = Post(body);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 413);
}

TEST_F(ServeEndToEndTest, StreamingEmitsTrialFramesThenResult) {
  const Result<ClientResponse> r =
      Post(FingerprintBody("stream-1", /*stream=*/true));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 200);
  const std::vector<std::string> lines = r.value().Lines();
  // trials=3 -> begin+end per trial, then the result frame.
  ASSERT_EQ(lines.size(), 7u) << r.value().body;
  for (int trial = 0; trial < 3; ++trial) {
    EXPECT_NE(lines[2 * trial].find("\"event\":\"trial_begin\""),
              std::string::npos);
    EXPECT_NE(lines[2 * trial + 1].find("\"event\":\"trial_end\""),
              std::string::npos);
  }
  EXPECT_NE(lines.back().find("\"event\":\"result\""), std::string::npos);

  // The streamed result frame equals the buffered one byte for byte.
  const Result<ClientResponse> plain = Post(FingerprintBody("stream-1"));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(lines.back() + "\n", plain.value().body);
}

TEST_F(ServeEndToEndTest, PipelinedRequestsAnswerInOrder) {
  const std::string body1 = FingerprintBody("pipe-1");
  const std::string body2 = FingerprintBody("pipe-2");
  const auto raw = [](const std::string& body) {
    return "POST /v1/experiment HTTP/1.1\r\nHost: x\r\n"
           "Content-Type: application/json\r\n"
           "Content-Length: " +
           std::to_string(body.size()) + "\r\n\r\n" + body;
  };
  ASSERT_TRUE(client_.SendRaw(raw(body1) + raw(body2)).ok());
  const Result<ClientResponse> r1 = client_.ReadResponse();
  const Result<ClientResponse> r2 = client_.ReadResponse();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.value().status, 200);
  EXPECT_EQ(r2.value().status, 200);
  EXPECT_NE(r1.value().body.find("pipe-1"), std::string::npos);
  EXPECT_NE(r2.value().body.find("pipe-2"), std::string::npos);
}

TEST_F(ServeEndToEndTest, XpathCountReturnsSelectedNodes) {
  const std::string body =
      JsonWriter()
          .Field("request_id", "xp-1")
          .Field("problem", "xpath-count")
          .Field("query", "descendant::title")
          .Field("xml",
                 "<lib><book><title>a</title></book>"
                 "<book><title>b</title></book></lib>")
          .Build();
  const Result<ClientResponse> r = Post(body);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 200);
  EXPECT_NE(r.value().body.find("\"extra\":2"), std::string::npos)
      << r.value().body;
}

TEST_F(ServeEndToEndTest, InvalidXpathQueryIsNamed400) {
  const std::string body = JsonWriter()
                               .Field("request_id", "xp-bad")
                               .Field("problem", "xpath-count")
                               .Field("query", "/lib/book")
                               .Field("xml", "<lib/>")
                               .Build();
  const Result<ClientResponse> r = Post(body);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().status, 400);
  EXPECT_NE(r.value().body.find("\"code\":\"InvalidArgument\""),
            std::string::npos);
}

TEST(ServeAdmissionTest, OverloadedServerAnswers429) {
  ServerOptions options;
  options.threads = 1;
  options.max_inflight = 1;
  HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string slow = JsonWriter()
                               .Field("request_id", "slow")
                               .Field("problem", "test-sleep")
                               .Field("sleep_ms", std::uint64_t{1500})
                               .Build();
  const std::string raw =
      "POST /v1/experiment HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: " +
      std::to_string(slow.size()) + "\r\n\r\n" + slow;

  // Occupy the only inflight slot, then probe from a second connection.
  HttpClient holder;
  ASSERT_TRUE(holder.Connect(server.port()).ok());
  ASSERT_TRUE(holder.SendRaw(raw).ok());
  // The slot is taken once the sleep job is admitted; poll until the
  // scheduler reports it rather than racing a fixed delay.
  for (int i = 0; i < 200 && server.scheduler_stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.scheduler_stats().inflight, 1u);

  HttpClient prober;
  ASSERT_TRUE(prober.Connect(server.port()).ok());
  const Result<ClientResponse> rejected =
      prober.Request("POST", "/v1/experiment", slow);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected.value().status, 429);
  EXPECT_NE(rejected.value().body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos);

  const Result<ClientResponse> held = holder.ReadResponse();
  ASSERT_TRUE(held.ok()) << held.status();
  EXPECT_EQ(held.value().status, 200);
  server.Shutdown();
  EXPECT_GE(server.scheduler_stats().completed, 1u);
}

TEST(ServeShutdownTest, ShutdownDrainsInflightExperiments) {
  ServerOptions options;
  options.threads = 1;
  HttpServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string slow = JsonWriter()
                               .Field("request_id", "drain-me")
                               .Field("problem", "test-sleep")
                               .Field("sleep_ms", std::uint64_t{300})
                               .Build();
  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  const std::string raw =
      "POST /v1/experiment HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: " +
      std::to_string(slow.size()) + "\r\n\r\n" + slow;
  ASSERT_TRUE(client.SendRaw(raw).ok());
  for (int i = 0; i < 200 && server.scheduler_stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Shutdown must block until the admitted experiment finished.
  server.Shutdown();
  EXPECT_EQ(server.scheduler_stats().inflight, 0u);
  EXPECT_GE(server.scheduler_stats().completed, 1u);
}

}  // namespace
}  // namespace rstlab::serve
