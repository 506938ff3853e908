// serve-mixed: POST /v1/experiment over keep-alive connections to an
// in-process HttpServer, closed loop with two client threads. The pool
// is the E20 mix plus budgeted and streamed requests; after the setup
// pass every artifact is a cache hit, so the serve stages and the
// scalar fingerprint tester do the work. Cold cache fill is setup_s.

#include <atomic>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "serve/artifact_cache.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/trace_bridge.h"

namespace rstbench {
namespace {

using rstlab::serve::JsonWriter;

struct Payload {
  std::string body;
  std::string problem;
  /// The response body a single-threaded ExperimentService pass gives.
  std::string expected;
};

std::string Generator(const char* kind, std::uint64_t m, std::uint64_t n,
                      std::uint64_t seed) {
  return JsonWriter()
      .Field("kind", kind)
      .Field("m", m)
      .Field("n", n)
      .Field("seed", seed)
      .Build();
}

/// E20's 20 payloads (instance seeds drawn from the workload seed),
/// plus budgeted fingerprint and set-equality requests and one streamed
/// fingerprint request.
std::vector<Payload> BuildPool(std::uint64_t seed) {
  const std::uint64_t base = seed * 1000;
  std::vector<Payload> pool;
  auto add = [&pool](const char* problem, std::string body) {
    pool.push_back(Payload{std::move(body), problem, ""});
  };
  for (std::uint64_t v = 0; v < 8; ++v) {
    add("fingerprint",
        JsonWriter()
            .Field("request_id", "fp-" + std::to_string(v))
            .Field("tenant", v % 2 == 0 ? "alice" : "bob")
            .Field("problem", "fingerprint")
            .FieldRaw("generator", Generator("equal", 16 + 8 * v, 12, base + v))
            .Field("trials", std::uint64_t{16})
            .Field("seed", base + 100 + v)
            .Build());
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    add("multiset-equality",
        JsonWriter()
            .Field("request_id", "eq-" + std::to_string(v))
            .Field("tenant", "carol")
            .Field("problem", "multiset-equality")
            .FieldRaw("generator",
                      Generator(v % 2 == 0 ? "equal" : "perturbed",
                                12 + 4 * v, 10, base + v))
            .Build());
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    add("disjoint",
        JsonWriter()
            .Field("request_id", "dj-" + std::to_string(v))
            .Field("tenant", "alice")
            .Field("problem", "disjoint")
            .FieldRaw("generator",
                      Generator("disjoint", 8 + 8 * v, 10, base + v))
            .Build());
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    add("claim1",
        JsonWriter()
            .Field("request_id", "c1-" + std::to_string(v))
            .Field("tenant", "bob")
            .Field("problem", "claim1")
            .FieldRaw("generator",
                      Generator("perturbed", 6 + 2 * v, 8, base + v))
            .Field("trials", std::uint64_t{12})
            .Field("seed", base + 200 + v)
            .Build());
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    add("xpath-count",
        JsonWriter()
            .Field("request_id", "xp-" + std::to_string(v))
            .Field("tenant", "carol")
            .Field("problem", "xpath-count")
            .Field("query", v % 2 == 0 ? "child::book" : "descendant::title")
            .Field("xml", v < 2 ? "<lib><book><title>a</title></book></lib>"
                                : "<lib><book><title>a</title></book>"
                                  "<book><title>b</title></book></lib>")
            .Build());
  }
  const std::string budget = JsonWriter()
                                 .Field("r", std::uint64_t{64})
                                 .Field("s", std::uint64_t{1} << 16)
                                 .Field("t", std::uint64_t{5})
                                 .Build();
  for (std::uint64_t v = 0; v < 2; ++v) {
    add("fingerprint",
        JsonWriter()
            .Field("request_id", "fpb-" + std::to_string(v))
            .Field("tenant", "dave")
            .Field("problem", "fingerprint")
            .FieldRaw("generator",
                      Generator(v == 0 ? "equal" : "perturbed", 32, 12,
                                base + 300 + v))
            .Field("trials", std::uint64_t{16})
            .Field("seed", base + 400 + v)
            .FieldRaw("budget", budget)
            .Build());
    add("set-equality",
        JsonWriter()
            .Field("request_id", "seb-" + std::to_string(v))
            .Field("tenant", "dave")
            .Field("problem", "set-equality")
            .FieldRaw("generator",
                      Generator(v == 0 ? "equal" : "perturbed", 48, 10,
                                base + 500 + v))
            .FieldRaw("budget", budget)
            .Build());
  }
  add("fingerprint",
      JsonWriter()
          .Field("request_id", "fps-0")
          .Field("tenant", "erin")
          .Field("problem", "fingerprint")
          .FieldRaw("generator", Generator("equal", 24, 12, base + 600))
          .Field("trials", std::uint64_t{8})
          .Field("seed", base + 700)
          .Field("stream", true)
          .Build());
  return pool;
}

/// The response body the server sends for `payload`, computed without
/// sockets on `service`; empty when the request fails.
std::string CanonicalBody(const std::string& body,
                          rstlab::serve::ArtifactCache& cache,
                          rstlab::serve::ExperimentService& service) {
  const auto request = rstlab::serve::ParseExperimentRequest(body);
  if (!request.ok() ||
      !rstlab::serve::ValidateBudgetAgainstRegistry(request.value(), cache)
           .ok()) {
    return "";
  }
  std::string out;
  rstlab::serve::NdjsonTraceSink sink(
      [&out](std::string_view line) { out += std::string(line) + "\n"; });
  const auto result = service.Execute(request.value(), &sink);
  if (!result.ok()) return "";
  return out + result.value().ToJson() + "\n";
}

bool Matches(const rstlab::Result<rstlab::serve::ClientResponse>& response,
             const Payload& payload) {
  return response.ok() && response.value().status == 200 &&
         response.value().body == payload.expected;
}

/// Mean wall time in microseconds of `reps` calls of `call`.
template <typename F>
double MeanUs(int reps, F&& call) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) call();
  return MsSince(start) * 1e3 / reps;
}

constexpr std::size_t kClients = 2;

/// Closed loop: each client thread, on its own keep-alive connection,
/// sends its next request when the previous response is in, walking the
/// pool from its own offset.
Window RunClients(double seconds, std::uint16_t port,
                  const std::vector<Payload>& pool, SpanLog& log,
                  RunReport& report) {
  Window window;
  window.interval_s = 1;
  std::atomic<std::uint64_t> next_op{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex window_mutex;
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      rstlab::serve::HttpClient client;
      std::vector<double> latencies_ms;
      std::vector<double> end_s;
      if (!client.Connect(port).ok()) ++failed;
      for (std::uint64_t j = 0; MsSince(start) < seconds * 1e3; ++j) {
        const Payload& payload =
            pool[(c * pool.size() / kClients + j) % pool.size()];
        const Clock::time_point begin = Clock::now();
        const std::int64_t span = log.Begin("serve.request", next_op++);
        const auto response =
            client.Request("POST", "/v1/experiment", payload.body);
        log.End(span);
        latencies_ms.push_back(MsSince(begin));
        end_s.push_back(MsSince(start) / 1e3);
        if (!Matches(response, payload)) ++failed;
      }
      std::lock_guard<std::mutex> lock(window_mutex);
      window.latencies_ms.insert(window.latencies_ms.end(),
                                 latencies_ms.begin(), latencies_ms.end());
      window.end_s.insert(window.end_s.end(), end_s.begin(), end_s.end());
    });
  }
  for (std::thread& t : threads) t.join();
  window.wall_s = MsSince(start) / 1e3;
  window.cpu_s = ProcessCpuSeconds() - cpu_start;
  report.attempted += window.latencies_ms.size();
  report.failed += failed;
  return window;
}

}  // namespace

RunReport RunServeMixed(const RunSpec& spec, SpanLog& spans) {
  RunReport report;
  std::vector<Payload> pool = BuildPool(spec.seed);

  rstlab::serve::ServerOptions options;
  options.threads = 2;
  // Reference answers: one single-threaded pass, no sockets. Its cache
  // is freed before the server starts, so it does not count in the
  // server's peak resident set.
  {
    rstlab::serve::ArtifactCache cache(options.cache_entries);
    rstlab::serve::ExperimentService service(cache);
    for (Payload& payload : pool) {
      payload.expected = CanonicalBody(payload.body, cache, service);
      report.Check(!payload.expected.empty());
    }
  }
  std::unique_ptr<rstlab::serve::HttpServer> server;
  // Set-up: Start(), connect, and one pass over the pool, which fills
  // the cold ArtifactCache. The last set-up's server is the one measured.
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    server.reset();
    const Clock::time_point start = Clock::now();
    server = std::make_unique<rstlab::serve::HttpServer>(options);
    rstlab::serve::HttpClient client;
    const bool ok =
        server->Start().ok() && client.Connect(server->port()).ok();
    for (const Payload& payload : pool) {
      report.Check(ok && Matches(client.Request("POST", "/v1/experiment",
                                                payload.body),
                                 payload));
    }
    return MsSince(start) / 1e3;
  });

  SpanLog off(false);
  const Window untraced =
      RunClients(spec.window_s(), server->port(), pool, off, report);
  if (!spec.trace) {
    AddEndToEnd(report, untraced, setup_s);
    server->Shutdown();
    return report;
  }
  const auto cache_before = server->cache_stats();
  const auto sched_before = server->scheduler_stats();
  const Window traced =
      RunClients(spec.window_s(), server->port(), pool, spans, report);
  const auto cache_after = server->cache_stats();
  const auto sched_after = server->scheduler_stats();
  server->Shutdown();

  // Each serve stage alone, warm, without sockets, weighted by the mix
  // (every payload once per pass).
  rstlab::serve::ArtifactCache warm_cache(options.cache_entries);
  rstlab::serve::ExperimentService warm_service(warm_cache);
  for (const Payload& payload : pool) {
    report.Check(CanonicalBody(payload.body, warm_cache, warm_service) ==
                 payload.expected);
  }
  double parse_us = 0, decode_us = 0, admit_us = 0, execute_us = 0,
         encode_us = 0;
  std::map<std::string, std::vector<double>> execute_by_problem;
  const rstlab::serve::HttpLimits limits;
  rstlab::serve::NdjsonTraceSink discard([](std::string_view) {});
  for (const Payload& payload : pool) {
    const std::string raw =
        "POST /v1/experiment HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(payload.body.size()) + "\r\n\r\n" + payload.body;
    bool ok = true;
    parse_us += MeanUs(200, [&] {
      ok = ok && rstlab::serve::ParseHttpRequest(raw, limits).progress ==
                     rstlab::serve::ParseProgress::kDone;
    });
    decode_us += MeanUs(200, [&] {
      ok = ok && rstlab::serve::ParseExperimentRequest(payload.body).ok();
    });
    const auto request = rstlab::serve::ParseExperimentRequest(payload.body);
    report.Check(ok && request.ok());
    if (!request.ok()) continue;
    admit_us += MeanUs(200, [&] {
      ok = ok && rstlab::serve::ValidateBudgetAgainstRegistry(request.value(),
                                                              warm_cache)
                     .ok();
    });
    std::vector<double> samples;
    rstlab::Result<rstlab::serve::ExperimentResult> result =
        rstlab::Status::Internal("not run");
    for (int rep = 0; rep < 9; ++rep) {
      const Clock::time_point start = Clock::now();
      result = warm_service.Execute(request.value(), &discard);
      samples.push_back(MsSince(start) * 1e3);
      ok = ok && result.ok();
    }
    execute_us += Median(samples);
    execute_by_problem[payload.problem].push_back(Median(samples));
    if (!result.ok()) {
      report.Check(false);
      continue;
    }
    std::string encoded;
    encode_us += MeanUs(200, [&] { encoded = result.value().ToJson(); });
    // The streamed payload's expected body ends with the result frame.
    report.Check(ok && payload.expected.size() > encoded.size() &&
                 payload.expected.compare(
                     payload.expected.size() - encoded.size() - 1,
                     encoded.size(), encoded) == 0);
  }
  const double n = static_cast<double>(pool.size());
  parse_us /= n;
  decode_us /= n;
  admit_us /= n;
  execute_us /= n;
  encode_us /= n;
  const double staged_us =
      parse_us + decode_us + admit_us + execute_us + encode_us;

  // Cold fill of each fingerprint payload on its own fresh cache.
  double cold_ms = 0;
  for (const Payload& payload : pool) {
    if (payload.problem != "fingerprint") continue;
    rstlab::serve::ArtifactCache cache(options.cache_entries);
    rstlab::serve::ExperimentService service(cache);
    const Clock::time_point start = Clock::now();
    const std::string body = CanonicalBody(payload.body, cache, service);
    cold_ms += MsSince(start);
    report.Check(body == payload.expected);
  }

  LayerValues layers = {
      {"serve.http_parse_us", parse_us},
      {"serve.decode_us", decode_us},
      {"serve.admit_us", admit_us},
      {"serve.execute_us", execute_us},
      {"serve.encode_us", encode_us},
      {"serve.unattributed_us", traced.p50_ms() * 1e3 - staged_us},
      {"serve.cache_hit_rate",
       Ratio(static_cast<double>(cache_after.hits - cache_before.hits),
             static_cast<double>(cache_after.hits + cache_after.misses -
                                 cache_before.hits - cache_before.misses))},
      {"serve.cache_lookups",
       static_cast<double>(cache_after.hits + cache_after.misses -
                           cache_before.hits - cache_before.misses)},
      {"serve.rejected",
       static_cast<double>(sched_after.rejected - sched_before.rejected)},
      {"serve.admitted",
       static_cast<double>(sched_after.admitted - sched_before.admitted)},
      {"fingerprint.cold_setup_ms", cold_ms},
  };
  for (const auto& [problem, samples] : execute_by_problem) {
    double sum = 0;
    for (double s : samples) sum += s;
    layers.emplace("serve.execute_us." + problem,
                   sum / static_cast<double>(samples.size()));
  }
  if (!AddLayers(report, layers, untraced, traced,
                 100.0 * Ratio(staged_us, traced.p50_ms() * 1e3))) {
    report.Check(false);
  }
  return report;
}

}  // namespace rstbench
