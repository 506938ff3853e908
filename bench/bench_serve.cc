// E20 — the serving layer under load: an in-process `rstlab serve`
// daemon driven by a multi-threaded loopback load generator.
//
// The workload is a fixed pool of ~20 distinct experiment payloads
// (fingerprint, multiset-equality, disjoint, claim1, xpath-count) that
// every worker cycles through, so after the first pass every artifact —
// generated instances, prime pools, parsed XML — is a content-hash
// cache hit; the steady-state ArtifactCache hit rate is part of the
// recorded row and the E20 acceptance bar (>= 0.9).
//
// Recorded per run: request throughput (as trials_per_sec), latency
// p50/p95/p99 in milliseconds and the cache hit rate (as metrics
// gauges), plus a canonical tally checksum folded from one
// single-threaded pass over the payload pool — deterministic run to
// run, so serving results can be diffed across commits like every
// other bench tally.
//
// RSTLAB_SERVE_BENCH_REQUESTS scales the request count (default 1200).
// SIGINT/SIGTERM mid-run follows the graceful-shutdown contract: stop
// issuing, drain the daemon, flush the recorder atomically, exit 0.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "driver.h"
#include "parallel/bench_recorder.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/shutdown.h"

namespace {

using rstlab::bench::SecondsSince;
using rstlab::parallel::BenchRecorder;
using rstlab::parallel::Checksum64;

/// The fixed payload pool. Distinct enough to exercise every cache
/// kind, small enough that a full pass is cheap, and repeated enough
/// that the steady-state hit rate approaches 1.
std::vector<std::string> BuildPayloadPool() {
  std::vector<std::string> pool;
  auto generator = [](const char* kind, std::uint64_t m, std::uint64_t n,
                      std::uint64_t seed) {
    return rstlab::serve::JsonWriter()
        .Field("kind", kind)
        .Field("m", m)
        .Field("n", n)
        .Field("seed", seed)
        .Build();
  };
  for (std::uint64_t v = 0; v < 8; ++v) {
    pool.push_back(rstlab::serve::JsonWriter()
                       .Field("request_id", "e20-fp-" + std::to_string(v))
                       .Field("tenant", v % 2 == 0 ? "alice" : "bob")
                       .Field("problem", "fingerprint")
                       .FieldRaw("generator",
                                 generator("equal", 16 + 8 * v, 12, v))
                       .Field("trials", std::uint64_t{16})
                       .Field("seed", 100 + v)
                       .Build());
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    pool.push_back(
        rstlab::serve::JsonWriter()
            .Field("request_id", "e20-eq-" + std::to_string(v))
            .Field("tenant", "carol")
            .Field("problem", "multiset-equality")
            .FieldRaw("generator",
                      generator(v % 2 == 0 ? "equal" : "perturbed",
                                12 + 4 * v, 10, v))
            .Build());
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    pool.push_back(rstlab::serve::JsonWriter()
                       .Field("request_id", "e20-dj-" + std::to_string(v))
                       .Field("tenant", "alice")
                       .Field("problem", "disjoint")
                       .FieldRaw("generator",
                                 generator("disjoint", 8 + 8 * v, 10, v))
                       .Build());
  }
  for (std::uint64_t v = 0; v < 2; ++v) {
    pool.push_back(rstlab::serve::JsonWriter()
                       .Field("request_id", "e20-c1-" + std::to_string(v))
                       .Field("tenant", "bob")
                       .Field("problem", "claim1")
                       .FieldRaw("generator",
                                 generator("perturbed", 6 + 2 * v, 8, v))
                       .Field("trials", std::uint64_t{12})
                       .Field("seed", 200 + v)
                       .Build());
  }
  for (std::uint64_t v = 0; v < 4; ++v) {
    pool.push_back(
        rstlab::serve::JsonWriter()
            .Field("request_id", "e20-xp-" + std::to_string(v))
            .Field("tenant", "carol")
            .Field("problem", "xpath-count")
            .Field("query",
                   v % 2 == 0 ? "child::book" : "descendant::title")
            .Field("xml",
                   v < 2 ? "<lib><book><title>a</title></book></lib>"
                         : "<lib><book><title>a</title></book>"
                           "<book><title>b</title></book></lib>")
            .Build());
  }
  return pool;
}

/// Extracts the "checksum": value from a result frame (0 if absent).
std::uint64_t FrameChecksum(const std::string& frame) {
  const std::size_t at = frame.find("\"checksum\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(frame.c_str() + at + 11, nullptr, 10);
}

struct WorkerResult {
  std::vector<double> latencies_ms;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

int RunLoad(const rstlab::sorting::RunOptions& run) {
  rstlab::serve::ShutdownGuard shutdown;

  const char* scale = std::getenv("RSTLAB_SERVE_BENCH_REQUESTS");
  const std::uint64_t total_requests =
      scale != nullptr ? std::strtoull(scale, nullptr, 10) : 1200;
  const std::size_t workers = 8;

  rstlab::serve::ServerOptions options;
  options.threads = 4;
  options.max_inflight = 512;
  options.max_connections = 64;
  options.run = run;
  rstlab::serve::HttpServer server(options);
  const rstlab::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "bench_serve: " << started << "\n";
    return 1;
  }

  const std::vector<std::string> pool = BuildPayloadPool();
  std::cout << "serve load: " << total_requests << " requests over "
            << pool.size() << " distinct payloads, " << workers
            << " client workers -> 127.0.0.1:" << server.port() << "\n";

  std::atomic<std::uint64_t> next_request{0};
  std::vector<WorkerResult> results(workers);
  const auto load_start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        rstlab::serve::HttpClient client;
        if (!client.Connect(server.port()).ok()) return;
        WorkerResult& mine = results[w];
        for (;;) {
          const std::uint64_t ordinal = next_request.fetch_add(1);
          if (ordinal >= total_requests || shutdown.requested()) break;
          const std::string& payload = pool[ordinal % pool.size()];
          const auto begin = std::chrono::steady_clock::now();
          auto response =
              client.Request("POST", "/v1/experiment", payload);
          mine.latencies_ms.push_back(SecondsSince(begin) * 1e3);
          if (response.ok() && response.value().status == 200) {
            mine.completed += 1;
          } else {
            mine.failed += 1;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = SecondsSince(load_start);
  const bool interrupted = shutdown.requested();

  std::vector<double> latencies;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const WorkerResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    completed += r.completed;
    failed += r.failed;
  }
  std::sort(latencies.begin(), latencies.end());

  // Canonical checksum: one single-threaded pass over the pool, folded
  // in pool order — a pure function of the payloads, unlike the
  // thread-interleaved load above.
  std::uint64_t checksum = 0;
  {
    rstlab::serve::HttpClient client;
    if (client.Connect(server.port()).ok()) {
      for (const std::string& payload : pool) {
        auto response = client.Request("POST", "/v1/experiment", payload);
        if (response.ok()) {
          checksum = Checksum64(
              {checksum, FrameChecksum(response.value().body)});
        }
      }
    }
  }

  const rstlab::serve::ArtifactCache::Stats cache = server.cache_stats();
  const double p50 = Quantile(latencies, 0.50);
  const double p95 = Quantile(latencies, 0.95);
  const double p99 = Quantile(latencies, 0.99);
  const double throughput =
      wall > 0.0 ? static_cast<double>(completed) / wall : 0.0;

  server.metrics().SetGauge("serve.latency_p50_ms", p50);
  server.metrics().SetGauge("serve.latency_p95_ms", p95);
  server.metrics().SetGauge("serve.latency_p99_ms", p99);
  server.metrics().SetGauge("serve.throughput_rps", throughput);
  server.metrics().SetGauge("serve.cache.hit_rate", cache.hit_rate());
  server.metrics().SetGauge("serve.failed_requests",
                            static_cast<double>(failed));

  std::cout << "  completed " << completed << " (failed " << failed
            << ") in " << wall << " s  ->  " << throughput << " req/s\n"
            << "  latency ms: p50=" << p50 << " p95=" << p95
            << " p99=" << p99 << "\n"
            << "  artifact cache: " << cache.hits << " hits / "
            << cache.misses << " misses (hit rate " << cache.hit_rate()
            << "), " << cache.entries << " entries\n"
            << "  canonical checksum: " << checksum << "\n";

  BenchRecorder recorder("bench_serve", options.threads);
  recorder.set_metrics(&server.metrics());
  recorder.Record("E20.load.requests=" + std::to_string(total_requests),
                  completed, wall, checksum);
  if (auto written = recorder.Write(); written.ok()) {
    std::cout << "serve timings -> " << written.value() << "\n";
  } else {
    std::cerr << "serve timings not written: " << written.status() << "\n";
  }

  // Graceful-shutdown contract: drain in-flight trials, then exit 0 —
  // whether the run finished or a signal cut it short.
  server.Shutdown();
  if (interrupted) {
    std::cout << "interrupted: drained and flushed, exiting 0\n";
    std::exit(0);
  }
  return 0;
}

void BM_HttpParse(benchmark::State& state) {
  const std::string raw =
      "POST /v1/experiment HTTP/1.1\r\nHost: x\r\n"
      "Content-Length: 26\r\n\r\n{\"request_id\":\"bm\",\"x\":1}x";
  const rstlab::serve::HttpLimits limits;
  for (auto _ : state) {
    auto parsed = rstlab::serve::ParseHttpRequest(raw, limits);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_HttpParse);

void BM_ParseExperimentRequest(benchmark::State& state) {
  const std::string body =
      "{\"request_id\":\"bm\",\"problem\":\"fingerprint\",\"generator\":"
      "{\"kind\":\"equal\",\"m\":64,\"n\":12,\"seed\":3},\"trials\":16}";
  for (auto _ : state) {
    auto parsed = rstlab::serve::ParseExperimentRequest(body);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseExperimentRequest);

}  // namespace

int main(int argc, char** argv) {
  // The E20 row carries the server's own metrics, so RunLoad keeps its
  // recorder.
  return rstlab::bench::Main(
      argc, argv, "bench_serve",
      [](rstlab::bench::Bench& b) { return RunLoad(b.run); });
}
