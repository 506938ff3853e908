#ifndef RSTLAB_SERVE_SERVER_H_
#define RSTLAB_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "serve/artifact_cache.h"
#include "serve/http.h"
#include "serve/scheduler.h"
#include "serve/service.h"
#include "sorting/run_options.h"
#include "util/status.h"

namespace rstlab::serve {

/// Configuration for one HttpServer instance; the CLI flags of
/// `rstlab serve` map onto these fields one-to-one.
struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via port() — tests and the conform suite rely on this).
  std::uint16_t port = 0;
  /// Experiments that may run at once, each on the connection thread
  /// that parsed it.
  std::size_t threads = 4;
  /// Admission bound: queued + running experiments before 429.
  std::size_t max_inflight = 256;
  /// Concurrent connections before new accepts get an immediate 503.
  std::size_t max_connections = 64;
  /// ArtifactCache capacity in entries.
  std::size_t cache_entries = 128;
  /// Per-request trial ceiling.
  std::uint64_t max_trials = std::uint64_t{1} << 20;
  /// Generator admission ceiling: a generated instance may occupy at
  /// most this many encoded cells (~ 2*m*(n+1)), rejected at parse
  /// time so no experiment allocates for an oversized request.
  std::uint64_t max_generator_cells = std::uint64_t{1} << 24;
  /// HTTP head/body size limits.
  HttpLimits limits;
  /// Storage, sort geometry and lane width of every experiment (the
  /// common flags of `rstlab`).
  sorting::RunOptions run;
};

/// The experiment daemon: minimal HTTP/1.1 over loopback, one accept
/// thread plus one thread per live connection. Each experiment runs on
/// the connection thread that parsed it, once the FairScheduler grants
/// that thread a slot.
///
/// Endpoints:
///   GET  /healthz        -> {"status":"ok",...}
///   GET  /metrics        -> the MetricsRegistry as one JSON object
///   POST /v1/experiment  -> run one validated experiment request;
///        `"stream":true` responses are chunked NDJSON (trial frames,
///        then the result frame), non-streaming responses are plain
///        JSON with Content-Length and an exact error status (400 bad
///        input, 404 unknown problem, 413 oversized, 429 over
///        admission bound, 503 draining).
///
/// Connections are keep-alive and pipelining-safe: each request is
/// fully consumed (by byte count) before the next is parsed from the
/// same buffer. All response bytes for a request are written by its
/// connection thread, which also executes it, so frames never
/// interleave.
class HttpServer {
 public:
  explicit HttpServer(const ServerOptions& options);

  /// Shuts down if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails with
  /// kInternal if the port cannot be bound.
  Status Start();

  /// The bound port (after Start); stable for the server's lifetime.
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, unblock readers, drain every
  /// admitted experiment, join all threads. Idempotent.
  void Shutdown();

  /// Live registry: cache hit/miss counters, request/error tallies.
  obs::MetricsRegistry& metrics() { return metrics_; }

  FairScheduler::Stats scheduler_stats() const {
    return scheduler_.stats();
  }
  ArtifactCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Parses + runs one request from `buffer`; returns false when the
  /// connection must close (parse error or short write).
  bool HandleParsed(int fd, const HttpRequest& request);
  bool HandleExperiment(int fd, const HttpRequest& request);
  /// Runs the experiment and writes the whole response (streamed or
  /// buffered); returns false when the connection must close.
  bool RunExperimentJob(int fd, const ExperimentRequest& request);
  /// service_.Execute with any escaping exception mapped to an
  /// Internal status (HTTP 500) instead of unwinding into the
  /// connection thread.
  Result<ExperimentResult> ExecuteGuarded(const ExperimentRequest& request,
                                          NdjsonTraceSink* sink = nullptr);

  const ServerOptions options_;
  obs::MetricsRegistry metrics_;
  ArtifactCache cache_;
  ExperimentService service_;
  FairScheduler scheduler_;

  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  // Connection-handler lifecycle: a handler moves its own std::thread
  // into `finished_` as its last locked action; the accept loop (and
  // finally Shutdown) joins those, so every handler is joined — never
  // detached — and member destruction cannot race a live handler.
  std::mutex conn_mutex_;
  std::condition_variable conn_done_;
  std::unordered_set<int> conn_fds_;
  std::unordered_map<std::uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_;
  std::size_t active_connections_ = 0;
  bool started_ = false;
};

}  // namespace rstlab::serve

#endif  // RSTLAB_SERVE_SERVER_H_
