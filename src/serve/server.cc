#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "serve/request.h"
#include "serve/trace_bridge.h"

namespace rstlab::serve {

namespace {

/// Writes the whole buffer; MSG_NOSIGNAL so a client that hung up
/// surfaces as a failed write, not SIGPIPE.
bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::string ErrorBody(const Status& status) {
  return JsonWriter()
             .Field("event", "error")
             .Field("code", StatusCodeName(status.code()))
             .Field("message", status.message())
             .Build() +
         "\n";
}

bool WriteJsonResponse(int fd, int status, const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = body;
  return WriteAll(fd, SerializeResponse(response));
}

bool WriteErrorResponse(int fd, const Status& status) {
  return WriteJsonResponse(fd, HttpStatusForError(status),
                           ErrorBody(status));
}

}  // namespace

HttpServer::HttpServer(const ServerOptions& options)
    : options_(options),
      cache_(options.cache_entries, &metrics_),
      service_(cache_, options.run),
      scheduler_(FairScheduler::Options{options.threads,
                                        options.max_inflight}) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed for port " +
                            std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  std::uint64_t next_id = 0;
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;  // transient accept failure (EINTR, aborted handshake)
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::vector<std::thread> reaped;
    {
      std::unique_lock<std::mutex> lock(conn_mutex_);
      reaped.swap(finished_);
      if (active_connections_ >= options_.max_connections ||
          stopping_.load()) {
        lock.unlock();
        WriteErrorResponse(
            fd, Status::FailedPrecondition("connection limit reached"));
        ::close(fd);
        for (std::thread& t : reaped) t.join();
        continue;
      }
      ++active_connections_;
      conn_fds_.insert(fd);
      const std::uint64_t id = next_id++;
      conn_threads_.emplace(
          id, std::thread([this, fd, id] {
            ServeConnection(fd);
            std::lock_guard<std::mutex> exit_lock(conn_mutex_);
            conn_fds_.erase(fd);
            --active_connections_;
            auto self = conn_threads_.find(id);
            finished_.push_back(std::move(self->second));
            conn_threads_.erase(self);
            conn_done_.notify_all();
          }));
    }
    // Finished handlers are joined outside the lock; each join is
    // near-instant because the thread already signalled completion.
    for (std::thread& t : reaped) t.join();
  }
}

void HttpServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[64 * 1024];
  while (!stopping_.load()) {
    const HttpParseResult parsed = ParseHttpRequest(buffer, options_.limits);
    if (parsed.progress == ParseProgress::kError) {
      metrics_.Add("serve.http.parse_errors");
      WriteJsonResponse(fd, parsed.http_status, ErrorBody(parsed.error));
      break;  // protocol state is unrecoverable; drop the connection
    }
    if (parsed.progress == ParseProgress::kDone) {
      buffer.erase(0, parsed.consumed);
      if (!HandleParsed(fd, parsed.request)) break;
      continue;  // the buffer may already hold a pipelined request
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed (or Shutdown() woke us)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

bool HttpServer::HandleParsed(int fd, const HttpRequest& request) {
  metrics_.Add("serve.requests");
  if (request.method == "GET" && request.target == "/healthz") {
    return WriteJsonResponse(fd, 200,
                             JsonWriter()
                                 .Field("status", "ok")
                                 .Field("port", port_)
                                 .Build() +
                                 "\n");
  }
  if (request.method == "GET" && request.target == "/metrics") {
    const FairScheduler::Stats stats = scheduler_.stats();
    metrics_.SetGauge("serve.scheduler.inflight",
                      static_cast<double>(stats.inflight));
    return WriteJsonResponse(fd, 200, metrics_.ToJsonObject() + "\n");
  }
  if (request.method == "POST" && request.target == "/v1/experiment") {
    return HandleExperiment(fd, request);
  }
  metrics_.Add("serve.http.unrouted");
  const Status status =
      request.target == "/healthz" || request.target == "/metrics" ||
              request.target == "/v1/experiment"
          ? Status::InvalidArgument("method not supported for " +
                                    request.target)
          : Status::NotFound("no route for " + request.target);
  return WriteErrorResponse(fd, status);
}

Result<ExperimentResult> HttpServer::ExecuteGuarded(
    const ExperimentRequest& request, NdjsonTraceSink* sink) {
  try {
    return service_.Execute(request, sink);
  } catch (const std::exception& e) {
    metrics_.Add("serve.experiment.threw");
    return Status::Internal(std::string("experiment execution failed: ") +
                            e.what());
  } catch (...) {
    metrics_.Add("serve.experiment.threw");
    return Status::Internal("experiment execution failed");
  }
}

bool HttpServer::RunExperimentJob(int fd,
                                  const ExperimentRequest& experiment) {
  bool ok = true;
  if (experiment.stream) {
    HttpResponse head;
    head.status = 200;
    head.chunked = true;
    head.headers.emplace_back("Content-Type", "application/x-ndjson");
    ok = WriteAll(fd, SerializeResponse(head));
    NdjsonTraceSink sink([fd, &ok](std::string_view line) {
      if (ok) ok = WriteAll(fd, EncodeChunk(std::string(line) + "\n"));
    });
    Result<ExperimentResult> result = ExecuteGuarded(experiment, &sink);
    const std::string frame = result.ok()
                                  ? result.value().ToJson() + "\n"
                                  : ErrorBody(result.status());
    if (ok) ok = WriteAll(fd, EncodeChunk(frame));
    if (ok) ok = WriteAll(fd, FinalChunk());
  } else {
    Result<ExperimentResult> result = ExecuteGuarded(experiment);
    if (result.ok()) {
      ok = WriteJsonResponse(fd, 200, result.value().ToJson() + "\n");
    } else {
      metrics_.Add("serve.experiment.failed");
      ok = WriteErrorResponse(fd, result.status());
    }
  }
  return ok;
}

bool HttpServer::HandleExperiment(int fd, const HttpRequest& request) {
  Result<ExperimentRequest> parsed =
      ParseExperimentRequest(request.body, options_.max_trials,
                             options_.max_generator_cells);
  if (!parsed.ok()) {
    metrics_.Add("serve.experiment.invalid");
    return WriteErrorResponse(fd, parsed.status());
  }
  const ExperimentRequest experiment = std::move(parsed).value();
  const Status budget_check =
      ValidateBudgetAgainstRegistry(experiment, cache_);
  if (!budget_check.ok()) {
    metrics_.Add("serve.experiment.invalid");
    return WriteErrorResponse(fd, budget_check);
  }

  // The experiment runs on this connection thread once the scheduler
  // grants it a slot, and this thread writes every response byte.
  bool write_ok = false;
  Status admitted = Status::OK();
  try {
    admitted = scheduler_.Run(experiment.tenant, [&] {
      write_ok = RunExperimentJob(fd, experiment);
    });
  } catch (...) {
    write_ok = false;  // response may be half-written; drop the connection
  }
  if (!admitted.ok()) {
    metrics_.Add(admitted.code() == StatusCode::kResourceExhausted
                     ? "serve.experiment.rejected"
                     : "serve.experiment.draining");
    return WriteErrorResponse(fd, admitted);
  }
  metrics_.Add("serve.experiment.completed");
  return write_ok;
}

void HttpServer::Shutdown() {
  if (!started_) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // Unblock accept(), then every connection reader.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  std::vector<std::thread> to_join;
  {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_done_.wait(lock, [this] { return conn_threads_.empty(); });
    to_join.swap(finished_);
  }
  // join() returns only after the handler fully terminates (including
  // its notify above), so member destruction cannot race it.
  for (std::thread& t : to_join) t.join();

  scheduler_.Drain();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace rstlab::serve
