#include "obs/flags.h"

namespace rstlab::obs {

ObsSession::ObsSession(const ObsOptions& options, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  if (!options.trace_path.empty()) {
    jsonl_ = std::make_unique<JsonlSink>(options.trace_path);
  }
  if (options.metrics) {
    registry_ = std::make_unique<MetricsRegistry>();
    counting_ = std::make_unique<CountingSink>(*registry_, jsonl_.get());
  }
  if (TraceSink* s = sink()) {
    s->OnEvent(MakeRunEvent(EventKind::kRunBegin, 0, bench_name_));
  }
}

TraceSink* ObsSession::sink() {
  if (counting_ != nullptr) return counting_.get();
  return jsonl_.get();
}

MetricsRegistry* ObsSession::metrics() { return registry_.get(); }

void ObsSession::Finish(std::ostream& os) {
  if (finished_) return;
  finished_ = true;
  if (TraceSink* s = sink()) {
    s->OnEvent(MakeRunEvent(EventKind::kRunEnd, 0, bench_name_));
  }
  if (jsonl_ != nullptr) {
    jsonl_->Flush();
    if (jsonl_->ok()) {
      os << "trace -> " << jsonl_->path() << " (" << jsonl_->lines()
         << " events)\n";
    } else {
      os << "warning: trace file " << jsonl_->path()
         << " could not be written\n";
    }
  }
  if (registry_ != nullptr) {
    os << "metrics (" << bench_name_ << "):\n";
    registry_->Print(os);
  }
  os << "\n";
}

}  // namespace rstlab::obs
