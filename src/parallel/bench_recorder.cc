#include "parallel/bench_recorder.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace rstlab::parallel {

namespace {

/// JSON string escaping for the restricted strings we emit (bench and
/// experiment labels).
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatJsonDouble(double v) {
  std::ostringstream os;
  os.precision(9);
  os << v;
  return os.str();
}

}  // namespace

std::string FormatTrialBenchEntry(const TrialBenchEntry& entry) {
  std::ostringstream os;
  os << "{\"bench\":\"" << EscapeJson(entry.bench) << "\""
     << ",\"experiment\":\"" << EscapeJson(entry.experiment) << "\""
     << ",\"threads\":" << entry.threads
     << ",\"trials\":" << entry.trials
     << ",\"wall_seconds\":" << FormatJsonDouble(entry.wall_seconds)
     << ",\"trials_per_sec\":" << FormatJsonDouble(entry.trials_per_sec)
     << ",\"tally_checksum\":" << entry.tally_checksum;
  if (!entry.metrics_json.empty()) {
    os << ",\"metrics\":" << entry.metrics_json;
  }
  os << "}";
  return os.str();
}

BenchRecorder::BenchRecorder(std::string bench_name, std::size_t threads)
    : bench_name_(std::move(bench_name)), threads_(threads) {}

void BenchRecorder::Record(const std::string& experiment,
                           std::uint64_t trials, double wall_seconds,
                           std::uint64_t tally_checksum) {
  TrialBenchEntry entry;
  entry.bench = bench_name_;
  entry.experiment = experiment;
  entry.threads = threads_;
  entry.trials = trials;
  entry.wall_seconds = wall_seconds;
  entry.trials_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
  entry.tally_checksum = tally_checksum;
  if (metrics_ != nullptr) entry.metrics_json = metrics_->ToJsonObject();
  entries_.push_back(std::move(entry));
}

std::string BenchRecorder::OutputPath() {
  const char* env = std::getenv("RSTLAB_BENCH_JSON");
  return env == nullptr ? std::string() : std::string(env);
}

Result<std::string> BenchRecorder::Write() const {
  const std::string path = OutputPath();
  if (path.empty()) {
    return Status::FailedPrecondition(
        "RSTLAB_BENCH_JSON is unset or empty; set it to a file path to "
        "record the rows");
  }
  // Keep lines from other bench binaries; replace our own. The file is
  // one JSON object per line inside a top-level array, which makes this
  // merge a line filter rather than a JSON parse.
  const std::string own_key = "\"bench\":\"" + EscapeJson(bench_name_) + "\"";
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line == "[" || line == "]") continue;
      if (line.find(own_key) != std::string::npos) continue;
      if (line.back() == ',') line.pop_back();
      if (line.find("\"bench\":") == std::string::npos) continue;
      kept.push_back(line);
    }
  }
  for (const TrialBenchEntry& entry : entries_) {
    kept.push_back(FormatTrialBenchEntry(entry));
  }
  // Assemble the new snapshot in a temp file in the same directory and
  // atomically rename() it over the target: a crash mid-write leaves
  // the previous snapshot intact, and two bench binaries racing each
  // produce a complete file (last rename wins) instead of interleaved
  // garbage corrupting the tracked perf trajectory.
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open " + tmp_path + " for writing");
    }
    out << "[\n";
    for (std::size_t i = 0; i < kept.size(); ++i) {
      out << kept[i] << (i + 1 < kept.size() ? "," : "") << "\n";
    }
    out << "]\n";
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp_path.c_str());
      return Status::Internal("short write to " + tmp_path);
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + " to " + path);
  }
  return path;
}

std::uint64_t Checksum64(std::initializer_list<std::uint64_t> values) {
  std::uint64_t h = 0x243f6a8885a308d3ULL;  // pi digits; arbitrary
  for (std::uint64_t v : values) {
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace rstlab::parallel
