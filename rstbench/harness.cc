#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace rstbench {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<std::vector<double>> Window::Intervals() const {
  const auto whole =
      interval_s > 0 ? static_cast<std::size_t>(wall_s / interval_s) : 0;
  if (whole == 0) return {latencies_ms};
  std::vector<std::vector<double>> groups(whole);
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    const auto k = static_cast<std::size_t>(end_s[i] / interval_s);
    if (k < whole) groups[k].push_back(latencies_ms[i]);
  }
  return groups;
}

double Window::IntervalMedian(double q) const {
  std::vector<double> per_interval;
  for (const std::vector<double>& group : Intervals()) {
    per_interval.push_back(Percentile(group, q));
  }
  return Median(per_interval);
}

double Window::ops_per_s() const {
  if (interval_s <= 0 || wall_s < interval_s) {
    return Ratio(static_cast<double>(latencies_ms.size()), wall_s);
  }
  std::vector<double> rates;
  for (const std::vector<double>& group : Intervals()) {
    rates.push_back(static_cast<double>(group.size()) / interval_s);
  }
  return Median(rates);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double part, double whole) {
  return whole == 0 ? 0 : part / whole;
}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int64_t SpanLog::Begin(const char* name, std::uint64_t op,
                            std::int64_t parent) {
  if (!enabled_) return -1;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, op, parent, now, now});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::End(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

double CoveredPct(const SpanLog& log, const std::string& root) {
  const std::vector<SpanLog::Span> spans = log.spans();
  std::vector<double> children_ms(spans.size(), 0.0);
  for (const SpanLog::Span& span : spans) {
    if (span.parent >= 0) {
      children_ms[static_cast<std::size_t>(span.parent)] += span.ms();
    }
  }
  std::vector<double> shares;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root && spans[i].ms() > 0) {
      shares.push_back(100.0 * children_ms[i] / spans[i].ms());
    }
  }
  return Median(shares);
}

void AddEndToEnd(RunReport& report, const Window& window, double setup_s) {
  report.Add("ops_per_s", window.ops_per_s(), "1/s");
  report.Add("op_p50_ms", window.p50_ms(), "ms");
  report.Add("op_p99_ms", window.p99_ms(), "ms");
  report.Add("success_rate",
             1.0 - Ratio(static_cast<double>(report.failed),
                         static_cast<double>(report.attempted)),
             "ratio");
  report.Add("setup_s", setup_s, "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// The per-layer metric list, in print order. BENCHMARK.json's
// `per_layer` names exactly these; the smoke test checks that.
constexpr LayerSpec kLayers[] = {
    {"stmodel.load_input_ms", "ms"},
    {"sorting.decide_ms", "ms"},
    {"sorting.sort_ms", "ms"},
    {"sorting.passes", "count"},
    {"tape.scans", "count"},
    {"tape.internal_bits", "bits"},
    {"extmem.block_reads", "count"},
    {"extmem.block_writes", "count"},
    {"extmem.blocks_per_mcell", "blocks/Mcell"},
    {"extmem.cache_hit_rate", "ratio"},
    {"extmem.readahead_hit_rate", "ratio"},
    {"extmem.prefetch_hit_rate", "ratio"},
    {"extmem.evictions", "count"},
    {"query.shared_scan_ms", "ms"},
    {"query.spool_build_ms", "ms"},
    {"query.pipelines_ms", "ms"},
    {"check.certify_plan_us", "us"},
    {"query.scans", "count"},
    {"query.internal_bits", "bits"},
    {"query.sorts", "count"},
    {"query.tuples_out", "count"},
    {"serve.http_parse_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.admit_us", "us"},
    {"serve.execute_us", "us"},
    {"serve.execute_us.fingerprint", "us"},
    {"serve.execute_us.set-equality", "us"},
    {"serve.execute_us.multiset-equality", "us"},
    {"serve.execute_us.disjoint", "us"},
    {"serve.execute_us.claim1", "us"},
    {"serve.execute_us.xpath-count", "us"},
    {"serve.encode_us", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_lookups", "count"},
    {"serve.rejected", "count"},
    {"serve.admitted", "count"},
    {"fingerprint.cold_setup_ms", "ms"},
};

}  // namespace

bool AddLayers(RunReport& report, const LayerValues& values,
               const Window& untraced, const Window& traced,
               double covered_pct) {
  std::size_t found = 0;
  for (const LayerSpec& spec : kLayers) {
    const auto it = values.find(spec.name);
    found += it != values.end();
    report.Add(spec.name, it != values.end() ? it->second : 0, spec.unit);
  }
  report.Add("process.cpu_s_per_op", untraced.cpu_s_per_op(), "s");
  report.Add("trace.untraced_op_p50_ms", untraced.p50_ms(), "ms");
  report.Add("trace.op_p50_ms", traced.p50_ms(), "ms");
  report.Add("trace.overhead_pct",
             100.0 * Ratio(traced.p50_ms() - untraced.p50_ms(),
                           untraced.p50_ms()),
             "%");
  report.Add("trace.covered_pct", covered_pct, "%");
  return found == values.size();
}

}  // namespace rstbench
