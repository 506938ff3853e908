// rstbench: the rstlab benchmark. One run measures one workload for a
// fixed number of seconds through the library's public API at library
// defaults, checks every output, and prints its metrics; the last line
// of stdout is one JSON object {correct, attempted, failed, metrics}.
//
//   rstbench --workload decide-outofcore|query-inmemory|serve-mixed
//            --seed N --seconds S --trace 0|1 --scratch-dir DIR
//            [--smoke] [--spans-out FILE] [--git-describe TEXT]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones (README.md maps each to its layer and workload). rstbench/run.py
// builds this binary and is the command BENCHMARK.json names.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "extmem/storage.h"
#include "harness.h"
#include "sorting/sort_config.h"

extern char** environ;

namespace {

struct Args {
  std::string workload;
  rstbench::RunSpec spec;
  std::string spans_out;
  std::string git_describe = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->spec.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->spec.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args->spec.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->spec.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->spec.trace = value == "1";
    } else if (flag == "--scratch-dir") {
      args->spec.scratch_dir = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--git-describe") {
      args->git_describe = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && have_seed && have_seconds &&
         have_trace && !args->spec.scratch_dir.empty();
}

/// Library defaults only: a RSTLAB_* variable would reconfigure every
/// context, sort and engine of the process behind the benchmark's back.
bool RefuseLibraryEnvironment() {
  bool found = false;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RSTLAB_", 7) == 0) {
      std::cerr << "rstbench: refusing to run with " << *env
                << " set (the benchmark measures library defaults)\n";
      found = true;
    }
  }
  return found;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void PrintProvenance(const Args& args) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string build_type = RSTBENCH_BUILD_TYPE;
  std::cout << "# rstbench workload=" << args.workload
            << " seed=" << args.spec.seed << " seconds=" << args.spec.seconds
            << " trace=" << args.spec.trace
            << (args.spec.smoke ? " size=smoke" : " size=full") << "\n"
            << "# provenance: build_type=" << build_type
            << " ndebug=" << ndebug << " compiler=\"" << kCompiler
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " git=" << args.git_describe << "\n";
  if (!ndebug || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::cout << "# WARNING: non-optimized build; timings are not "
                 "comparable with optimized rows\n";
  }
  const rstlab::sorting::SortConfig sort = rstlab::sorting::DefaultSortConfig();
  std::cout << "# sort_config (library default): threads=" << sort.threads
            << " fanout=" << sort.fanout << " run_length=" << sort.run_length
            << " merge_width=" << sort.merge_width << "\n";
  const rstlab::extmem::StorageOptions storage =
      rstlab::extmem::DefaultStorageOptions();
  std::cout << "# storage_options (library default): backend="
            << rstlab::extmem::BackendName(storage.backend)
            << " block_size=" << storage.block_size
            << " cache_blocks=" << storage.cache_blocks
            << " readahead_blocks=" << storage.readahead_blocks
            << " (decide-outofcore sets backend=file, dir=<scratch>/tapes)\n";
}

std::string JsonNumber(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: rstbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch-dir DIR [--smoke] [--spans-out "
                 "FILE] [--git-describe TEXT]\n";
    return 2;
  }
  if (RefuseLibraryEnvironment()) return 2;
  std::error_code ec;
  std::filesystem::create_directories(args.spec.scratch_dir + "/tapes", ec);
  if (ec) {
    std::cerr << "rstbench: cannot create " << args.spec.scratch_dir
              << ": " << ec.message() << "\n";
    return 2;
  }

  PrintProvenance(args);
  rstbench::SpanLog spans(args.spec.trace);
  rstbench::RunReport report;
  if (args.workload == "decide-outofcore") {
    report = rstbench::RunDecideOutOfCore(args.spec, spans);
  } else if (args.workload == "query-inmemory") {
    report = rstbench::RunQueryInMemory(args.spec, spans);
  } else if (args.workload == "serve-mixed") {
    report = rstbench::RunServeMixed(args.spec, spans);
  } else {
    std::cerr << "rstbench: unknown workload " << args.workload << "\n";
    return 2;
  }
  if (spans.enabled() && !args.spans_out.empty() &&
      !spans.WriteJsonl(args.spans_out)) {
    std::cerr << "rstbench: cannot write " << args.spans_out << "\n";
    report.Check(false);
  }
  if (report.attempted == 0) report.Check(false);

  std::cout << "error_rate = "
            << JsonNumber(rstbench::Ratio(
                   static_cast<double>(report.failed),
                   static_cast<double>(report.attempted)))
            << " (" << report.failed << " of " << report.attempted
            << " operations failed or were wrong)\n";
  std::string metrics;
  for (const rstbench::RunReport::Metric& metric : report.metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0;
    std::cout << metric.name << " = " << JsonNumber(value) << " "
              << metric.unit << "\n";
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + JsonNumber(value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  const bool correct = report.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}
