// The parallel-sort oracle: the k-way external sort must produce the
// same sorted tape and bill the same (r, s) at every thread count and
// on both storage backends — the generalization of the 1-vs-N trial
// tally oracle to sorting. The suite also self-tests the spill-lane
// lifecycle: a sort that fails mid-flight must leave no files behind
// in the tape directory.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "conform/case_id.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "extmem/storage.h"
#include "sorting/parallel_sort.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "tape/resource_meter.h"
#include "util/bitstring.h"
#include "util/random.h"

namespace rstlab::conform {

namespace {

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const auto& f : fields) {
    out += f;
    out += '#';
  }
  return out;
}

std::vector<std::string> TapeFields(stmodel::StContext& ctx) {
  tape::Tape& t = ctx.tape(0);
  t.Seek(0);
  std::vector<std::string> fields;
  while (!stmodel::AtEnd(t)) fields.push_back(stmodel::ReadField(t));
  return fields;
}

extmem::StorageOptions FileOptions(const std::string& dir) {
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 64;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  options.dir = dir;
  return options;
}

std::size_t FilesIn(const std::filesystem::path& dir) {
  std::error_code ec;
  std::size_t count = 0;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    ++count;
  }
  return count;
}

/// One sort run at the given geometry; fills output fields and report.
Status RunSort(const std::vector<std::string>& fields,
               const extmem::StorageOptions& options,
               const sorting::SortConfig& config,
               std::vector<std::string>* out,
               tape::ResourceReport* report) {
  stmodel::StContext ctx(1, options);
  ctx.LoadInput(JoinFields(fields));
  RSTLAB_RETURN_IF_ERROR(
      sorting::ParallelSortFieldsOnTape(ctx, 0, config));
  *out = TapeFields(ctx);
  *report = ctx.Report();
  return Status::OK();
}

std::string RenderReportDiff(const char* what,
                             const tape::ResourceReport& a,
                             const tape::ResourceReport& b) {
  return std::string(what) + ": cost bill differs: [" + a.ToString() +
         "] vs [" + b.ToString() + "]";
}

/// "" when the sort conforms on `fields`: serial-vs-parallel and
/// mem-vs-file output and bill identity, sortedness, and lane cleanup
/// after an injected failure.
std::string CheckSortCase(const std::vector<std::string>& fields) {
  sorting::SortConfig config;
  config.fanout = 3;
  config.run_length = 4;
  config.threads = 1;

  std::vector<std::string> serial_out;
  tape::ResourceReport serial_report;
  Status status =
      RunSort(fields, extmem::StorageOptions{}, config, &serial_out,
              &serial_report);
  if (!status.ok()) return "serial sort failed: " + status.ToString();

  std::vector<std::string> expected = fields;
  std::sort(expected.begin(), expected.end());
  if (serial_out != expected) return "serial sort output not sorted";

  config.threads = 3;
  std::vector<std::string> parallel_out;
  tape::ResourceReport parallel_report;
  status = RunSort(fields, extmem::StorageOptions{}, config, &parallel_out,
                   &parallel_report);
  if (!status.ok()) return "parallel sort failed: " + status.ToString();
  // Self-test fault: a phantom reversal on the parallel run — the bug a
  // thread-dependent billing path would introduce.
  if (FaultInjectionEnabled()) parallel_report.scan_bound += 1;
  if (parallel_out != serial_out) {
    return "output differs between 1 and 3 threads";
  }
  if (serial_report.scan_bound != parallel_report.scan_bound ||
      serial_report.reversals_per_tape !=
          parallel_report.reversals_per_tape ||
      serial_report.internal_space != parallel_report.internal_space ||
      serial_report.external_space != parallel_report.external_space) {
    return RenderReportDiff("1 vs 3 threads", serial_report,
                            parallel_report);
  }

  // Per-invocation lane directory: the dir name is not an observable,
  // it only isolates this check's file counting. The pid keeps two
  // processes running the suite at once (ctest -j) out of each other's
  // directories, which each one removes when done.
  static std::atomic<std::uint64_t> dir_counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      (std::string("rstlab-conform-sort-") + std::to_string(::getpid()) +
       "-" +
       std::to_string(dir_counter.fetch_add(1, std::memory_order_relaxed)));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create lane dir: " + ec.message();

  std::vector<std::string> file_out;
  tape::ResourceReport file_report;
  status = RunSort(fields, FileOptions(dir.string()), config, &file_out,
                   &file_report);
  std::string failure;
  if (!status.ok()) {
    failure = "file-backend sort failed: " + status.ToString();
  } else if (file_out != serial_out) {
    failure = "output differs between mem and file backends";
  } else if (file_report.scan_bound != serial_report.scan_bound ||
             file_report.reversals_per_tape !=
                 serial_report.reversals_per_tape ||
             file_report.internal_space != serial_report.internal_space ||
             file_report.external_space != serial_report.external_space) {
    failure = RenderReportDiff("mem vs file", serial_report, file_report);
  } else if (FilesIn(dir) != 0) {
    // All contexts are gone; a leftover file is a leaked spill lane.
    failure = "successful sort leaked files in the tape dir";
  } else if (fields.size() > 1) {
    // Lifecycle self-test: fail the sort after run formation and check
    // the lanes were still unlinked.
    sorting::SortConfig failing = config;
    failing.inject_failure_before_merge = true;
    stmodel::StContext ctx(1, FileOptions(dir.string()));
    ctx.LoadInput(JoinFields(fields));
    const std::size_t baseline = FilesIn(dir);  // the context's own tape
    if (sorting::ParallelSortFieldsOnTape(ctx, 0, failing).ok()) {
      failure = "injected failure did not fail the sort";
    } else if (FilesIn(dir) != baseline) {
      failure = "failed sort left spill files in the tape dir";
    }
  }
  std::filesystem::remove_all(dir, ec);
  return failure;
}

class SortSuite final : public Suite {
 public:
  const char* name() const override { return "parallel-sort"; }
  const char* description() const override {
    return "k-way external sort: 1-vs-N threads and mem-vs-file output "
           "and (r, s) identity, plus spill-lane cleanup on failure";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    const std::size_t m = rng.UniformBelow(60);
    std::vector<std::string> fields;
    for (std::size_t i = 0; i < m; ++i) {
      fields.push_back(
          BitString::Random(1 + rng.UniformBelow(10), rng).ToString());
    }

    CaseOutcome outcome;
    std::string failure = CheckSortCase(fields);
    if (failure.empty()) return outcome;

    const std::function<bool(const std::vector<std::string>&)> still_fails =
        [](const std::vector<std::string>& candidate) {
          return !CheckSortCase(candidate).empty();
        };
    const std::function<std::vector<std::vector<std::string>>(
        const std::vector<std::string>&)>
        candidates = &SequenceRemovalCandidates<std::string>;
    ShrinkStats stats;
    fields = GreedyShrink(std::move(fields), still_fails, candidates,
                          /*max_attempts=*/200, &stats);

    outcome.passed = false;
    outcome.failure = CheckSortCase(fields);
    outcome.counterexample =
        JoinFields(fields) + "  (m=" + std::to_string(fields.size()) + ")";
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeSortSuite() {
  return std::make_unique<SortSuite>();
}

}  // namespace rstlab::conform
