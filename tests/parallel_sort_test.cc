// Property and unit tests for the k-way external merge sort, the one
// external sort: the loser tree, the sort itself across the full
// fanout x thread matrix (output and measured (r, s) bit-identical to
// the serial run), the paper geometry's ceil(log2 m) passes and
// Theta(log N) scans, backend independence, the RST015 sort
// certificate, spill-lane cleanup on success and failure, the decider
// entry point, the common-flag parser and the fanout environment rule.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/diagnostics.h"
#include "check/sort_certificate.h"
#include "conform/harness.h"
#include "obs/metrics.h"
#include "sorting/deciders.h"
#include "sorting/loser_tree.h"
#include "sorting/parallel_sort.h"
#include "sorting/run_options.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "stmodel/tape_io.h"
#include "util/random.h"

namespace rstlab::sorting {
namespace {

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string out;
  for (const auto& f : fields) {
    out += f;
    out += '#';
  }
  return out;
}

std::vector<std::string> TapeFields(stmodel::StContext& ctx,
                                    std::size_t index) {
  tape::Tape& t = ctx.tape(index);
  t.Seek(0);
  std::vector<std::string> fields;
  while (!stmodel::AtEnd(t)) fields.push_back(stmodel::ReadField(t));
  return fields;
}

/// A random multiset: values drawn from a small pool so duplicates are
/// guaranteed, lengths mixed so field boundaries are irregular.
std::vector<std::string> RandomMultiset(std::size_t m, Rng& rng) {
  std::vector<std::string> pool;
  const std::size_t pool_size = std::max<std::size_t>(1, m / 3 + 1);
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(
        BitString::Random(1 + rng.UniformBelow(12), rng).ToString());
  }
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < m; ++i) {
    fields.push_back(pool[rng.UniformBelow(pool.size())]);
  }
  return fields;
}

// ---------------------------------------------------------------------
// Loser tree
// ---------------------------------------------------------------------

TEST(LoserTreeTest, MergesSortedSequencesInOrder) {
  const std::vector<std::vector<std::string>> ways = {
      {"00", "10", "11"}, {"01", "01"}, {}, {"0", "1", "1", "11"}};
  LoserTree tree(ways.size());
  std::vector<std::size_t> next(ways.size(), 0);
  for (std::size_t i = 0; i < ways.size(); ++i) {
    tree.SetInitial(i, ways[i].empty() ? nullptr : &ways[i][0]);
    next[i] = 1;
  }
  tree.Build();
  std::vector<std::string> out;
  while (!tree.empty()) {
    const std::size_t slot = tree.top();
    out.push_back(tree.top_value());
    const std::string* replacement =
        next[slot] < ways[slot].size() ? &ways[slot][next[slot]] : nullptr;
    ++next[slot];
    tree.Replace(slot, replacement);
  }
  std::vector<std::string> expected;
  for (const auto& w : ways) expected.insert(expected.end(), w.begin(), w.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(out, expected);
}

TEST(LoserTreeTest, TiesGoToTheLowerSlot) {
  const std::string a = "01";
  const std::string b = "01";
  LoserTree tree(3);
  tree.SetInitial(0, &b);
  tree.SetInitial(1, &a);
  tree.SetInitial(2, nullptr);
  tree.Build();
  EXPECT_EQ(tree.top(), 0u);
  tree.Replace(0, nullptr);
  EXPECT_EQ(tree.top(), 1u);
  tree.Replace(1, nullptr);
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTreeTest, SingleWayDrains) {
  const std::string only = "1";
  LoserTree tree(1);
  tree.SetInitial(0, &only);
  tree.Build();
  ASSERT_FALSE(tree.empty());
  EXPECT_EQ(tree.top_value(), "1");
  tree.Replace(0, nullptr);
  EXPECT_TRUE(tree.empty());
}

TEST(LoserTreeTest, AllExhaustedIsEmpty) {
  LoserTree tree(5);
  for (std::size_t i = 0; i < 5; ++i) tree.SetInitial(i, nullptr);
  tree.Build();
  EXPECT_TRUE(tree.empty());
}

// ---------------------------------------------------------------------
// The fanout x threads matrix: output and (r, s) bit-identity
// ---------------------------------------------------------------------

struct MatrixResult {
  std::vector<std::string> fields;
  tape::ResourceReport report;
  ParallelSortStats stats;
};

MatrixResult RunMatrixCase(const std::vector<std::string>& input,
                           std::size_t fanout, std::size_t threads,
                           std::size_t run_length) {
  SortConfig config;
  config.fanout = fanout;
  config.threads = threads;
  config.run_length = run_length;
  stmodel::StContext ctx(1);
  ctx.LoadInput(JoinFields(input));
  MatrixResult result;
  Status status = ParallelSortFieldsOnTape(ctx, 0, config, &result.stats);
  EXPECT_TRUE(status.ok()) << status;
  result.fields = TapeFields(ctx, 0);
  result.report = ctx.Report();
  return result;
}

class ParallelSortMatrixTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelSortMatrixTest, MatchesStdSortAndSerialAtEveryThreadCount) {
  const std::size_t fanout = GetParam();
  // Trial count honours RSTLAB_TEST_CASES (property tier contract).
  const std::size_t trials = std::max<std::size_t>(
      1, conform::EnvTestCases(6));
  Rng rng(1000 + fanout);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::size_t m = rng.UniformBelow(220);
    SCOPED_TRACE("fanout " + std::to_string(fanout) + " trial " +
                 std::to_string(trial) + " m " + std::to_string(m));
    std::vector<std::string> input = RandomMultiset(m, rng);
    // run_length 4 forces multiple merge passes at every fanout.
    const MatrixResult serial = RunMatrixCase(input, fanout, 1, 4);

    std::vector<std::string> expected = input;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(serial.fields, expected);
    EXPECT_EQ(serial.stats.num_fields, m);

    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const MatrixResult parallel = RunMatrixCase(input, fanout, threads, 4);
      // Bit-identical output...
      EXPECT_EQ(parallel.fields, serial.fields);
      // ...and bit-identical model costs: same scan bound, internal
      // bits, external cells and per-tape reversal counts.
      EXPECT_EQ(parallel.report.scan_bound, serial.report.scan_bound);
      EXPECT_EQ(parallel.report.internal_space,
                serial.report.internal_space);
      EXPECT_EQ(parallel.report.external_space,
                serial.report.external_space);
      EXPECT_EQ(parallel.report.reversals_per_tape,
                serial.report.reversals_per_tape);
      // The deterministic structure stats agree too.
      EXPECT_EQ(parallel.stats.num_runs, serial.stats.num_runs);
      EXPECT_EQ(parallel.stats.merge_passes, serial.stats.merge_passes);
      EXPECT_EQ(parallel.stats.scratch_reversals,
                serial.stats.scratch_reversals);
      EXPECT_EQ(parallel.stats.scratch_cells, serial.stats.scratch_cells);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, ParallelSortMatrixTest,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

TEST(ParallelSortTest, AgreesWithStdSort) {
  Rng rng(77);
  for (const std::size_t m : {0u, 1u, 2u, 5u, 33u, 128u, 300u}) {
    std::vector<std::string> input = RandomMultiset(m, rng);
    SortConfig config;
    config.fanout = 4;
    config.threads = 4;
    config.run_length = 8;
    stmodel::StContext ctx(1);
    ctx.LoadInput(JoinFields(input));
    ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
    std::sort(input.begin(), input.end());
    EXPECT_EQ(TapeFields(ctx, 0), input) << "m=" << m;
  }
}

// ---------------------------------------------------------------------
// Fixed cases, at the paper geometry and at the default one
// ---------------------------------------------------------------------

class ParallelSortCasesTest
    : public ::testing::TestWithParam<std::vector<std::string>> {};

TEST_P(ParallelSortCasesTest, SortsLikeStdSort) {
  std::vector<std::string> expected = GetParam();
  std::sort(expected.begin(), expected.end());
  for (const SortConfig& config : {kPaperSortConfig, SortConfig{}}) {
    SCOPED_TRACE("fanout " + std::to_string(config.fanout));
    stmodel::StContext ctx(1);
    ctx.LoadInput(JoinFields(GetParam()));
    ParallelSortStats stats;
    const Status status = ParallelSortFieldsOnTape(ctx, 0, config, &stats);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(TapeFields(ctx, 0), expected);
    EXPECT_EQ(stats.num_fields, GetParam().size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelSortCasesTest,
    ::testing::Values(
        std::vector<std::string>{},
        std::vector<std::string>{"1"},
        std::vector<std::string>{"1", "0"},
        std::vector<std::string>{"0", "1"},
        std::vector<std::string>{"10", "01", "11", "00"},
        std::vector<std::string>{"1", "1", "1"},
        std::vector<std::string>{"01", "0", "011", "0011", "0"},
        std::vector<std::string>{"111", "110", "101", "100", "011",
                                 "010", "001", "000"},
        std::vector<std::string>{"0101", "0101", "1010", "1010",
                                 "0101"}));

TEST(ParallelSortTest, TiesKeepEveryCopy) {
  for (const SortConfig& config : {kPaperSortConfig, SortConfig{}}) {
    stmodel::StContext ctx(1);
    ctx.LoadInput("1#1#1#1#1#");
    ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
    EXPECT_EQ(TapeFields(ctx, 0),
              (std::vector<std::string>{"1", "1", "1", "1", "1"}));
  }
}

// ---------------------------------------------------------------------
// The paper geometry: ceil(log2 m) passes, Theta(log N) scans
// ---------------------------------------------------------------------

class PaperGeometryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaperGeometryTest, SortsRandomInputsInLog2Passes) {
  const std::size_t m = GetParam();
  Rng rng(m);
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < m; ++i) {
    fields.push_back(BitString::Random(8, rng).ToString());
  }
  stmodel::StContext ctx(1);
  ctx.LoadInput(JoinFields(fields));
  ParallelSortStats stats;
  ASSERT_TRUE(
      ParallelSortFieldsOnTape(ctx, 0, kPaperSortConfig, &stats).ok());
  std::sort(fields.begin(), fields.end());
  EXPECT_EQ(TapeFields(ctx, 0), fields);
  EXPECT_EQ(stats.num_runs, m);
  EXPECT_EQ(stats.merge_passes,
            static_cast<std::size_t>(
                std::ceil(std::log2(static_cast<double>(m)))));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PaperGeometryTest,
                         ::testing::Values(2, 3, 7, 16, 33, 100, 255,
                                           256, 500));

TEST(PaperGeometrySortTest, ReversalsGrowLogarithmically) {
  // Doubling the field count adds one merge pass, hence a constant
  // number of reversals (4k = 8 at fanout 2).
  std::vector<std::uint64_t> scans;
  Rng rng(3);
  for (std::size_t m : {64u, 128u, 256u, 512u}) {
    std::vector<std::string> fields;
    for (std::size_t i = 0; i < m; ++i) {
      fields.push_back(BitString::Random(16, rng).ToString());
    }
    stmodel::StContext ctx(1);
    ctx.LoadInput(JoinFields(fields));
    ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, kPaperSortConfig).ok());
    scans.push_back(ctx.Report().scan_bound);
  }
  const std::uint64_t d1 = scans[1] - scans[0];
  EXPECT_GT(d1, 0u);
  EXPECT_LE(d1, 16u);
  // Consecutive deltas are equal: the signature of c*log N growth.
  EXPECT_EQ(scans[2] - scans[1], d1);
  EXPECT_EQ(scans[3] - scans[2], d1);
}

TEST(ParallelSortTest, MoreFanoutFewerPasses) {
  Rng rng(7);
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < 256; ++i) {
    fields.push_back(BitString::Random(10, rng).ToString());
  }
  std::vector<std::size_t> passes;
  std::vector<std::uint64_t> scans;
  for (std::size_t k : {2u, 4u, 8u}) {
    SortConfig config = kPaperSortConfig;
    config.fanout = k;
    stmodel::StContext ctx(1);
    ctx.LoadInput(JoinFields(fields));
    ParallelSortStats stats;
    ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config, &stats).ok());
    passes.push_back(stats.merge_passes);
    scans.push_back(ctx.Report().scan_bound);
  }
  // ceil(log_k 256): 8, 4, 3.
  EXPECT_EQ(passes[0], 8u);
  EXPECT_EQ(passes[1], 4u);
  EXPECT_EQ(passes[2], 3u);
  // Passes fall with k, but the model's r sums reversals over all 2k
  // tapes (Definition 1): each pass costs 4k, so k = 8 pays more than
  // its 3 passes save against k = 4.
  EXPECT_LT(scans[1], scans[2]);
}

TEST(ParallelSortTest, HandlesUnterminatedTrailingField) {
  SortConfig config;
  config.fanout = 2;
  config.threads = 2;
  config.run_length = 2;
  stmodel::StContext ctx(1);
  ctx.LoadInput("11#00#01");  // trailing field without separator
  ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
  EXPECT_EQ(TapeFields(ctx, 0),
            (std::vector<std::string>{"00", "01", "11"}));
}

TEST(ParallelSortTest, RejectsBadArguments) {
  stmodel::StContext ctx(1);
  ctx.LoadInput("1#");
  SortConfig config;
  config.fanout = 0;
  EXPECT_FALSE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
  config.fanout = 1;
  EXPECT_FALSE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
  config.fanout = 2;
  EXPECT_FALSE(ParallelSortFieldsOnTape(ctx, 7, config).ok());
}

// ---------------------------------------------------------------------
// Backend independence
// ---------------------------------------------------------------------

TEST(ParallelSortTest, FileBackendMatchesMemBackend) {
  Rng rng(42);
  std::vector<std::string> input = RandomMultiset(150, rng);
  SortConfig config;
  config.fanout = 3;
  config.threads = 4;
  config.run_length = 8;

  extmem::StorageOptions mem_options;
  mem_options.backend = extmem::BackendKind::kMem;
  stmodel::StContext mem_ctx(1, mem_options);
  mem_ctx.LoadInput(JoinFields(input));
  ASSERT_TRUE(ParallelSortFieldsOnTape(mem_ctx, 0, config).ok());

  extmem::StorageOptions file_options;
  file_options.backend = extmem::BackendKind::kFile;
  file_options.block_size = 256;
  file_options.cache_blocks = 8;  // force out-of-core block traffic
  stmodel::StContext file_ctx(1, file_options);
  ASSERT_EQ(file_ctx.backend(), extmem::BackendKind::kFile);
  file_ctx.LoadInput(JoinFields(input));
  ASSERT_TRUE(ParallelSortFieldsOnTape(file_ctx, 0, config).ok());

  EXPECT_EQ(TapeFields(file_ctx, 0), TapeFields(mem_ctx, 0));
  const tape::ResourceReport mem_report = mem_ctx.Report();
  const tape::ResourceReport file_report = file_ctx.Report();
  EXPECT_EQ(file_report.scan_bound, mem_report.scan_bound);
  EXPECT_EQ(file_report.internal_space, mem_report.internal_space);
  EXPECT_EQ(file_report.external_space, mem_report.external_space);
  EXPECT_EQ(file_report.reversals_per_tape, mem_report.reversals_per_tape);
}

// ---------------------------------------------------------------------
// Prefetch counters
// ---------------------------------------------------------------------

TEST(ParallelSortTest, PublishesPrefetchCounters) {
  Rng rng(11);
  // Long runs (>> one reader chunk) so the double-buffered readers
  // actually fill their standby buffers during the merge.
  std::vector<std::string> input;
  for (std::size_t i = 0; i < 2000; ++i) {
    input.push_back(BitString::Random(12, rng).ToString());
  }
  obs::MetricsRegistry metrics;
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kMem;
  options.block_size = 1024;  // reader chunk = block_size * readahead
  options.metrics = &metrics;
  stmodel::StContext ctx(1, options);
  ctx.LoadInput(JoinFields(input));
  SortConfig config;
  config.fanout = 2;
  config.threads = 2;
  config.run_length = 1000;
  ParallelSortStats stats;
  ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config, &stats).ok());
  EXPECT_GT(stats.io.prefetch_issued, 0u);
  EXPECT_LE(stats.io.prefetch_hits, stats.io.prefetch_issued);
  EXPECT_EQ(metrics.counter("extmem.prefetch_issued"),
            stats.io.prefetch_issued);
  EXPECT_EQ(metrics.counter("extmem.prefetch_hits"),
            stats.io.prefetch_hits);
}

// ---------------------------------------------------------------------
// The RST015 sort certificate
// ---------------------------------------------------------------------

TEST(SortCertificateTest, MeasuredCostsStayWithinCertificate) {
  Rng rng(5);
  for (const std::size_t m : {2u, 17u, 64u, 256u, 1024u}) {
    for (const std::size_t fanout : {2u, 4u, 16u}) {
      SCOPED_TRACE("m " + std::to_string(m) + " fanout " +
                   std::to_string(fanout));
      std::vector<std::string> input = RandomMultiset(m, rng);
      SortConfig config;
      config.fanout = fanout;
      config.threads = 4;
      config.run_length = 8;
      stmodel::StContext ctx(1);
      ctx.LoadInput(JoinFields(input));
      ParallelSortStats stats;
      ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config, &stats).ok());
      const check::SortCertificate cert = check::CertifyKWaySort(
          stats.num_fields, stats.max_field_len, ctx.input_size(), fanout,
          config.run_length);
      EXPECT_EQ(cert.merge_passes, stats.merge_passes);
      const Status ok =
          check::CheckSortCostsAgainstCertificate(ctx.Report(), cert);
      EXPECT_TRUE(ok.ok()) << ok << " vs " << cert.ToString();
      // The scratch formula is charged exactly, so the measured scan
      // bound sits between the scratch bill and the certificate.
      EXPECT_GE(ctx.Report().scan_bound, stats.scratch_reversals);
    }
  }
}

TEST(SortCertificateTest, ViolationIsReportedAsRst015) {
  check::SortCertificate cert =
      check::CertifyKWaySort(64, 8, 1024, 4, 8);
  tape::ResourceReport report;
  report.scan_bound = cert.max_scan_bound + 1;
  const Status scans = check::CheckSortCostsAgainstCertificate(report, cert);
  ASSERT_FALSE(scans.ok());
  EXPECT_NE(scans.message().find(
                check::CodeName(check::Code::kCertificateViolated)),
            std::string::npos)
      << scans;
  report.scan_bound = 1;
  report.internal_space = cert.max_internal_bits + 1;
  const Status bits = check::CheckSortCostsAgainstCertificate(report, cert);
  ASSERT_FALSE(bits.ok());
  EXPECT_NE(bits.message().find(
                check::CodeName(check::Code::kCertificateViolated)),
            std::string::npos)
      << bits;
}

// ---------------------------------------------------------------------
// Spill-lane lifecycle (file backend)
// ---------------------------------------------------------------------

std::size_t FilesIn(const std::filesystem::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(ParallelSortTest, SpillLanesUnlinkedOnSuccessAndFailure) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("rstlab-sort-lanes-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  Rng rng(13);
  std::vector<std::string> input = RandomMultiset(120, rng);
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 256;
  options.dir = dir.string();
  {
    stmodel::StContext ctx(1, options);
    ASSERT_EQ(ctx.backend(), extmem::BackendKind::kFile);
    ctx.LoadInput(JoinFields(input));
    const std::size_t baseline = FilesIn(dir);  // the context's own tape

    SortConfig config;
    config.fanout = 4;
    config.threads = 2;
    config.run_length = 8;
    ASSERT_TRUE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
    // Success path: every spill lane unlinked, only the tape remains.
    EXPECT_EQ(FilesIn(dir), baseline);

    config.inject_failure_before_merge = true;
    EXPECT_FALSE(ParallelSortFieldsOnTape(ctx, 0, config).ok());
    // Error path: a failed sort leaves no spill files behind either.
    EXPECT_EQ(FilesIn(dir), baseline);
  }
  // And the context's own tape file dies with the context.
  EXPECT_EQ(FilesIn(dir), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// The decider entry point and the fanout rule
// ---------------------------------------------------------------------

TEST(SortForDeciderTest, SortsAtTheGivenConfig) {
  Rng rng(21);
  std::vector<std::string> input = RandomMultiset(60, rng);
  std::vector<std::string> expected = input;
  std::sort(expected.begin(), expected.end());

  SortConfig four_way;
  four_way.fanout = 4;
  four_way.threads = 4;
  four_way.run_length = 8;
  // (geometry, expected formation + merge passes): 60 runs of one field
  // take 6 binary merge passes; 8 runs of 8 take 2 four-way passes.
  const std::pair<SortConfig, std::size_t> cases[] = {
      {kPaperSortConfig, 1 + 6}, {four_way, 1 + 2}};
  for (const auto& [config, passes] : cases) {
    SCOPED_TRACE("fanout " + std::to_string(config.fanout));
    stmodel::StContext ctx(kDeciderTapes);
    ctx.LoadInput(JoinFields(input));
    ASSERT_TRUE(SortInputToTape(ctx, config).ok());
    EXPECT_EQ(TapeFields(ctx, 1), expected);

    stmodel::StContext direct(kDeciderTapes);
    direct.LoadInput(JoinFields(input));
    SortStats stats;
    ASSERT_TRUE(SortForDecider(direct, 0, 3, 4, &stats, config).ok());
    EXPECT_EQ(TapeFields(direct, 0), expected);
    EXPECT_EQ(stats.num_fields, input.size());
    EXPECT_EQ(stats.passes, passes);
  }
}

/// Sets an environment variable for one scope, then restores the value
/// the process had (a CI job's, say) or unsets it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    saved_ ? ::setenv(name_, saved_->c_str(), 1) : ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

auto Fields(const RunOptions& r) {
  return std::make_tuple(
      std::string(extmem::BackendName(r.storage.backend)),
      r.storage.cache_blocks, r.storage.readahead_blocks,
      r.storage.block_size, r.sort.threads, r.sort.fanout,
      r.sort.run_length, std::string(simd::SimdLevelName(r.simd)));
}

// The one parser of the common flags: each flag's value, flag over
// environment, the clamps and warnings, and argv stripping. Expected
// values are the environment defaults with the case's change applied,
// so the test holds under the CI jobs' RSTLAB_* settings too.
TEST(RunOptionsTest, ParseRunOptions) {
  using R = RunOptions;
  using Env = std::pair<const char*, const char*>;
  struct Case {
    std::vector<const char*> flags;
    Env env;  // set for the case when `env.first` is not null
    void (*expect)(R&);
    const char* warning = nullptr;  // expected on stderr
  };
  const auto keep = [](R&) {};
  const auto kFile = extmem::BackendKind::kFile;
  const Case cases[] = {
      {{"--tape-backend=file"}, {}, [](R& r) { r.storage.backend = kFile; }},
      {{"--tape-backend=disk"}, {}, keep,
       "ignoring --tape-backend=disk (want mem or file)"},
      {{"--tape-backend=mem"}, {"RSTLAB_TAPE_BACKEND", "file"},
       [](R& r) { r.storage.backend = extmem::BackendKind::kMem; }},
      {{"--cache-blocks=7"}, {"RSTLAB_CACHE_BLOCKS", "5"},
       [](R& r) { r.storage.cache_blocks = 7; }},
      {{"--cache-blocks=0"}, {}, keep, "ignoring --cache-blocks=0"},
      {{"--readahead-blocks=9"}, {},
       [](R& r) { r.storage.readahead_blocks = 9; }},
      {{"--readahead-blocks=x"}, {}, keep, "ignoring --readahead-blocks=x"},
      {{"--sort-threads=3"}, {"RSTLAB_SORT_THREADS", "5"},
       [](R& r) { r.sort.threads = 3; }},
      {{"--sort-threads=0"}, {}, [](R& r) { r.sort.threads = 1; }},
      {{"--merge-fanout=3"}, {"RSTLAB_MERGE_FANOUT", "4"},
       [](R& r) { r.sort.fanout = 3; }},
      {{"--merge-fanout=1"}, {}, keep,
       "ignoring --merge-fanout=1 (want a merge fanout >= 2)"},
      {{"--merge-fanout=0"}, {}, keep,
       "ignoring --merge-fanout=0 (want a merge fanout >= 2)"},
      {{"--run-length=4"}, {}, [](R& r) { r.sort.run_length = 4; }},
      {{"--run-length=0"}, {"RSTLAB_RUN_LENGTH", "16"},
       [](R& r) { r.sort.run_length = 1; }},
      {{"--simd=8"}, {"RSTLAB_SIMD", "off"},
       [](R& r) { r.simd = simd::SimdLevel::kLanes8; }},
      {{"--simd=8", "--simd=off"}, {},
       [](R& r) { r.simd = simd::SimdLevel::kScalar; }},
      {{}, {"RSTLAB_MERGE_FANOUT", "4"}, [](R& r) { r.sort.fanout = 4; }},
  };
  for (const Case& c : cases) {
    std::vector<char*> argv = {const_cast<char*>("prog"),
                               const_cast<char*>("keep")};
    std::string label;
    for (const char* flag : c.flags) {
      argv.push_back(const_cast<char*>(flag));
      label += std::string(flag) + " ";
    }
    argv.push_back(const_cast<char*>("--benchmark_filter=x"));
    argv.push_back(nullptr);
    if (c.env.first != nullptr) {
      label += std::string(c.env.first) + "=" + c.env.second;
    }
    SCOPED_TRACE(label);
    std::optional<ScopedEnv> env;
    if (c.env.first != nullptr) env.emplace(c.env.first, c.env.second);
    R expected;
    c.expect(expected);

    int argc = static_cast<int>(argv.size()) - 1;
    ::testing::internal::CaptureStderr();
    const R parsed = ParseRunOptions(&argc, argv.data());
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(Fields(parsed), Fields(expected));
    EXPECT_EQ(warnings.find(c.warning ? c.warning : "ignoring --") !=
                  std::string::npos,
              c.warning != nullptr)
        << warnings;
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[1], "keep");
    EXPECT_STREQ(argv[2], "--benchmark_filter=x");
    EXPECT_EQ(argv[3], nullptr);
  }
}

TEST(SortConfigTest, MergeFanoutEnvBelowTwoKeepsTheDefault) {
  for (const char* value : {"0", "1"}) {
    const ScopedEnv env("RSTLAB_MERGE_FANOUT", value);
    ::testing::internal::CaptureStderr();
    const std::size_t fanout = DefaultSortConfig().fanout;
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(fanout, SortConfig{}.fanout) << value;
    EXPECT_NE(warnings.find("ignoring RSTLAB_MERGE_FANOUT=" +
                            std::string(value)),
              std::string::npos)
        << warnings;
  }
}

}  // namespace
}  // namespace rstlab::sorting
