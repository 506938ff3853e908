#include "conform/harness.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>

#include "conform/suites.h"

namespace rstlab::conform {

namespace {
bool g_fault_injection = false;
}  // namespace

void SetFaultInjection(bool enabled) { g_fault_injection = enabled; }

bool FaultInjectionEnabled() { return g_fault_injection; }

const std::vector<const Suite*>& AllSuites() {
  // Fixed report order: cheap and broad first, so `conform all` output
  // reads top-down from storage to algorithms. Both vectors are held by
  // statics for the life of the process, so the suites stay reachable
  // (no leak at exit) and are never destroyed under a late caller.
  static const auto* owned = [] {
    auto* suites = new std::vector<std::unique_ptr<Suite>>();
    suites->push_back(MakeTapeBackendSuite());
    suites->push_back(MakeTapeFieldsSuite());
    suites->push_back(MakeTrialTallySuite());
    suites->push_back(MakeTmNlmSuite());
    suites->push_back(MakeCertificateSuite());
    suites->push_back(MakeSymbolicCheckSuite());
    suites->push_back(MakeDeciderSuite());
    suites->push_back(MakeSortSuite());
    suites->push_back(MakeXmlRoundTripSuite());
    suites->push_back(MakeFingerprintBatchSuite());
    suites->push_back(MakeServeShardSuite());
    suites->push_back(MakeQueryEngineSuite());
    return suites;
  }();
  static const auto* views = [] {
    auto* pointers = new std::vector<const Suite*>();
    for (const auto& suite : *owned) pointers->push_back(suite.get());
    return pointers;
  }();
  return *views;
}

const Suite* FindSuite(const std::string& name) {
  for (const Suite* suite : AllSuites()) {
    if (name == suite->name()) return suite;
  }
  return nullptr;
}

std::string SuiteReport::ToString() const {
  std::ostringstream out;
  out << suite << ": " << (passed() ? "ok" : "FAIL") << "  (" << cases
      << " cases, seed " << seed << ", " << failures.size()
      << " failure(s))\n";
  for (const CaseFailure& f : failures) {
    out << "  [" << f.id.ToString() << "] " << f.failure << "\n"
        << "    counterexample: " << f.counterexample << "\n"
        << "    (shrunk in " << f.shrink_attempts << " attempts;"
        << " replay with --replay=" << f.id.ToString() << ")\n";
  }
  return out.str();
}

SuiteReport RunSuite(const Suite& suite, std::uint64_t seed,
                     std::uint64_t cases) {
  SuiteReport report;
  report.suite = suite.name();
  report.seed = seed;
  report.cases = cases;
  for (std::uint64_t index = 0; index < cases; ++index) {
    CaseOutcome outcome = suite.RunCase(seed, index);
    if (outcome.passed) continue;
    CaseFailure failure;
    failure.id = CaseId{suite.name(), seed, index};
    failure.failure = std::move(outcome.failure);
    failure.counterexample = std::move(outcome.counterexample);
    failure.shrink_attempts = outcome.shrink_attempts;
    report.failures.push_back(std::move(failure));
  }
  return report;
}

Result<CaseOutcome> ReplayCase(const CaseId& id) {
  const Suite* suite = FindSuite(id.suite);
  if (suite == nullptr) {
    return Status::NotFound("unknown conformance suite \"" + id.suite +
                            "\"");
  }
  return suite->RunCase(id.seed, id.index);
}

Result<std::vector<CaseId>> LoadCorpusFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open corpus file " + path);
  }
  std::vector<CaseId> cases;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    // Trim trailing CR (checked-in files may have CRLF endings).
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    Result<CaseId> id = CaseId::Parse(line);
    if (!id.ok()) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": " +
          id.status().message());
    }
    cases.push_back(std::move(id).value());
  }
  return cases;
}

Result<std::vector<CaseId>> LoadCorpusDir(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return std::vector<CaseId>{};
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".case") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::Internal("cannot list corpus directory " + dir + ": " +
                            ec.message());
  }
  std::sort(files.begin(), files.end());
  std::vector<CaseId> cases;
  for (const std::string& file : files) {
    Result<std::vector<CaseId>> loaded = LoadCorpusFile(file);
    if (!loaded.ok()) return loaded.status();
    std::vector<CaseId> ids = std::move(loaded).value();
    cases.insert(cases.end(), std::make_move_iterator(ids.begin()),
                 std::make_move_iterator(ids.end()));
  }
  return cases;
}

std::size_t EnvTestCases(std::size_t fallback) {
  const char* env = std::getenv("RSTLAB_TEST_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || value == 0) return fallback;
  return static_cast<std::size_t>(value);
}

}  // namespace rstlab::conform
