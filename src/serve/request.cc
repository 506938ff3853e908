#include "serve/request.h"

#include <algorithm>

#include "check/analyzer.h"
#include "check/registry.h"
#include "serve/json.h"

namespace rstlab::serve {

namespace {

const std::vector<std::string>& GeneratorKinds() {
  static const std::vector<std::string> kinds = {
      "equal", "perturbed", "sorted", "misordered", "disjoint"};
  return kinds;
}

bool Contains(const std::vector<std::string>& values,
              const std::string& value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

/// Reads an optional unsigned field; named error on wrong type.
Status ReadUint(const JsonValue& object, const char* key,
                std::uint64_t* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Status::OK();
  if (!field->is_uint()) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be a non-negative integer");
  }
  *out = field->uint_value();
  return Status::OK();
}

Status ReadString(const JsonValue& object, const char* key,
                  std::string* out) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr) return Status::OK();
  if (!field->is_string()) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" must be a string");
  }
  *out = field->string_value();
  return Status::OK();
}

/// The certified machine backing a problem, or "" when the registry has
/// none for it.
const char* CertifiedMachineFor(const std::string& problem) {
  if (problem == "fingerprint") return "theorem8a-fingerprint";
  return "";
}

}  // namespace

std::string ResourceBudget::ToJson() const {
  return JsonWriter()
      .Field("r", max_scans)
      .Field("s", max_internal)
      .Field("t", max_tapes)
      .Build();
}

std::string GeneratorSpec::CacheKey() const {
  return kind + ":" + std::to_string(m) + ":" + std::to_string(n) + ":" +
         std::to_string(seed);
}

const std::vector<std::string>& KnownProblems() {
  static const std::vector<std::string> problems = {
      "set-equality", "multiset-equality", "check-sort", "disjoint",
      "fingerprint",  "claim1",            "xpath-count", "test-sleep"};
  return problems;
}

Result<ExperimentRequest> ParseExperimentRequest(
    const std::string& json_body, std::uint64_t max_trials,
    std::uint64_t max_generator_cells) {
  if (max_generator_cells == 0) max_generator_cells = 1;
  Result<JsonValue> parsed = JsonValue::Parse(json_body);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }

  ExperimentRequest request;
  RSTLAB_RETURN_IF_ERROR(ReadString(root, "request_id",
                                    &request.request_id));
  RSTLAB_RETURN_IF_ERROR(ReadString(root, "tenant", &request.tenant));
  RSTLAB_RETURN_IF_ERROR(ReadString(root, "problem", &request.problem));
  if (request.problem.empty()) {
    return Status::InvalidArgument("missing required field \"problem\"");
  }
  if (!Contains(KnownProblems(), request.problem)) {
    return Status::NotFound("unknown problem \"" + request.problem + "\"");
  }
  if (request.request_id.empty()) {
    return Status::InvalidArgument(
        "missing required field \"request_id\"");
  }
  if (request.tenant.empty()) {
    return Status::InvalidArgument("field \"tenant\" must be non-empty");
  }

  const JsonValue* instance = root.Find("instance");
  const JsonValue* generator = root.Find("generator");
  const bool needs_instance =
      request.problem != "xpath-count" && request.problem != "test-sleep";
  if (needs_instance) {
    if ((instance == nullptr) == (generator == nullptr)) {
      return Status::InvalidArgument(
          "exactly one of \"instance\" and \"generator\" is required for "
          "problem \"" +
          request.problem + "\"");
    }
  } else if (instance != nullptr || generator != nullptr) {
    return Status::InvalidArgument(
        "problem \"" + request.problem +
        "\" takes neither \"instance\" nor \"generator\"");
  }
  if (instance != nullptr) {
    if (!instance->is_string()) {
      return Status::InvalidArgument("field \"instance\" must be a string");
    }
    request.instance = instance->string_value();
  }
  if (generator != nullptr) {
    if (!generator->is_object()) {
      return Status::InvalidArgument(
          "field \"generator\" must be an object");
    }
    GeneratorSpec spec;
    RSTLAB_RETURN_IF_ERROR(ReadString(*generator, "kind", &spec.kind));
    if (!Contains(GeneratorKinds(), spec.kind)) {
      return Status::InvalidArgument("unknown generator kind \"" +
                                     spec.kind + "\"");
    }
    RSTLAB_RETURN_IF_ERROR(ReadUint(*generator, "m", &spec.m));
    RSTLAB_RETURN_IF_ERROR(ReadUint(*generator, "n", &spec.n));
    RSTLAB_RETURN_IF_ERROR(ReadUint(*generator, "seed", &spec.seed));
    if (spec.m == 0 || spec.n == 0) {
      return Status::InvalidArgument(
          "generator needs positive \"m\" and \"n\"");
    }
    // Admission ceiling (analogous to max_trials): the generated
    // instance occupies ~2*m*(n+1) encoded cells and is materialized
    // when the experiment runs, so an unchecked size lets one request
    // OOM the daemon. Ordered so 2*m*(n+1) is never computed directly
    // — the division form cannot overflow.
    if (spec.n >= max_generator_cells ||
        spec.m > max_generator_cells / (spec.n + 1) / 2) {
      return Status::InvalidArgument(
          "generator m=" + std::to_string(spec.m) +
          " n=" + std::to_string(spec.n) +
          " needs more than the per-request limit of " +
          std::to_string(max_generator_cells) + " instance cells");
    }
    request.generator = std::move(spec);
  }

  if (request.problem == "xpath-count") {
    RSTLAB_RETURN_IF_ERROR(ReadString(root, "query",
                                      &request.xpath_query));
    RSTLAB_RETURN_IF_ERROR(ReadString(root, "xml", &request.xml_text));
    if (request.xpath_query.empty() || request.xml_text.empty()) {
      return Status::InvalidArgument(
          "xpath-count needs \"query\" and \"xml\"");
    }
  }

  RSTLAB_RETURN_IF_ERROR(ReadUint(root, "trials", &request.trials));
  RSTLAB_RETURN_IF_ERROR(ReadUint(root, "seed", &request.seed));
  RSTLAB_RETURN_IF_ERROR(ReadUint(root, "sleep_ms", &request.sleep_ms));
  if (request.trials == 0) {
    return Status::InvalidArgument("\"trials\" must be >= 1");
  }
  if (request.trials > max_trials) {
    return Status::InvalidArgument(
        "\"trials\" " + std::to_string(request.trials) +
        " exceeds the per-request limit of " + std::to_string(max_trials));
  }
  if (request.sleep_ms > 10000) {
    return Status::InvalidArgument("\"sleep_ms\" capped at 10000");
  }

  const JsonValue* stream = root.Find("stream");
  if (stream != nullptr) {
    if (!stream->is_bool()) {
      return Status::InvalidArgument("field \"stream\" must be a boolean");
    }
    request.stream = stream->bool_value();
  }

  const JsonValue* budget = root.Find("budget");
  if (budget != nullptr) {
    if (!budget->is_object()) {
      return Status::InvalidArgument("field \"budget\" must be an object");
    }
    ResourceBudget b;
    RSTLAB_RETURN_IF_ERROR(ReadUint(*budget, "r", &b.max_scans));
    RSTLAB_RETURN_IF_ERROR(ReadUint(*budget, "s", &b.max_internal));
    RSTLAB_RETURN_IF_ERROR(ReadUint(*budget, "t", &b.max_tapes));
    if (b.max_scans == 0 || b.max_tapes == 0) {
      return Status::InvalidArgument(
          "budget needs positive \"r\" and \"t\"");
    }
    request.budget = b;
  }

  return request;
}

std::size_t RequestInputSize(const ExperimentRequest& request) {
  if (request.instance.has_value()) return request.instance->size();
  if (request.generator.has_value()) {
    // The generated instance occupies ~2*m*(n+1) encoded cells (both
    // admission ceilings were enforced at parse time, so the product
    // cannot overflow here).
    return static_cast<std::size_t>(2 * request.generator->m *
                                    (request.generator->n + 1));
  }
  return request.xml_text.size();
}

Status ValidateBudgetAgainstRegistry(const ExperimentRequest& request,
                                     ArtifactCache& cache) {
  if (!request.budget.has_value()) return Status::OK();
  const std::string machine = CertifiedMachineFor(request.problem);
  if (machine.empty()) return Status::OK();

  // The symbolic certificate is a pure function of the machine alone,
  // but it is evaluated at the request's own input size below — so the
  // cache key carries N too, and two request sizes can never alias one
  // cached admission decision.
  const std::size_t n = std::max<std::size_t>(1, RequestInputSize(request));
  const std::string cache_content = machine + "@N=" + std::to_string(n);
  const std::shared_ptr<const check::Analysis> analysis =
      cache.GetOrCreate<check::Analysis>(
          "certificate", cache_content,
          [&machine, n]() -> std::shared_ptr<const check::Analysis> {
            for (const check::CheckedMachine& entry :
                 check::AllCheckedMachines()) {
              if (entry.name == machine) {
                check::AnalyzeOptions options = entry.options;
                options.check_n = n;
                return std::make_shared<check::Analysis>(
                    check::Analyze(entry.spec, options));
              }
            }
            return nullptr;
          });
  if (analysis == nullptr) {
    return Status::Internal("certified machine \"" + machine +
                            "\" missing from registry");
  }

  const check::BoundExpr& scans = analysis->resources.scan_bound;
  const std::uint64_t required = scans.Eval(n);
  if (!scans.unbounded() && request.budget->max_scans < required) {
    return Status::InvalidArgument(
        "budget r=" + std::to_string(request.budget->max_scans) +
        " is below the certified scan bound " + std::to_string(required) +
        " (" + scans.ToString() + " at N = " + std::to_string(n) +
        ") of machine \"" + machine + "\"");
  }
  return Status::OK();
}

}  // namespace rstlab::serve
