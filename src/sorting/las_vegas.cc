#include "sorting/las_vegas.h"

#include <algorithm>
#include <memory>

#include "fingerprint/fingerprint.h"
#include "problems/instance.h"
#include "sorting/deciders.h"
#include "sorting/parallel_sort.h"
#include "stmodel/tape_io.h"

namespace rstlab::sorting {

LasVegasOutcome CertifiedSort(const std::vector<std::string>& fields,
                              const SortSubroutine& subroutine,
                              Rng& rng) {
  LasVegasOutcome outcome;
  std::vector<std::string> claimed = subroutine(fields);

  // Deterministic part of the certificate: the claim is sorted and has
  // the right cardinality.
  if (claimed.size() != fields.size() ||
      !std::is_sorted(claimed.begin(), claimed.end())) {
    return outcome;  // "I don't know"
  }

  // Randomized part: multiset equality of input and claim via the
  // Theorem 8(a) fingerprint. Equal multisets always pass; a corrupted
  // claim slips through with probability <= 1/2.
  problems::Instance instance;
  for (const std::string& f : fields) {
    instance.first.push_back(BitString::FromString(f));
  }
  for (const std::string& f : claimed) {
    instance.second.push_back(BitString::FromString(f));
  }
  if (!fingerprint::TestMultisetEquality(instance, rng).accepted) {
    return outcome;  // caught: "I don't know"
  }
  outcome.sorted = std::move(claimed);
  return outcome;
}

Result<bool> CheckSortViaSorting(stmodel::StContext& ctx,
                                 const SortConfig& sort) {
  if (ctx.num_tapes() < kDeciderTapes) {
    return Status::InvalidArgument("reduction needs 5 external tapes");
  }
  // Split the halves; sort the first; one parallel comparison scan —
  // the Corollary 10 reduction CHECK-SORT <= sorting.
  tape::Tape& in = ctx.tape(0);
  stmodel::Rewind(in);
  const std::size_t total = stmodel::CountFields(in);
  if (total % 2 != 0) {
    return Status::InvalidArgument("instance must have 2m fields");
  }
  const std::size_t m = total / 2;
  if (m == 0) return true;
  stmodel::Rewind(in);
  for (std::size_t i = 0; i < m; ++i) {
    stmodel::CopyField(in, ctx.tape(1));
  }
  for (std::size_t i = 0; i < m; ++i) {
    stmodel::CopyField(in, ctx.tape(2));
  }
  RSTLAB_RETURN_IF_ERROR(ParallelSortFieldsOnTape(ctx, 1, sort));
  ctx.tape(1).Seek(0);
  ctx.tape(2).Seek(0);
  for (std::size_t i = 0; i < m; ++i) {
    if (stmodel::CompareFields(ctx.tape(1), ctx.tape(2)) != 0) {
      return false;
    }
  }
  return true;
}

SortSubroutine FaultySorter(double fault_rate, std::uint64_t seed) {
  // The subroutine owns its RNG so repeated calls draw fresh faults.
  auto rng = std::make_shared<Rng>(seed);
  return [fault_rate, rng](const std::vector<std::string>& fields) {
    std::vector<std::string> out = fields;
    std::sort(out.begin(), out.end());
    if (out.size() >= 2 && rng->Bernoulli(fault_rate)) {
      // Corrupt a value (not just the order, so the sortedness check
      // alone cannot catch it).
      std::string& victim =
          out[static_cast<std::size_t>(rng->UniformBelow(out.size()))];
      if (!victim.empty()) {
        const std::size_t pos =
            static_cast<std::size_t>(rng->UniformBelow(victim.size()));
        victim[pos] = victim[pos] == '0' ? '1' : '0';
        std::sort(out.begin(), out.end());  // keep the claim sorted
      }
    }
    return out;
  };
}

}  // namespace rstlab::sorting
