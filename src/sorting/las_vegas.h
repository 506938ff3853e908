#ifndef RSTLAB_SORTING_LAS_VEGAS_H_
#define RSTLAB_SORTING_LAS_VEGAS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/random.h"
#include "util/status.h"

namespace rstlab::sorting {

/// LasVegas-RST semantics (Definition 4(b)): a machine computing a
/// function either outputs the correct value or answers "I don't know",
/// the latter with probability at most 1/2.

/// The outcome of one Las Vegas sorting run.
struct LasVegasOutcome {
  /// Sorted fields when the run committed to an answer; nullopt = the
  /// machine said "I don't know".
  std::optional<std::vector<std::string>> sorted;
};

/// A (possibly faulty) sorting subroutine: maps fields to a claimed
/// sorted arrangement. Used to exercise the verification layer.
using SortSubroutine = std::function<std::vector<std::string>(
    const std::vector<std::string>& fields)>;

/// A certified Las Vegas sorter: runs `subroutine`, then *verifies* the
/// claimed output with the randomized checksort test — output sorted
/// (deterministic adjacent scan) and multiset-equal to the input
/// (Theorem 8(a) fingerprint, no false negatives). A correct subroutine
/// therefore always yields an answer; a faulty one is caught with
/// probability >= 1/2 per the fingerprint guarantee (measured much
/// higher), in which case the sorter answers "I don't know" instead of
/// returning garbage — exactly the LasVegas-RST contract.
///
/// This is the algorithmic content of Corollary 10 read forward: sorting
/// >= checksort, so a sorting box plus the cheap randomized checker
/// yields a certified sorter; read backward (as the paper does), the
/// checksort lower bound transfers to sorting.
LasVegasOutcome CertifiedSort(const std::vector<std::string>& fields,
                              const SortSubroutine& subroutine, Rng& rng);

/// The Corollary 10 reduction on tapes: solves CHECK-SORT for the
/// instance on tape 0 of `ctx` given any tape-level sorter, by sorting
/// the first half (SortInputToTape machinery) and comparing with the
/// second in one parallel scan. Equivalent to
/// DecideOnTapes(kCheckSort, ...) but stated as a reduction so the
/// lower-bound direction is visible in code. Sorts at geometry `sort`.
Result<bool> CheckSortViaSorting(
    stmodel::StContext& ctx, const SortConfig& sort = DefaultSortConfig());

/// A deliberately faulty subroutine for tests/experiments: sorts
/// correctly, then corrupts the output with probability `fault_rate`
/// (swapping two elements or mutating a value).
SortSubroutine FaultySorter(double fault_rate, std::uint64_t seed);

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_LAS_VEGAS_H_
