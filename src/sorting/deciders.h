#ifndef RSTLAB_SORTING_DECIDERS_H_
#define RSTLAB_SORTING_DECIDERS_H_

#include "problems/instance.h"
#include "sorting/sort_config.h"
#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::sorting {

/// Deterministic sort-and-scan deciders for the three problems — the
/// upper-bound half of Corollary 7: membership in
/// ST(O(log N), O(buffer), O(1)).
///
/// Tape layout: the encoded instance must be loaded on tape 0 of a
/// context with at least 5 tapes; tapes 1 and 2 receive the two halves,
/// tapes 3 and 4 are reserved for sort working storage (the k-way sort
/// spills to its own lanes, billed as the canonical 2k-tape machine).
///
/// The measured resource profile on a run of input size N with field
/// length n is r(N) = Theta(log N) scans and s(N) = O(n + log N) internal
/// bits at any constant sort geometry. The sort buffers whole n-bit
/// records where the paper's O(1)-space bound cites the Chen-Yap
/// construction [7, Lemma 7], whose head-recycling comparison is
/// considerably more intricate; this is the "standard merge sort" the
/// paper itself invokes for the SHORT problem variants, where
/// n = O(log N), so the profile is the paper's
/// ST(O(log N), O(log N), O(1)). The quantity the lower-bound
/// experiments test — Theta(log N) scans — is the same for both.

/// Number of external tapes the deciders require.
inline constexpr std::size_t kDeciderTapes = 5;

/// Decides `problem` on the instance loaded on tape 0 of `ctx`, sorting
/// at geometry `sort`.
Result<bool> DecideOnTapes(problems::Problem problem,
                           stmodel::StContext& ctx,
                           const SortConfig& sort = DefaultSortConfig());

/// The sorting *function* problem (Corollary 10): sorts the input fields
/// of tape 0 at geometry `sort` and leaves the result on tape 1
/// (ascending lexicographic). Tape requirements as above.
Status SortInputToTape(stmodel::StContext& ctx,
                       const SortConfig& sort = DefaultSortConfig());

/// Deterministic decider for the DISJOINT-SETS problem of the paper's
/// Section 9 (see problems/disjoint_sets.h): sorts both halves and
/// looks for a common value in one merge scan. Same tape layout and
/// resource profile as the Corollary 7 deciders —
/// ST(O(log N), O(n + log N), 5). No matching randomized 2-scan
/// algorithm is known; the paper leaves both a lower and a better upper
/// bound open.
Result<bool> DecideDisjointOnTapes(
    stmodel::StContext& ctx, const SortConfig& sort = DefaultSortConfig());

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_DECIDERS_H_
