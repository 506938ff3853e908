#ifndef RSTLAB_QUERY_STREAMING_XML_H_
#define RSTLAB_QUERY_STREAMING_XML_H_

#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::query {

/// Streaming (tape-level) evaluation of the paper's two XML queries on
/// documents of the Section 4 shape
/// <instance><set1>...</set1><set2>...</set2></instance>.
///
/// Theorems 12/13 are lower bounds: with o(log N) scans and small
/// internal memory, no randomized machine evaluates these queries. The
/// procedures here supply the matching upper-bound side, analogous to
/// Theorem 11(a) for relational algebra: one forward scan tokenizes the
/// document and spools the set1/set2 string values onto two external
/// tapes (O(log N) internal bits of parser state), after which the
/// sort-based machinery decides in Theta(log N) scans total.
///
/// Tape layout: serialized document on tape 0 of a context with at
/// least 5 tapes; tapes 1 and 2 receive the extracted values, 3 and 4
/// stay reserved (the process-default k-way sort spills to its own
/// lanes).

/// Number of external tapes required.
inline constexpr std::size_t kStreamingXmlTapes = 5;

/// Theorem 13's filtering problem, streaming: true iff the Figure 1
/// XPath query selects at least one node, i.e. some set1 string is
/// missing from set2 (X not a subset of Y).
Result<bool> FilterPaperXPathOnTapes(stmodel::StContext& ctx);

/// Theorem 12's query, streaming: true iff the XQuery query returns
/// <result><true/></result>, i.e. the sets are equal.
Result<bool> EvaluatePaperXQueryOnTapes(stmodel::StContext& ctx);

/// The encoding direction of Section 4: "the XML document can be
/// produced by using a constant number of sequential scans, constant
/// internal memory space, and two external memory tapes". Reads the
/// encoded instance from tape 0 of `ctx` and writes the serialized
/// document onto tape 1 in two scans (one to find the halfway point,
/// one to emit), with O(log N) internal bits (one field counter — the
/// paper's "constant" treats counters as free; ours are metered).
Status EncodeInstanceAsXmlOnTapes(stmodel::StContext& ctx);

/// The shared first pass: extracts the string values below set1 to tape
/// `out_first` and those below set2 to tape `out_second` as
/// '#'-terminated fields, in one forward scan of tape 0. Returns the
/// number of values per set via the out parameters. Fails on documents
/// not of the Section 4 shape.
Status ExtractSetValues(stmodel::StContext& ctx, std::size_t out_first,
                        std::size_t out_second, std::size_t* count_first,
                        std::size_t* count_second);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_STREAMING_XML_H_
