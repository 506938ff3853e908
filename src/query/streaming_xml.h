#ifndef RSTLAB_QUERY_STREAMING_XML_H_
#define RSTLAB_QUERY_STREAMING_XML_H_

#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::query {

/// The encoding direction of Section 4: "the XML document can be
/// produced by using a constant number of sequential scans, constant
/// internal memory space, and two external memory tapes". Reads the
/// encoded instance from tape 0 of `ctx` and writes the serialized
/// document <instance><set1>...</set1><set2>...</set2></instance> onto
/// tape 1 in two scans (one to find the halfway point, one to emit),
/// with O(log N) internal bits (one field counter — the paper's
/// "constant" treats counters as free; ours are metered).
///
/// The matching evaluation direction — the Theorem 12 XQuery and
/// Theorem 13 XPath queries in Theta(log N) scans — is the query engine
/// over `engine::RelationSpool::BuildFromXml`'s set1/set2 lanes.
Status EncodeInstanceAsXmlOnTapes(stmodel::StContext& ctx);

}  // namespace rstlab::query

#endif  // RSTLAB_QUERY_STREAMING_XML_H_
