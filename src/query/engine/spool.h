#ifndef RSTLAB_QUERY_ENGINE_SPOOL_H_
#define RSTLAB_QUERY_ENGINE_SPOOL_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "extmem/storage.h"
#include "stmodel/st_context.h"
#include "util/status.h"

namespace rstlab::query::engine {

/// The shared-scan demultiplexer: ONE forward pass over the input tape
/// partitions the Theorem 11 tuple stream ("name,v1,v2,...#" fields)
/// into one immutable per-relation lane — a raw `extmem` storage on the
/// caller context's own backend, so gigabyte-scale inputs spill to disk
/// exactly like the sort's spill lanes. Every registered query then
/// reads the lanes through its own `SpoolCursor`s; the input tape is
/// never scanned again, which is what makes K concurrent queries cost
/// one input pass instead of K.
///
/// Lanes are write-once (sealed by Build) and only ever read afterwards;
/// concurrent cursor reads are serialized per lane with a mutex, since
/// the file backend's block cache mutates under reads. The serialization
/// order is not observable: lane content is immutable and the (r, s)
/// bills are derived from data, never from cache or interleaving state.
class RelationSpool {
 public:
  /// One relation's lane.
  struct Lane {
    std::unique_ptr<extmem::TapeStorage> storage;
    /// Cells used (payload bytes + one '#' per field).
    std::size_t cells = 0;
    /// Number of tuple fields.
    std::size_t fields = 0;
    /// Longest payload (encoded tuple) length.
    std::size_t max_field_len = 0;
    /// Attribute count of the first tuple (an empty payload is the
    /// one-attribute tuple ("")).
    std::size_t arity = 0;
    mutable std::mutex mutex;
  };

  /// Builds the spool from the tuple stream on tape 0 of `ctx` in one
  /// forward scan (billed on `ctx` — the shared pass: one scan, and one
  /// field buffer of 8 bits per character of the longest field plus
  /// one). Lanes are created on `ctx.storage_options()`.
  static Result<std::unique_ptr<RelationSpool>> Build(
      stmodel::StContext& ctx);

  /// Builds the spool from a Section 4 XML document on tape 0 of `ctx`:
  /// the child-axis walk instance/set*/item/string, driven by the
  /// streaming `XmlEventReader`, spools the string values below set1
  /// and set2 as two single-column relations named "set1" and "set2" —
  /// one forward scan, one read per input cell. Fails with
  /// InvalidArgument on documents not of the Section 4 shape: text or
  /// <string> outside set1/set2, a stray </string>, a document that
  /// ends mid-element, or a tokenizer error.
  static Result<std::unique_ptr<RelationSpool>> BuildFromXml(
      stmodel::StContext& ctx);

  /// The lane of `relation`, or nullptr when the input stream had no
  /// such tuples (an empty relation, not an error).
  const Lane* lane(const std::string& relation) const;

  /// Relation names present, sorted.
  std::vector<std::string> names() const;

  /// Longest payload across all lanes.
  std::size_t max_field_len() const { return max_field_len_; }

  /// Total cells across all lanes.
  std::size_t total_cells() const { return total_cells_; }

 private:
  RelationSpool() = default;

  /// Appends one payload to `relation`'s lane (creating it on
  /// `options`), buffering writes in `pending`.
  Status Append(const std::string& relation, const std::string& payload,
                const extmem::StorageOptions& options,
                std::map<std::string, std::string>& pending);
  void Flush(std::map<std::string, std::string>& pending);

  std::map<std::string, std::unique_ptr<Lane>> lanes_;
  std::size_t max_field_len_ = 0;
  std::size_t total_cells_ = 0;
};

/// Forward reader over one spool lane: yields the '#'-terminated
/// payloads in lane order, reading the storage in chunks under the
/// lane's mutex. Each full pass over the lane is one sequential scan;
/// the Scan operator charges it to the query's CostMeter.
class SpoolCursor {
 public:
  /// A cursor at the lane's start. `lane` may be nullptr (an empty
  /// relation): the cursor is immediately exhausted.
  explicit SpoolCursor(const RelationSpool::Lane* lane,
                       std::size_t chunk_cells = 4096);

  /// The next payload, or nullopt when the lane is exhausted.
  std::optional<std::string> NextField();

  /// Back to the lane start (a fresh pass).
  void Rewind();

 private:
  const RelationSpool::Lane* lane_;
  std::size_t chunk_cells_;
  std::size_t offset_ = 0;     // next unread cell of the lane
  std::string buffer_;         // read-ahead chunk
  std::size_t buffer_pos_ = 0;
};

}  // namespace rstlab::query::engine

#endif  // RSTLAB_QUERY_ENGINE_SPOOL_H_
