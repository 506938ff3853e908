#include "query/engine/spool.h"

#include <algorithm>
#include <utility>

#include "query/xml_events.h"
#include "stmodel/internal_arena.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"

namespace rstlab::query::engine {

namespace {
/// Cells read from the input tape (and written to a lane) per bulk
/// operation. A host-side buffer, not model memory: the demultiplexer
/// itself is a finite-control machine whose metered state is one field
/// buffer; chunking only batches the storage calls.
constexpr std::size_t kChunkCells = 4096;
}  // namespace

Status RelationSpool::Append(const std::string& relation,
                             const std::string& payload,
                             const extmem::StorageOptions& options,
                             std::map<std::string, std::string>& pending) {
  auto it = lanes_.find(relation);
  if (it == lanes_.end()) {
    auto lane = std::make_unique<Lane>();
    Result<std::unique_ptr<extmem::TapeStorage>> storage =
        extmem::CreateStorage(options);
    if (!storage.ok()) return storage.status();
    lane->storage = std::move(storage).value();
    it = lanes_.emplace(relation, std::move(lane)).first;
  }
  Lane& lane = *it->second;
  if (lane.fields == 0) {
    // An empty payload is the one-attribute tuple ("").
    lane.arity = 1 + static_cast<std::size_t>(
                         std::count(payload.begin(), payload.end(), ','));
  }
  std::string& buffered = pending[relation];
  buffered += payload;
  buffered += stmodel::kFieldSeparator;
  ++lane.fields;
  lane.max_field_len = std::max(lane.max_field_len, payload.size());
  if (buffered.size() >= kChunkCells) {
    lane.storage->WriteRange(lane.cells, buffered);
    lane.cells += buffered.size();
    buffered.clear();
  }
  return Status::OK();
}

void RelationSpool::Flush(std::map<std::string, std::string>& pending) {
  for (auto& [relation, buffered] : pending) {
    if (buffered.empty()) continue;
    Lane& lane = *lanes_.at(relation);
    lane.storage->WriteRange(lane.cells, buffered);
    lane.cells += buffered.size();
    buffered.clear();
  }
  max_field_len_ = 0;
  total_cells_ = 0;
  for (const auto& [relation, lane] : lanes_) {
    max_field_len_ = std::max(max_field_len_, lane->max_field_len);
    total_cells_ += lane->cells;
  }
}

Result<std::unique_ptr<RelationSpool>> RelationSpool::Build(
    stmodel::StContext& ctx) {
  auto spool = std::unique_ptr<RelationSpool>(new RelationSpool());
  tape::Tape& input = ctx.tape(0);
  stmodel::Rewind(input);

  std::map<std::string, std::string> pending;
  // The metered state: one field buffer, billed like XmlEventReader's
  // at 8 bits per character of the longest field plus one.
  stmodel::InternalArena::Allocation field_bits = ctx.arena().Allocate(8);
  std::size_t longest = 0;
  const auto meter_field = [&](const std::string& buffered) {
    if (buffered.size() <= longest) return;
    longest = buffered.size();
    field_bits.Resize(8 * (longest + 1));
  };
  std::string field;
  std::size_t remaining = ctx.input_size();
  bool saw_blank = false;
  while (remaining > 0 && !saw_blank) {
    const std::size_t take = std::min(kChunkCells, remaining);
    const std::string chunk = input.ReadForward(take);
    remaining -= take;
    for (const char c : chunk) {
      if (c == tape::kBlank) {
        saw_blank = true;
        break;
      }
      if (c != stmodel::kFieldSeparator) {
        field.push_back(c);
        continue;
      }
      meter_field(field);
      // One complete "name,v1,v2,..." field: split at the first comma.
      // "name," carries the one-attribute tuple ("").
      const std::size_t comma = field.find(',');
      if (comma != std::string::npos) {
        RSTLAB_RETURN_IF_ERROR(
            spool->Append(field.substr(0, comma), field.substr(comma + 1),
                          ctx.storage_options(), pending));
      }
      field.clear();
    }
  }
  meter_field(field);  // an unterminated last field was buffered too
  spool->Flush(pending);
  return spool;
}

Result<std::unique_ptr<RelationSpool>> RelationSpool::BuildFromXml(
    stmodel::StContext& ctx) {
  auto spool = std::unique_ptr<RelationSpool>(new RelationSpool());
  tape::Tape& input = ctx.tape(0);
  stmodel::Rewind(input);

  // The child-axis walk of the Section 4 schema, as a state machine
  // over the tokenizer's events, demultiplexing into spool lanes so
  // many queries can share the one parse. The event reader owns the
  // metered tag/text buffer.
  XmlEventReader reader(input, ctx.arena());
  std::map<std::string, std::string> pending;
  int current_set = 0;
  bool in_string = false;
  std::string value;
  for (;;) {
    Result<XmlEvent> next = reader.Next();
    if (!next.ok()) return next.status();
    const XmlEvent& event = next.value();
    if (event.kind == XmlEventKind::kEndOfInput) break;
    switch (event.kind) {
      case XmlEventKind::kStartTag:
        if (event.content == "set1") {
          current_set = 1;
        } else if (event.content == "set2") {
          current_set = 2;
        } else if (event.content == "string") {
          if (current_set == 0) {
            return Status::InvalidArgument("<string> outside set1/set2");
          }
          in_string = true;
          value.clear();
        }
        break;
      case XmlEventKind::kEndTag:
        if (event.content == "set1" || event.content == "set2") {
          current_set = 0;
        } else if (event.content == "string") {
          if (!in_string) {
            return Status::InvalidArgument("stray </string>");
          }
          RSTLAB_RETURN_IF_ERROR(
              spool->Append(current_set == 1 ? "set1" : "set2", value,
                            ctx.storage_options(), pending));
          in_string = false;
          value.clear();
        }
        break;
      case XmlEventKind::kText:
        if (in_string) {
          value += event.content;
        } else {
          for (const char c : event.content) {
            if (c != ' ') {
              return Status::InvalidArgument("text outside <string>");
            }
          }
        }
        break;
      case XmlEventKind::kEndOfInput:
        break;
    }
  }
  if (in_string || current_set != 0) {
    return Status::InvalidArgument("document ended mid-element");
  }
  spool->Flush(pending);
  return spool;
}

const RelationSpool::Lane* RelationSpool::lane(
    const std::string& relation) const {
  auto it = lanes_.find(relation);
  return it == lanes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> RelationSpool::names() const {
  std::vector<std::string> out;
  out.reserve(lanes_.size());
  for (const auto& [name, lane] : lanes_) out.push_back(name);
  return out;
}

SpoolCursor::SpoolCursor(const RelationSpool::Lane* lane,
                         std::size_t chunk_cells)
    : lane_(lane), chunk_cells_(std::max<std::size_t>(1, chunk_cells)) {}

std::optional<std::string> SpoolCursor::NextField() {
  if (lane_ == nullptr) return std::nullopt;
  std::string field;
  for (;;) {
    if (buffer_pos_ >= buffer_.size()) {
      if (offset_ >= lane_->cells) return std::nullopt;
      const std::size_t take =
          std::min(chunk_cells_, lane_->cells - offset_);
      {
        std::lock_guard<std::mutex> guard(lane_->mutex);
        buffer_ = lane_->storage->ReadRange(offset_, take);
      }
      offset_ += buffer_.size();
      buffer_pos_ = 0;
      if (buffer_.empty()) return std::nullopt;
    }
    const char c = buffer_[buffer_pos_++];
    if (c == stmodel::kFieldSeparator) return field;
    field.push_back(c);
  }
}

void SpoolCursor::Rewind() {
  offset_ = 0;
  buffer_.clear();
  buffer_pos_ = 0;
}

}  // namespace rstlab::query::engine
