#include "query/streaming_xml.h"

#include <algorithm>

#include "stmodel/internal_arena.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"

namespace rstlab::query {

Status EncodeInstanceAsXmlOnTapes(stmodel::StContext& ctx) {
  if (ctx.num_tapes() < 2) {
    return Status::InvalidArgument("encoder needs 2 external tapes");
  }
  tape::Tape& in = ctx.tape(0);
  tape::Tape& out = ctx.tape(1);
  stmodel::InternalArena& arena = ctx.arena();
  const std::size_t ctr_bits =
      stmodel::BitsFor(std::max<std::size_t>(1, ctx.input_size()));
  stmodel::MeteredUint64 fields(arena, ctr_bits);
  stmodel::MeteredUint64 index(arena, ctr_bits);

  // Scan 1: count the fields to locate the set1/set2 boundary.
  stmodel::Rewind(in);
  fields = 0;
  while (!stmodel::AtEnd(in)) {
    stmodel::SkipField(in);
    fields = fields.get() + 1;
  }
  if (fields.get() % 2 != 0) {
    return Status::InvalidArgument("instance must have 2m fields");
  }
  const std::uint64_t m = fields.get() / 2;

  // Scan 2: emit the document while streaming the fields.
  auto emit = [&out](const char* text) {
    for (const char* c = text; *c != '\0'; ++c) {
      out.Write(*c);
      out.MoveRight();
    }
  };
  stmodel::Rewind(in);
  emit("<instance><set1>");
  for (index = 0; index.get() < fields.get();
       index = index.get() + 1) {
    if (index.get() == m) emit("</set1><set2>");
    emit("<item><string>");
    // Copy the field one symbol at a time, reading each input cell
    // exactly once (a re-read would inflate the per-scan cost the obs
    // trace and cache statistics report).
    for (;;) {
      const char c = in.Read();
      if (c == stmodel::kFieldSeparator || c == tape::kBlank) {
        if (c == stmodel::kFieldSeparator) in.MoveRight();
        break;
      }
      out.Write(c);
      out.MoveRight();
      in.MoveRight();
    }
    emit("</string></item>");
  }
  if (m == 0) emit("</set1><set2>");
  emit("</set2></instance>");
  return Status::OK();
}

}  // namespace rstlab::query
