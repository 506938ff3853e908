#include "query/streaming_xml.h"

#include <optional>
#include <string>

#include "query/xml_events.h"
#include "sorting/parallel_sort.h"
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

Status ExtractSetValues(stmodel::StContext& ctx, std::size_t out_first,
                        std::size_t out_second, std::size_t* count_first,
                        std::size_t* count_second) {
  if (ctx.num_tapes() <= std::max(out_first, out_second)) {
    return Status::InvalidArgument("output tape index out of range");
  }
  tape::Tape& in = ctx.tape(0);
  stmodel::Rewind(in);

  // Streaming tokenizer state: which set we are under (0 = none), and
  // whether we are inside a <string> element. The event reader owns the
  // metered tag/text buffer; each input cell is read exactly once.
  stmodel::InternalArena& arena = ctx.arena();
  XmlEventReader reader(in, arena);
  int current_set = 0;
  bool in_string = false;
  std::size_t counts[2] = {0, 0};

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
        }
        // Other tags (instance, item) carry no state.
        break;
      case XmlEventKind::kEndTag:
        if (event.content == "set1" || event.content == "set2") {
          current_set = 0;
        } else if (event.content == "string") {
          if (!in_string) {
            return Status::InvalidArgument("stray </string>");
          }
          tape::Tape& out =
              ctx.tape(current_set == 1 ? out_first : out_second);
          out.Write(stmodel::kFieldSeparator);
          out.MoveRight();
          ++counts[current_set - 1];
          in_string = false;
        }
        break;
      case XmlEventKind::kText:
        if (in_string) {
          tape::Tape& out =
              ctx.tape(current_set == 1 ? out_first : out_second);
          for (const char c : event.content) {
            out.Write(c);
            out.MoveRight();
          }
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
  ctx.tape(out_first).Write(tape::kBlank);
  ctx.tape(out_second).Write(tape::kBlank);
  if (count_first != nullptr) *count_first = counts[0];
  if (count_second != nullptr) *count_second = counts[1];
  return Status::OK();
}

Result<bool> FilterPaperXPathOnTapes(stmodel::StContext& ctx) {
  if (ctx.num_tapes() < kStreamingXmlTapes) {
    return Status::InvalidArgument("filter needs 5 external tapes");
  }
  std::size_t count_x = 0;
  std::size_t count_y = 0;
  RSTLAB_RETURN_IF_ERROR(ExtractSetValues(ctx, 1, 2, &count_x, &count_y));
  const sorting::SortConfig sort = sorting::DefaultSortConfig();
  RSTLAB_RETURN_IF_ERROR(sorting::ParallelSortFieldsOnTape(ctx, 1, sort));
  RSTLAB_RETURN_IF_ERROR(sorting::ParallelSortFieldsOnTape(ctx, 2, sort));

  // The query selects a node iff some X value is absent from Y.
  ctx.tape(1).Seek(0);
  ctx.tape(2).Seek(0);
  stmodel::SortedFieldCursor x(ctx.tape(1), count_x, ctx.arena());
  stmodel::SortedFieldCursor y(ctx.tape(2), count_y, ctx.arena());
  while (!x.exhausted()) {
    while (!y.exhausted() && *y.value() < *x.value()) y.Advance();
    if (y.exhausted() || *y.value() != *x.value()) {
      return true;  // this x is in X - Y
    }
    x.AdvanceDistinct();
  }
  return false;
}

Result<bool> EvaluatePaperXQueryOnTapes(stmodel::StContext& ctx) {
  if (ctx.num_tapes() < kStreamingXmlTapes) {
    return Status::InvalidArgument("query needs 5 external tapes");
  }
  std::size_t count_x = 0;
  std::size_t count_y = 0;
  RSTLAB_RETURN_IF_ERROR(ExtractSetValues(ctx, 1, 2, &count_x, &count_y));
  const sorting::SortConfig sort = sorting::DefaultSortConfig();
  RSTLAB_RETURN_IF_ERROR(sorting::ParallelSortFieldsOnTape(ctx, 1, sort));
  RSTLAB_RETURN_IF_ERROR(sorting::ParallelSortFieldsOnTape(ctx, 2, sort));

  // Set equality of the sorted sequences, duplicates collapsed.
  ctx.tape(1).Seek(0);
  ctx.tape(2).Seek(0);
  stmodel::SortedFieldCursor a(ctx.tape(1), count_x, ctx.arena());
  stmodel::SortedFieldCursor b(ctx.tape(2), count_y, ctx.arena());
  while (!a.exhausted() && !b.exhausted()) {
    if (*a.value() != *b.value()) return false;
    a.AdvanceDistinct();
    b.AdvanceDistinct();
  }
  return a.exhausted() == b.exhausted();
}

}  // namespace rstlab::query
