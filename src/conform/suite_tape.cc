// The tape oracles: a reference model of Definition 1 head semantics
// checked against `tape::Tape` on the in-memory and the file storage
// backend, op by op. The model is deliberately tiny (a string, a head, a
// direction and a counter) so that when the real tape and the model
// disagree, the model is the one a reader can verify by eye against
// the paper. `tape-backend` replays single-cell moves, writes and
// seeks; `tape-fields` replays the stmodel field walks, whose bulk
// implementation must bill exactly what the per-cell loops on the model
// bill.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "conform/case_id.h"
#include "conform/gen.h"
#include "conform/shrink.h"
#include "conform/suites.h"
#include "extmem/storage.h"
#include "stmodel/tape_io.h"
#include "tape/tape.h"
#include "util/random.h"

namespace rstlab::conform {

namespace {

/// Reference semantics: one-sided tape, head starts at cell 0 moving
/// right, a reversal is a direction change of the *actual* trajectory —
/// a left move blocked at cell 0 is a no-op and charges nothing.
struct ModelTape {
  std::string cells;
  std::size_t head = 0;
  int direction = +1;
  std::uint64_t reversals = 0;
  std::size_t used = 0;

  explicit ModelTape(std::string content)
      : cells(std::move(content)), used(cells.size()) {}

  char Read() const {
    return head < cells.size() ? cells[head] : tape::kBlank;
  }
  void Write(char symbol) {
    if (head >= cells.size()) cells.resize(head + 1, tape::kBlank);
    cells[head] = symbol;
    used = std::max(used, head + 1);
  }
  void Turn(int d) {
    if (d != direction) {
      ++reversals;
      direction = d;
    }
  }
  void MoveRight() {
    Turn(+1);
    ++head;
    used = std::max(used, head + 1);
  }
  void MoveLeft() {
    if (head == 0) {
      // Blocked moves are free (PR 2 fix). Under self-test fault
      // injection the model charges the pre-fix phantom reversal, so
      // the oracle must rediscover that very bug and shrink it.
      if (FaultInjectionEnabled()) Turn(-1);
      return;
    }
    Turn(-1);
    --head;
  }
  void Seek(std::size_t position) {
    while (head < position) MoveRight();
    while (head > position) MoveLeft();
  }
  void Reset(std::string content) {
    cells = std::move(content);
    used = cells.size();
    head = 0;
    direction = +1;
    reversals = 0;
  }
  /// Visited-but-unwritten cells read back as blanks, exactly like the
  /// storage layer materialises them.
  std::string Contents() const {
    std::string out = cells.substr(0, std::min(used, cells.size()));
    out.resize(used, tape::kBlank);
    return out;
  }
};

void ApplyToModel(ModelTape& model, const TapeOp& op) {
  switch (op.kind) {
    case TapeOp::Kind::kWrite:
      model.Write(op.symbol);
      break;
    case TapeOp::Kind::kMoveLeft:
      model.MoveLeft();
      break;
    case TapeOp::Kind::kMoveRight:
      model.MoveRight();
      break;
    case TapeOp::Kind::kSeek:
      model.Seek(op.target);
      break;
    case TapeOp::Kind::kReset:
      model.Reset(op.content);
      break;
  }
}

void ApplyToTape(tape::Tape& t, const TapeOp& op) {
  switch (op.kind) {
    case TapeOp::Kind::kWrite:
      t.Write(op.symbol);
      break;
    case TapeOp::Kind::kMoveLeft:
      t.MoveLeft();
      break;
    case TapeOp::Kind::kMoveRight:
      t.MoveRight();
      break;
    case TapeOp::Kind::kSeek:
      t.Seek(op.target);
      break;
    case TapeOp::Kind::kReset:
      t.Reset(op.content);
      break;
  }
}

/// A file-backed tape with tiny geometry (16-cell blocks, 4-block
/// cache) so short sequences already cross blocks and evict.
tape::Tape MakeFileTape() {
  extmem::StorageOptions options;
  options.backend = extmem::BackendKind::kFile;
  options.block_size = 16;
  options.cache_blocks = 4;
  options.readahead_blocks = 2;
  options.dir = (std::filesystem::temp_directory_path() /
                 "rstlab-conform-tapes").string();
  Result<std::unique_ptr<extmem::TapeStorage>> storage =
      extmem::CreateStorage(options);
  if (!storage.ok()) {
    // Fall back to memory (CreateStorage already warned); the mem-vs-
    // model half of the oracle still runs.
    return tape::Tape();
  }
  return tape::Tape(std::move(storage).value());
}

/// Replays `ops` on the model and both backends. Returns the first
/// disagreement ("" = conformant).
std::string CheckTapeOps(const std::vector<TapeOp>& ops) {
  ModelTape model{std::string()};
  tape::Tape mem;
  tape::Tape file = MakeFileTape();

  const auto mismatch = [](std::size_t step, const TapeOp& op,
                           const std::string& what, auto model_value,
                           auto mem_value, auto file_value) {
    return "step " + std::to_string(step) + " (" + op.ToString() +
           "): " + what + ": model=" + std::to_string(model_value) +
           " mem=" + std::to_string(mem_value) +
           " file=" + std::to_string(file_value);
  };

  for (std::size_t step = 0; step < ops.size(); ++step) {
    const TapeOp& op = ops[step];
    ApplyToModel(model, op);
    ApplyToTape(mem, op);
    ApplyToTape(file, op);

    if (model.Read() != mem.Read() || model.Read() != file.Read()) {
      return mismatch(step, op, "symbol under head", model.Read(),
                      mem.Read(), file.Read());
    }
    if (model.head != mem.head() || model.head != file.head()) {
      return mismatch(step, op, "head", model.head, mem.head(),
                      file.head());
    }
    const int mem_dir = static_cast<int>(mem.direction());
    const int file_dir = static_cast<int>(file.direction());
    if (model.direction != mem_dir || model.direction != file_dir) {
      return mismatch(step, op, "direction", model.direction, mem_dir,
                      file_dir);
    }
    if (model.reversals != mem.reversals() ||
        model.reversals != file.reversals()) {
      return mismatch(step, op, "reversals", model.reversals,
                      mem.reversals(), file.reversals());
    }
    if (model.used != mem.cells_used() ||
        model.used != file.cells_used()) {
      return mismatch(step, op, "cells used", model.used,
                      mem.cells_used(), file.cells_used());
    }
  }
  if (model.Contents() != mem.contents() ||
      model.Contents() != file.contents()) {
    return "final contents: model=\"" + model.Contents() + "\" mem=\"" +
           mem.contents() + "\" file=\"" + file.contents() + "\"";
  }
  return "";
}

/// Per-op simplifications tried after sequence removal: shrink seek
/// targets and reset contents toward zero.
std::vector<std::vector<TapeOp>> SimplifyOpCandidates(
    const std::vector<TapeOp>& ops) {
  std::vector<std::vector<TapeOp>> out;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TapeOp& op = ops[i];
    if (op.kind == TapeOp::Kind::kSeek && op.target > 0) {
      std::vector<TapeOp> candidate = ops;
      candidate[i].target = op.target / 2;
      out.push_back(std::move(candidate));
    }
    if (op.kind == TapeOp::Kind::kReset && !op.content.empty()) {
      std::vector<TapeOp> candidate = ops;
      candidate[i].content.resize(op.content.size() / 2);
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

class TapeBackendSuite final : public Suite {
 public:
  const char* name() const override { return "tape-backend"; }
  const char* description() const override {
    return "reference head model vs tape::Tape on mem and file storage";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    const std::size_t size = 4 + index % 24;  // growing op budgets
    std::vector<TapeOp> ops = GenTapeOps()(rng, size);

    CaseOutcome outcome;
    std::string failure = CheckTapeOps(ops);
    if (failure.empty()) return outcome;

    const std::function<bool(const std::vector<TapeOp>&)> still_fails =
        [](const std::vector<TapeOp>& candidate) {
          return !CheckTapeOps(candidate).empty();
        };
    const std::function<std::vector<std::vector<TapeOp>>(
        const std::vector<TapeOp>&)>
        candidates = [](const std::vector<TapeOp>& current) {
          std::vector<std::vector<TapeOp>> all =
              SequenceRemovalCandidates(current);
          for (auto& simplified : SimplifyOpCandidates(current)) {
            all.push_back(std::move(simplified));
          }
          return all;
        };
    ShrinkStats stats;
    ops = GreedyShrink(std::move(ops), still_fails, candidates,
                       /*max_attempts=*/2000, &stats);

    outcome.passed = false;
    outcome.failure = CheckTapeOps(ops);
    outcome.counterexample =
        TapeOpsToString(ops) + "  (" + std::to_string(ops.size()) +
        " ops, " + std::to_string(TapeOpsCellSpan(ops)) + " cells)";
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

// ---------------------------------------------------------------------
// tape-fields: the stmodel field walks against per-cell loops
// ---------------------------------------------------------------------

/// One operation of a field-walk sequence over two tapes, A (0) and B
/// (1). `tape` names the tape acted on: the source of a copy (onto the
/// other tape) and the left side of a compare (against the other tape).
struct FieldOp {
  enum class Kind : std::uint8_t {
    kSkip,      // SkipField
    kRead,      // ReadField
    kCopy,      // CopyField onto the other tape
    kCompare,   // CompareFields against the other tape
    kCount,     // CountFields
    kAtEnd,     // AtEnd
    kSeek,      // Seek to `target`
    kMoveLeft,  // MoveLeft
  };

  Kind kind = Kind::kSkip;
  int tape = 0;
  std::size_t target = 0;

  std::string ToString() const {
    const std::string side = tape == 0 ? "a" : "b";
    switch (kind) {
      case Kind::kSkip:
        return "skip(" + side + ")";
      case Kind::kRead:
        return "read(" + side + ")";
      case Kind::kCopy:
        return "copy(" + side + ")";
      case Kind::kCompare:
        return "cmp(" + side + ")";
      case Kind::kCount:
        return "count(" + side + ")";
      case Kind::kAtEnd:
        return "end(" + side + ")";
      case Kind::kSeek:
        return "seek(" + side + "," + std::to_string(target) + ")";
      case Kind::kMoveLeft:
        return "left(" + side + ")";
    }
    return "?";
  }
};

/// A tape-fields instance: the two tapes' initial contents and the ops.
struct FieldCase {
  std::string a;
  std::string b;
  std::vector<FieldOp> ops;

  std::string ToString() const {
    std::string out = "a=\"" + a + "\" b=\"" + b + "\":";
    for (const FieldOp& op : ops) {
      out.push_back(' ');
      out += op.ToString();
    }
    return out;
  }
};

/// Field contents over {0, 1, #}: fields of 0..39 cells, so they
/// straddle the file backend's 16-cell blocks, an occasional blank cell
/// inside the content, and sometimes an unterminated last field.
std::string GenFieldContent(Rng& rng, std::size_t size) {
  std::string out;
  const std::size_t fields = rng.UniformInRange(0, 2 + size / 4);
  for (std::size_t f = 0; f < fields; ++f) {
    const std::size_t length =
        rng.Bernoulli(0.3) ? rng.UniformInRange(16, 39)
                           : rng.UniformInRange(0, 6);
    for (std::size_t i = 0; i < length; ++i) {
      out.push_back(rng.Bernoulli(0.03) ? tape::kBlank
                                        : (rng.Bernoulli(0.5) ? '1' : '0'));
    }
    if (f + 1 < fields || !rng.Bernoulli(0.25)) {
      out.push_back(stmodel::kFieldSeparator);
    }
  }
  return out;
}

FieldCase GenFieldCase(Rng& rng, std::size_t size) {
  FieldCase c;
  c.a = GenFieldContent(rng, size);
  c.b = rng.Bernoulli(0.3) ? std::string() : GenFieldContent(rng, size);
  const std::size_t count = rng.UniformInRange(1, 4 + size);
  for (std::size_t i = 0; i < count; ++i) {
    FieldOp op;
    op.tape = rng.Bernoulli(0.75) ? 0 : 1;
    const std::uint64_t pick = rng.UniformBelow(16);
    if (pick < 3) {
      op.kind = FieldOp::Kind::kSkip;
    } else if (pick < 6) {
      op.kind = FieldOp::Kind::kRead;
    } else if (pick < 9) {
      op.kind = FieldOp::Kind::kCopy;
    } else if (pick < 11) {
      op.kind = FieldOp::Kind::kCompare;
    } else if (pick < 12) {
      op.kind = FieldOp::Kind::kCount;
    } else if (pick < 13) {
      op.kind = FieldOp::Kind::kAtEnd;
    } else if (pick < 15) {
      op.kind = FieldOp::Kind::kSeek;
      const std::size_t length = op.tape == 0 ? c.a.size() : c.b.size();
      op.target = rng.UniformBelow(length + 8);
    } else {
      op.kind = FieldOp::Kind::kMoveLeft;
    }
    c.ops.push_back(op);
  }
  return c;
}

bool EndsField(char c) {
  return c == stmodel::kFieldSeparator || c == tape::kBlank;
}

std::string Quoted(const std::string& text) {
  std::string out(1, '"');
  out += text;
  out.push_back('"');
  return out;
}

/// The per-cell walk's loop condition: the head rests on a cell that
/// ends the field. Under self-test fault injection the walk stops one
/// cell early, on a field's last payload cell — the off-by-one a bulk
/// walk's run arithmetic would make.
bool ModelWalkStops(const ModelTape& t) {
  if (FaultInjectionEnabled() && !EndsField(t.Read())) {
    const std::size_t next = t.head + 1;
    if (EndsField(next < t.cells.size() ? t.cells[next] : tape::kBlank)) {
      return true;
    }
  }
  return EndsField(t.Read());
}

// The reference field walks: the per-cell loops, one Read()/MoveRight()
// pair per cell, on the model.

std::size_t ModelSkipField(ModelTape& t) {
  std::size_t skipped = 0;
  while (!ModelWalkStops(t)) {
    ++skipped;
    t.MoveRight();
  }
  if (t.Read() == stmodel::kFieldSeparator) t.MoveRight();
  return skipped;
}

std::string ModelReadField(ModelTape& t) {
  std::string out;
  while (!ModelWalkStops(t)) {
    out.push_back(t.Read());
    t.MoveRight();
  }
  if (t.Read() == stmodel::kFieldSeparator) t.MoveRight();
  return out;
}

void ModelCopyField(ModelTape& src, ModelTape& dst) {
  while (!ModelWalkStops(src)) {
    dst.Write(src.Read());
    dst.MoveRight();
    src.MoveRight();
  }
  if (src.Read() == stmodel::kFieldSeparator) {
    dst.Write(stmodel::kFieldSeparator);
    dst.MoveRight();
    src.MoveRight();
  }
}

int ModelCompareFields(ModelTape& a, ModelTape& b) {
  int verdict = 0;
  bool decided = false;
  while (true) {
    const bool ea = ModelWalkStops(a);
    const bool eb = ModelWalkStops(b);
    if (ea && eb) break;
    if (!decided) {
      if (ea != eb) {
        verdict = ea ? -1 : 1;  // proper prefix compares less
        decided = true;
      } else if (a.Read() != b.Read()) {
        verdict = a.Read() < b.Read() ? -1 : 1;
        decided = true;
      }
    }
    if (!ea) a.MoveRight();
    if (!eb) b.MoveRight();
  }
  if (a.Read() == stmodel::kFieldSeparator) a.MoveRight();
  if (b.Read() == stmodel::kFieldSeparator) b.MoveRight();
  return verdict;
}

std::size_t ModelCountFields(ModelTape& t) {
  std::size_t fields = 0;
  while (t.Read() != tape::kBlank) {
    ModelSkipField(t);
    ++fields;
  }
  return fields;
}

/// Applies `op` to the model pair; returns the op's rendered result.
std::string ApplyFieldOpToModel(ModelTape& x, ModelTape& y,
                                const FieldOp& op) {
  switch (op.kind) {
    case FieldOp::Kind::kSkip:
      return std::to_string(ModelSkipField(x));
    case FieldOp::Kind::kRead:
      return Quoted(ModelReadField(x));
    case FieldOp::Kind::kCopy:
      ModelCopyField(x, y);
      return "";
    case FieldOp::Kind::kCompare:
      return std::to_string(ModelCompareFields(x, y));
    case FieldOp::Kind::kCount:
      return std::to_string(ModelCountFields(x));
    case FieldOp::Kind::kAtEnd:
      return x.Read() == tape::kBlank ? "true" : "false";
    case FieldOp::Kind::kSeek:
      x.Seek(op.target);
      return "";
    case FieldOp::Kind::kMoveLeft:
      // Blocked at cell 0 the move is free; the tape-backend suite owns
      // that case and its injected fault.
      if (x.head > 0) x.MoveLeft();
      return "";
  }
  return "";
}

/// Applies `op` to a real tape pair through the stmodel primitives.
std::string ApplyFieldOpToTapes(tape::Tape& x, tape::Tape& y,
                                const FieldOp& op) {
  switch (op.kind) {
    case FieldOp::Kind::kSkip:
      return std::to_string(stmodel::SkipField(x));
    case FieldOp::Kind::kRead:
      return Quoted(stmodel::ReadField(x));
    case FieldOp::Kind::kCopy:
      stmodel::CopyField(x, y);
      return "";
    case FieldOp::Kind::kCompare:
      return std::to_string(stmodel::CompareFields(x, y));
    case FieldOp::Kind::kCount:
      return std::to_string(stmodel::CountFields(x));
    case FieldOp::Kind::kAtEnd:
      return stmodel::AtEnd(x) ? "true" : "false";
    case FieldOp::Kind::kSeek:
      x.Seek(op.target);
      return "";
    case FieldOp::Kind::kMoveLeft:
      x.MoveLeft();
      return "";
  }
  return "";
}

/// Replays `c` on the model and on tape pairs over both backends.
/// Returns the first disagreement ("" = conformant).
std::string CheckFieldCase(const FieldCase& c) {
  ModelTape model[2] = {ModelTape(c.a), ModelTape(c.b)};
  tape::Tape mem[2] = {tape::Tape(c.a), tape::Tape(c.b)};
  tape::Tape file[2] = {MakeFileTape(), MakeFileTape()};
  file[0].Reset(c.a);
  file[1].Reset(c.b);

  for (std::size_t step = 0; step < c.ops.size(); ++step) {
    const FieldOp& op = c.ops[step];
    const int x = op.tape;
    const int y = 1 - x;
    const std::string want = ApplyFieldOpToModel(model[x], model[y], op);
    const std::string got_mem = ApplyFieldOpToTapes(mem[x], mem[y], op);
    const std::string got_file = ApplyFieldOpToTapes(file[x], file[y], op);
    std::string where = "step ";
    where += std::to_string(step);
    where += " (";
    where += op.ToString();
    where += "): ";
    if (want != got_mem || want != got_file) {
      return where + "result: model=" + want + " mem=" + got_mem +
             " file=" + got_file;
    }
    for (int t = 0; t < 2; ++t) {
      const std::string side = t == 0 ? "a " : "b ";
      const auto observe = [&](const std::string& what, auto want_value,
                               auto mem_value, auto file_value)
          -> std::string {
        if (want_value == mem_value && want_value == file_value) return "";
        return where + side + what + ": model=" +
               std::to_string(want_value) + " mem=" +
               std::to_string(mem_value) + " file=" +
               std::to_string(file_value);
      };
      for (const std::string& failure : {
               observe("head", model[t].head, mem[t].head(), file[t].head()),
               observe("direction", model[t].direction,
                       static_cast<int>(mem[t].direction()),
                       static_cast<int>(file[t].direction())),
               observe("reversals", model[t].reversals, mem[t].reversals(),
                       file[t].reversals()),
               observe("cells used", model[t].used, mem[t].cells_used(),
                       file[t].cells_used())}) {
        if (!failure.empty()) return failure;
      }
    }
  }
  for (int t = 0; t < 2; ++t) {
    const std::string want = model[t].Contents();
    if (want != mem[t].contents() || want != file[t].contents()) {
      return std::string("final contents of ") + (t == 0 ? "a" : "b") +
             ": model=\"" + want + "\" mem=\"" + mem[t].contents() +
             "\" file=\"" + file[t].contents() + "\"";
    }
  }
  return "";
}

/// Shrink moves after op removal: halve either content, drop one of
/// its cells, halve a seek target.
std::vector<FieldCase> FieldCaseCandidates(const FieldCase& c) {
  std::vector<FieldCase> out;
  for (std::vector<FieldOp>& ops : SequenceRemovalCandidates(c.ops)) {
    FieldCase candidate = c;
    candidate.ops = std::move(ops);
    out.push_back(std::move(candidate));
  }
  for (std::string FieldCase::*content : {&FieldCase::a, &FieldCase::b}) {
    const std::string& cells = c.*content;
    if (cells.empty()) continue;
    FieldCase half = c;
    (half.*content).resize(cells.size() / 2);
    out.push_back(std::move(half));
    for (std::size_t i = 0; i < cells.size(); ++i) {
      FieldCase dropped = c;
      (dropped.*content).erase(i, 1);
      out.push_back(std::move(dropped));
    }
  }
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    if (c.ops[i].kind == FieldOp::Kind::kSeek && c.ops[i].target > 0) {
      FieldCase candidate = c;
      candidate.ops[i].target /= 2;
      out.push_back(std::move(candidate));
    }
  }
  return out;
}

class TapeFieldsSuite final : public Suite {
 public:
  const char* name() const override { return "tape-fields"; }
  const char* description() const override {
    return "per-cell field walks on the head model vs stmodel's bulk "
           "walks on mem and file tapes";
  }

  CaseOutcome RunCase(std::uint64_t seed,
                      std::uint64_t index) const override {
    Rng rng(CaseRngSeed(CaseId{name(), seed, index}));
    FieldCase c = GenFieldCase(rng, 4 + index % 24);

    CaseOutcome outcome;
    if (CheckFieldCase(c).empty()) return outcome;

    const std::function<bool(const FieldCase&)> still_fails =
        [](const FieldCase& candidate) {
          return !CheckFieldCase(candidate).empty();
        };
    const std::function<std::vector<FieldCase>(const FieldCase&)>
        candidates = FieldCaseCandidates;
    ShrinkStats stats;
    c = GreedyShrink(std::move(c), still_fails, candidates,
                     /*max_attempts=*/2000, &stats);

    outcome.passed = false;
    outcome.failure = CheckFieldCase(c);
    outcome.counterexample = c.ToString();
    outcome.shrink_attempts = stats.attempts;
    return outcome;
  }
};

}  // namespace

std::unique_ptr<Suite> MakeTapeBackendSuite() {
  return std::make_unique<TapeBackendSuite>();
}

std::unique_ptr<Suite> MakeTapeFieldsSuite() {
  return std::make_unique<TapeFieldsSuite>();
}

}  // namespace rstlab::conform
