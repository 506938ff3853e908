#include "listmachine/simulation.h"

#include <cassert>
#include <map>
#include <sstream>

namespace rstlab::listmachine {

namespace {

/// One list cell plus the tape-block boundaries it represents
/// ([begin, end), host-side bookkeeping corresponding to the paper's
/// tape_config functions).
struct BlockCell {
  CellContent content;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Mutable simulation state for one external tape / list.
struct ListState {
  std::vector<BlockCell> cells;
  std::size_t head = 0;  // cell index
  int direction = +1;
};

/// Serializes the abstract state of the NLM: TM state, internal tape
/// contents and heads, external head positions and current block
/// boundaries (the components enumerated below Lemma 16).
std::string AbstractStateKey(const machine::Configuration& config,
                             std::size_t num_external,
                             const std::vector<ListState>& lists) {
  std::ostringstream os;
  os << "q" << config.state << ";";
  for (std::size_t i = num_external; i < config.tapes.size(); ++i) {
    os << "i" << config.heads[i] << ":" << config.tapes[i] << ";";
  }
  for (std::size_t i = 0; i < num_external; ++i) {
    const ListState& ls = lists[i];
    const BlockCell& cur = ls.cells[ls.head];
    os << "e" << config.heads[i] << "[" << cur.begin << "," << cur.end
       << ")" << (ls.direction > 0 ? '+' : '-') << ";";
  }
  return os.str();
}

/// Value of a 0/1 field for Symbol payloads (exact for <= 64 bits, a
/// truncated prefix beyond — the payload is informational, positions are
/// what skeleton analyses use).
std::uint64_t FieldValue(const std::string& field) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < field.size() && i < 64; ++i) {
    v = (v << 1) | (field[i] == '1' ? 1u : 0u);
  }
  return v;
}

}  // namespace

Result<SimulationResult> SimulateTmAsNlm(
    const machine::TuringMachine& tm,
    const std::vector<std::string>& input_fields,
    const std::vector<std::uint64_t>& tm_choices, std::size_t max_steps) {
  const machine::MachineSpec& spec = tm.spec();
  const std::size_t t = spec.num_external_tapes;
  if (t == 0) {
    return Status::InvalidArgument("machine has no external tapes");
  }
  for (const std::string& f : input_fields) {
    for (char c : f) {
      if (c != '0' && c != '1') {
        return Status::InvalidArgument("input fields must be 0/1 strings");
      }
    }
  }

  // Input word w = v_1 # v_2 # ... v_m #.
  std::string input_word;
  for (const std::string& f : input_fields) {
    input_word += f;
    input_word += '#';
  }
  const std::size_t N = input_word.size();
  // Upper bound on tape length over the run (Lemma 3 supplies the
  // theoretical bound; operationally the TM can visit at most one new
  // cell per step).
  const std::size_t tape_cap = N + max_steps + 2;

  SimulationResult result;

  // ---- Initial lists: tape 1 split into m input blocks. ----
  std::vector<ListState> lists(t);
  {
    const std::size_t m = input_fields.size();
    ListState& first = lists[0];
    if (m == 0) {
      first.cells.push_back(
          {{Symbol::Open(), Symbol::Close()}, 0, tape_cap});
    } else {
      std::size_t offset = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::size_t len = input_fields[j].size() + 1;  // v_j '#'
        BlockCell cell;
        cell.content = {Symbol::Open(),
                        Symbol::Input(FieldValue(input_fields[j]), j),
                        Symbol::Close()};
        cell.begin = offset;
        cell.end = (j + 1 == m) ? tape_cap : offset + len;
        offset += len;
        first.cells.push_back(std::move(cell));
      }
    }
    for (std::size_t i = 1; i < t; ++i) {
      lists[i].cells.push_back(
          {{Symbol::Open(), Symbol::Close()}, 0, tape_cap});
    }
  }

  std::map<std::string, StateId> state_ids;
  auto intern = [&state_ids](const std::string& key) {
    auto [it, inserted] =
        state_ids.emplace(key, static_cast<StateId>(state_ids.size()));
    (void)inserted;
    return it->second;
  };

  machine::Configuration config = tm.InitialConfiguration(input_word);
  std::vector<int> tm_directions(t, +1);
  StateId current_state =
      intern(AbstractStateKey(config, t, lists));

  ListMachineRun& run = result.run;
  run.reversals.assign(t, 0);

  std::size_t step = 0;
  bool stuck = false;
  while (step < max_steps && !spec.IsFinal(config.state)) {
    std::vector<machine::Configuration> next =
        tm.NextConfigurations(config);
    if (next.empty()) {
      stuck = true;
      break;
    }
    const std::uint64_t choice =
        step < tm_choices.size() ? tm_choices[step] : 0;
    machine::Configuration succ =
        next[static_cast<std::size_t>(choice % next.size())];

    // Detect external-head events in this TM step. Machines need not be
    // normalized: several heads may move (and event) simultaneously; the
    // NLM step then carries all their movements at once.
    std::vector<bool> has_event(t, false);
    std::vector<bool> is_cross(t, false);
    std::vector<int> event_dirs(t, 0);
    bool any_event = false;
    for (std::size_t i = 0; i < t; ++i) {
      if (succ.heads[i] == config.heads[i]) continue;
      const int dir = succ.heads[i] > config.heads[i] ? +1 : -1;
      const BlockCell& cur = lists[i].cells[lists[i].head];
      if (dir != tm_directions[i]) {
        has_event[i] = true;
        is_cross[i] = false;
        event_dirs[i] = dir;
        tm_directions[i] = dir;
      }
      if (succ.heads[i] < cur.begin || succ.heads[i] >= cur.end) {
        // A crossing (possibly combined with a turn in the same step).
        has_event[i] = true;
        is_cross[i] = true;
        event_dirs[i] = dir;
      }
      any_event = any_event || has_event[i];
    }

    if (any_event) {
      // ---- Perform one NLM step. ----
      StepRecord record;
      record.state_before = current_state;
      record.directions_before.clear();
      record.reads.clear();
      record.cell_moves.assign(t, 0);
      record.choice = static_cast<ChoiceId>(step % 1000000);
      for (std::size_t i = 0; i < t; ++i) {
        record.directions_before.push_back(lists[i].direction);
        record.reads.push_back(lists[i].cells[lists[i].head].content);
      }

      // Trace string y = a <x_1> ... <x_t> <c>.
      CellContent y;
      y.push_back(Symbol::State(current_state));
      for (std::size_t i = 0; i < t; ++i) {
        y.push_back(Symbol::Open());
        const CellContent& x = lists[i].cells[lists[i].head].content;
        y.insert(y.end(), x.begin(), x.end());
        y.push_back(Symbol::Close());
      }
      y.push_back(Symbol::Open());
      y.push_back(Symbol::Choice(record.choice));
      y.push_back(Symbol::Close());

      for (std::size_t i = 0; i < t; ++i) {
        ListState& ls = lists[i];
        const std::size_t h = ls.head;
        const std::size_t tm_head = succ.heads[i];
        const int event_dir = event_dirs[i];
        if (has_event[i] && is_cross[i]) {
          // Head leaves its block: the exited cell is overwritten with
          // y; the head moves to the adjacent cell.
          ls.cells[h].content = y;
          if (event_dir > 0) {
            assert(h + 1 < ls.cells.size());
            ls.head = h + 1;
            record.cell_moves[i] = +1;
          } else {
            assert(h > 0);
            ls.head = h - 1;
            record.cell_moves[i] = -1;
          }
          if (event_dir != ls.direction) {
            ++run.reversals[i];
            ls.direction = event_dir;
          }
          continue;
        }

        // Split the current block behind the head and insert the
        // behind-part as a new cell carrying y (Definition 24
        // insertion semantics, driven by the *old* direction).
        const int d_old = ls.direction;
        BlockCell& cur = ls.cells[h];
        const std::size_t p = has_event[i] ? tm_head : config.heads[i];
        BlockCell behind;
        behind.content = y;
        if (d_old > 0) {
          behind.begin = cur.begin;
          behind.end = std::max(cur.begin, std::min(p, cur.end));
          cur.begin = behind.end;
          ls.cells.insert(
              ls.cells.begin() + static_cast<std::ptrdiff_t>(h), behind);
          // Head cell index shifted by the insertion.
          const bool turning =
              has_event[i] && !is_cross[i];
          if (turning) {
            // (-1,false) with d=+1: head lands on the inserted cell.
            // Swap roles: the inserted cell must contain the head.
            // Re-derive boundaries: head keeps positions <= p.
            ls.cells[h].end =
                std::min(ls.cells[h + 1].end,
                         std::max(ls.cells[h].end, p + 1));
            ls.cells[h + 1].begin = ls.cells[h].end;
            ls.head = h;  // on the inserted cell
            record.cell_moves[i] = -1;
            ++run.reversals[i];
            ls.direction = event_dir;
          } else {
            ls.head = h + 1;  // still on the old cell
            record.cell_moves[i] = 0;
          }
        } else {
          behind.begin = std::max(cur.begin, std::min(p + 1, cur.end));
          behind.end = cur.end;
          cur.end = behind.begin;
          ls.cells.insert(
              ls.cells.begin() + static_cast<std::ptrdiff_t>(h) + 1,
              behind);
          const bool turning =
              has_event[i] && !is_cross[i];
          if (turning) {
            // (+1,false) with d=-1: head lands on the inserted cell.
            // `cur` may dangle here: the insert can reallocate.
            ls.cells[h + 1].begin = std::max(
                ls.cells[h].begin, std::min(p, ls.cells[h].begin));
            ls.cells[h].end = ls.cells[h + 1].begin;
            ls.head = h + 1;
            record.cell_moves[i] = +1;
            ++run.reversals[i];
            ls.direction = event_dir;
          } else {
            ls.head = h;
            record.cell_moves[i] = 0;
          }
        }
      }

      config = std::move(succ);
      current_state = intern(AbstractStateKey(config, t, lists));
      run.steps.push_back(std::move(record));
    } else {
      config = std::move(succ);
      // Abstract state evolves silently (internal memory / in-block
      // movement); the NLM performs the corresponding state-only step
      // when the next event materializes. Interning here keeps the
      // distinct-state census faithful.
      current_state = intern(AbstractStateKey(config, t, lists));
    }
    ++step;
  }

  result.tm_steps = step;
  result.tm_halted = spec.IsFinal(config.state) || stuck;
  result.tm_accepted = spec.IsAccepting(config.state);
  result.distinct_states = state_ids.size();

  run.halted = result.tm_halted;
  run.accepted = result.tm_accepted;
  run.final_config.state = current_state;
  run.final_config.heads.resize(t);
  run.final_config.directions.resize(t);
  run.final_config.lists.resize(t);
  for (std::size_t i = 0; i < t; ++i) {
    run.final_config.heads[i] = lists[i].head;
    run.final_config.directions[i] = lists[i].direction;
    for (const BlockCell& cell : lists[i].cells) {
      run.final_config.lists[i].push_back(cell.content);
    }
  }
  return result;
}

}  // namespace rstlab::listmachine
