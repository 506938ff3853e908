#include "query/workload.h"

#include <algorithm>
#include <vector>

#include "stmodel/tape_io.h"
#include "util/random.h"

namespace rstlab::query {

namespace {

/// Value width actually used: wide enough to index `count` distinct
/// values, within [1, 63].
std::size_t EffectiveLen(std::size_t value_len, std::size_t count) {
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < count && bits < 63) ++bits;
  return std::clamp<std::size_t>(value_len, bits, 63);
}

/// The fixed-width binary rendering of `index ^ mask` — XOR with a
/// seeded mask is a bijection, so distinct indices stay distinct while
/// the value set looks nothing like a counter.
std::string EncodeValue(std::uint64_t index, std::uint64_t mask,
                        std::size_t len) {
  std::string value(len, '0');
  const std::uint64_t v = index ^ mask;
  for (std::size_t b = 0; b < len; ++b) {
    if ((v >> (len - 1 - b)) & 1) value[b] = '1';
  }
  return value;
}

}  // namespace

RelationPairWorkload MakeRelationPair(const RelationPairSpec& spec) {
  RelationPairWorkload out;
  Rng rng(spec.seed);
  const std::size_t arity = std::max<std::size_t>(1, spec.arity);
  const std::size_t len = EffectiveLen(spec.value_len, spec.num_tuples);
  const std::uint64_t mask =
      len >= 64 ? rng.UniformBelow(UINT64_MAX)
                : rng.UniformBelow(std::uint64_t{1} << len);
  std::vector<std::uint64_t> column_masks;
  for (std::size_t j = 0; j < arity; ++j) {
    column_masks.push_back(
        len >= 64 ? rng.UniformBelow(UINT64_MAX)
                  : rng.UniformBelow(std::uint64_t{1} << len));
  }

  const std::size_t k = std::min(spec.perturbations, spec.num_tuples);
  // Column 0 makes every tuple of a relation distinct, so both are
  // appended to without a duplicate check.
  Relation r1{spec.r1_name, arity, {}};
  Relation r2{spec.r2_name, arity, {}};
  std::vector<std::string> fields;
  for (std::size_t i = 0; i < spec.num_tuples; ++i) {
    Tuple tuple;
    tuple.reserve(arity);
    // Column 0 is the distinct index value; further columns are
    // mask-correlated copies, which makes every column a plausible
    // (and for column 0, unique) join key.
    for (std::size_t j = 0; j < arity; ++j) {
      tuple.push_back(EncodeValue(i, mask ^ column_masks[j], len));
    }
    r1.tuples.push_back(tuple);
    fields.push_back(spec.r1_name + "," + EncodeTuple(tuple));

    Tuple twin = tuple;
    if (i < k) {
      // Perturbed: one appended bit makes the value longer than every
      // fixed-width value, so it is outside R1 by construction.
      twin[0] += '1';
    }
    r2.tuples.push_back(twin);
    fields.push_back(spec.r2_name + "," + EncodeTuple(twin));
  }
  out.symmetric_difference = 2 * k;

  if (spec.skew_duplicates) {
    const std::size_t base = fields.size();
    for (std::size_t i = 0; i < base; ++i) {
      if (rng.Bernoulli(0.25)) fields.push_back(fields[i]);
    }
  }
  rng.Shuffle(fields);
  for (const std::string& field : fields) {
    out.stream += field;
    out.stream += stmodel::kFieldSeparator;
  }
  out.database.emplace(spec.r1_name, std::move(r1));
  out.database.emplace(spec.r2_name, std::move(r2));
  return out;
}

XmlWorkload MakeXmlWorkload(const XmlWorkloadSpec& spec) {
  XmlWorkload out;
  Rng rng(spec.seed);
  const std::size_t count =
      std::max(spec.set1_values, spec.set2_values);
  const std::size_t len = EffectiveLen(spec.value_len, count);
  const std::uint64_t mask =
      len >= 64 ? rng.UniformBelow(UINT64_MAX)
                : rng.UniformBelow(std::uint64_t{1} << len);
  const std::size_t k = std::min(spec.perturbations, spec.set2_values);

  const auto append_item = [&](std::string& doc, const std::string& value) {
    doc += "<item>";
    for (std::size_t d = 0; d < spec.nesting_depth; ++d) doc += "<deep>";
    doc += "<string>";
    doc += value;
    doc += "</string>";
    for (std::size_t d = 0; d < spec.nesting_depth; ++d) doc += "</deep>";
    doc += "</item>";
  };

  out.document = "<instance><set1>";
  for (std::size_t i = 0; i < spec.set1_values; ++i) {
    append_item(out.document, EncodeValue(i, mask, len));
  }
  out.document += "</set1><set2>";
  for (std::size_t i = 0; i < spec.set2_values; ++i) {
    std::string value = EncodeValue(i, mask, len);
    if (i < k) value += '1';  // outside set1's fixed-width universe
    append_item(out.document, value);
  }
  out.document += "</set2></instance>";

  out.set1_count = spec.set1_values;
  out.set2_count = spec.set2_values;
  // Unperturbed set2 slots are k..set2-1; those below set1_values are
  // common to both sets.
  const std::size_t overlap = std::min(spec.set1_values, spec.set2_values);
  const std::size_t common = overlap > k ? overlap - k : 0;
  out.symmetric_difference =
      (spec.set1_values - common) + (spec.set2_values - common);
  out.sets_equal = out.symmetric_difference == 0;
  return out;
}

}  // namespace rstlab::query
