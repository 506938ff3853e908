#include "relation_pair.h"

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace rstbench {

std::string RelationPairStream(std::uint64_t seed, std::size_t num_tuples,
                               std::size_t value_len,
                               std::size_t perturbations) {
  rstlab::Rng rng(seed);
  // Wide enough to index num_tuples distinct values, within [1, 63].
  std::size_t bits = 1;
  while ((std::size_t{1} << bits) < num_tuples && bits < 63) ++bits;
  const std::size_t len = std::clamp<std::size_t>(value_len, bits, 63);
  const std::uint64_t mask = rng.UniformBelow(std::uint64_t{1} << len);
  const std::uint64_t column_mask =
      rng.UniformBelow(std::uint64_t{1} << len);

  const std::size_t k = std::min(perturbations, num_tuples);
  std::vector<std::string> fields;
  fields.reserve(2 * num_tuples);
  for (std::size_t i = 0; i < num_tuples; ++i) {
    std::string value(len, '0');
    const std::uint64_t v = i ^ mask ^ column_mask;
    for (std::size_t b = 0; b < len; ++b) {
      if ((v >> (len - 1 - b)) & 1) value[b] = '1';
    }
    fields.push_back("R1," + value);
    fields.push_back("R2," + value + (i < k ? "1" : ""));
  }
  rng.Shuffle(fields);
  std::string stream;
  for (const std::string& field : fields) {
    stream += field;
    stream += '#';
  }
  return stream;
}

}  // namespace rstbench
