#ifndef RSTBENCH_RELATION_PAIR_H_
#define RSTBENCH_RELATION_PAIR_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace rstbench {

/// The Theorem 11 input stream of `query::MakeRelationPair` for a
/// one-column pair R1, R2 without duplicates, built in linear time.
/// MakeRelationPair also materializes both relations through
/// `Relation::Insert`, whose linear `Contains` makes it quadratic (about
/// 2 s at 16384 tuples); the benchmark needs only the stream.
///
/// Same recipe, same Rng draws, byte-identical output: "R1,v#" and
/// "R2,v#" fields with XOR-masked fixed-width values, the first
/// `perturbations` R2 values lengthened by one bit (so they lie outside
/// R1), shuffled. |R1 Δ R2| = 2k, |R1 − R2| = k, |R1 ∪ R2| = n + k for
/// k = min(perturbations, num_tuples).
std::string RelationPairStream(std::uint64_t seed, std::size_t num_tuples,
                               std::size_t value_len,
                               std::size_t perturbations);

}  // namespace rstbench

#endif  // RSTBENCH_RELATION_PAIR_H_
