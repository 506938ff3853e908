// Reversal-bounded external merge sort (the Corollary 7 / Corollary 10
// workhorse): sort a tape of records and watch the scan bill grow
// logarithmically.
//
//   build/examples/external_sort [fields] [bits]

#include <cstdlib>
#include <iostream>

#include "core/rstlab.h"

int main(int argc, char** argv) {
  const std::size_t fields =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const std::size_t bits =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12;
  rstlab::Rng rng(13);

  std::string input;
  for (std::size_t i = 0; i < fields; ++i) {
    input += rstlab::BitString::Random(bits, rng).ToString();
    input += '#';
  }

  // The default geometry: 8-way merges of 1024-field formation runs.
  const rstlab::sorting::SortConfig config =
      rstlab::sorting::DefaultSortConfig();
  rstlab::stmodel::StContext ctx(1);
  ctx.LoadInput(input);
  rstlab::sorting::ParallelSortStats stats;
  rstlab::Status status =
      rstlab::sorting::ParallelSortFieldsOnTape(ctx, 0, config, &stats);
  if (!status.ok()) {
    std::cerr << "sort failed: " << status << "\n";
    return 1;
  }

  rstlab::tape::Tape& t = ctx.tape(0);
  t.Seek(0);
  std::cout << "sorted " << stats.num_fields << " records of " << bits
            << " bits: " << stats.num_runs << " formation run(s), "
            << stats.merge_passes << " merge pass(es) at fanout "
            << config.fanout << "\n"
            << "resources: " << ctx.Report().ToString() << "\n";
  if (fields <= 32) {
    std::cout << "output:";
    while (!rstlab::stmodel::AtEnd(t)) {
      std::cout << " " << rstlab::stmodel::ReadField(t);
    }
    std::cout << "\n";
  }

  // The paper's binary merge sort is the same algorithm at fanout 2 and
  // run length 1: every quadrupling of N adds two merge passes.
  std::cout << "\nscan bill per input size at the paper geometry "
               "(Theta(log N), Corollary 7):\n";
  for (std::size_t f : {64u, 256u, 1024u, 4096u}) {
    std::string in;
    for (std::size_t i = 0; i < f; ++i) {
      in += rstlab::BitString::Random(bits, rng).ToString();
      in += '#';
    }
    rstlab::stmodel::StContext c(1);
    c.LoadInput(in);
    if (!rstlab::sorting::ParallelSortFieldsOnTape(
             c, 0, rstlab::sorting::kPaperSortConfig)
             .ok()) {
      return 1;
    }
    std::cout << "  N = " << in.size() << "  ->  "
              << c.Report().ToString() << "\n";
  }
  return 0;
}
