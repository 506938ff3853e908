#ifndef RSTLAB_SORTING_RUN_OPTIONS_H_
#define RSTLAB_SORTING_RUN_OPTIONS_H_

#include "extmem/storage.h"
#include "sorting/sort_config.h"
#include "util/simd.h"

namespace rstlab::sorting {

/// The configuration a metered run takes as a value: where its tapes
/// live, the geometry of its sorts and the lane width of its batched
/// fingerprints. A binary parses it once (`ParseRunOptions`) and hands
/// it down to every context, sort and service it builds; nothing a run
/// computes depends on what the process did before it. A
/// default-constructed value is the environment over the built-in
/// defaults.
struct RunOptions {
  extmem::StorageOptions storage = extmem::DefaultStorageOptions();
  SortConfig sort = DefaultSortConfig();
  simd::SimdLevel simd = simd::ResolveSimdLevel();
};

/// Extracts the common flags from argv, removing them so that later
/// parsers (a subcommand's, google-benchmark's) never see them:
///
///   --tape-backend={mem,file}  --cache-blocks=K  --readahead-blocks=K
///   --sort-threads=T  --merge-fanout=K  --run-length=L  --simd=LEVEL
///
/// Flags override the environment, which overrides the defaults.
/// `--sort-threads` and `--run-length` are clamped to at least 1. An
/// unparsable value, a zero cache or readahead size, an unknown backend
/// and a fanout below 2 warn on stderr and keep the previous value; an
/// unknown `--simd` spelling means hardware detection.
RunOptions ParseRunOptions(int* argc, char** argv);

/// Usage lines for the common flags, one flag per line.
extern const char kRunOptionsUsage[];

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_RUN_OPTIONS_H_
