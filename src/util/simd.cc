#include "util/simd.h"

#include <cstdlib>

namespace rstlab::simd {

std::size_t SimdLanes(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return 1;
    case SimdLevel::kLanes4:
      return 4;
    case SimdLevel::kLanes8:
      return 8;
  }
  return 1;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kLanes4:
      return "lanes4";
    case SimdLevel::kLanes8:
      return "lanes8";
  }
  return "scalar";
}

SimdLevel DetectSimdLevel() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    return SimdLevel::kLanes8;
  }
  return SimdLevel::kScalar;
#elif defined(__aarch64__)
  // NEON is part of the aarch64 baseline: two 2x64 vectors per group.
  return SimdLevel::kLanes4;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ParseSimdLevelName(const std::string& name) {
  if (name == "off" || name == "scalar" || name == "0" || name == "1") {
    return SimdLevel::kScalar;
  }
  if (name == "4" || name == "lanes4") {
    return SimdLevel::kLanes4;
  }
  if (name == "8" || name == "lanes8") {
    return SimdLevel::kLanes8;
  }
  return DetectSimdLevel();
}

SimdLevel ResolveSimdLevel() {
  const char* env = std::getenv("RSTLAB_SIMD");
  if (env == nullptr || *env == '\0') {
    return DetectSimdLevel();
  }
  return ParseSimdLevelName(env);
}

bool VectorKernelsAvailable() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#elif defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

}  // namespace rstlab::simd
