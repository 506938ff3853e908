#ifndef RSTLAB_UTIL_SIMD_H_
#define RSTLAB_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Runtime SIMD lane-width selection for the batched kernels.
///
/// The batched fingerprint engine evaluates the same value stream
/// against several (p1, x) lanes at once. How many lanes ride in one
/// group — and whether a group is executed with vector instructions or
/// a plain loop — is a `SimdLevel` value handed to each engine.
///
/// Resolution order, strongest first:
///   1. `--simd=<level>` CLI flag (parsed by `sorting::ParseRunOptions`
///      and passed on as a value);
///   2. `RSTLAB_SIMD` environment variable;
///   3. hardware detection (`DetectSimdLevel`).
/// Accepted spellings for a level: `off` / `scalar` for kScalar, `4`
/// for kLanes4, `8` for kLanes8, `auto` (or empty) for detection.
/// Unknown spellings fall back to detection rather than aborting so a
/// stale env var can never brick a bench run.
///
/// IMPORTANT: the level only picks a *schedule*. Every kernel in
/// `fingerprint::BatchFingerprintEngine` computes the exact value
/// `x^e mod p2` no matter which level executes it, so tallies are
/// bit-identical across levels by construction; the conform suite
/// `fingerprint-batch` enforces this.
namespace rstlab::simd {

/// Lane-group widths the batched kernels are specialised for.
enum class SimdLevel : std::uint8_t {
  /// One lane at a time through the reference Barrett kernels.
  kScalar = 0,
  /// Groups of 4 u64 lanes (one AVX2 vector / two NEON vectors).
  kLanes4 = 1,
  /// Groups of 8 u64 lanes (two AVX2 vectors, unrolled).
  kLanes8 = 2,
};

/// Number of lanes in one group at `level`: 1, 4 or 8.
std::size_t SimdLanes(SimdLevel level);

/// Stable short name: "scalar", "lanes4", "lanes8".
const char* SimdLevelName(SimdLevel level);

/// Best level the *hardware* supports: kLanes8 when the CPU reports
/// AVX2, kLanes4 on aarch64 (NEON is baseline there), else kScalar.
SimdLevel DetectSimdLevel();

/// Parses one level spelling (see file comment). Unknown spellings and
/// "auto" return `DetectSimdLevel()`.
SimdLevel ParseSimdLevelName(const std::string& name);

/// Level requested by the `RSTLAB_SIMD` environment variable, or
/// `DetectSimdLevel()` when unset / set to `auto`. A pure function of
/// the environment and the CPU: the default for every engine that is
/// not handed a level.
SimdLevel ResolveSimdLevel();

/// True when this binary carries compiled vector kernels for the
/// current architecture AND the running CPU can execute them. When
/// false, kLanes4/kLanes8 still work — the lane groups are executed by
/// the portable scalar loop, preserving the batch schedule (and the
/// tallies) exactly.
bool VectorKernelsAvailable();

// ---------------------------------------------------------------------
// Portable two-lane u64 vector wrapper.
//
// The smallest unit the batched kernels are written against: two u64
// lanes, lowered to one NEON register on aarch64 and to a plain pair of
// scalars elsewhere (x86 keeps a separate AVX2 path with 4-lane
// registers behind a runtime CPU check; these wrappers are its
// always-available fallback). Every operation is exact u64 arithmetic,
// so a kernel produces the same bits whichever lowering runs it.
// ---------------------------------------------------------------------

#if defined(__aarch64__)
#define RSTLAB_SIMD_NEON 1
#endif

}  // namespace rstlab::simd

#if defined(RSTLAB_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace rstlab::simd {

/// Two unsigned 64-bit lanes.
struct U64x2 {
#if defined(RSTLAB_SIMD_NEON)
  uint64x2_t v;
#else
  std::uint64_t v[2];
#endif
};

#if defined(RSTLAB_SIMD_NEON)

inline U64x2 Dup(std::uint64_t x) { return {vdupq_n_u64(x)}; }
inline U64x2 Load2(const std::uint64_t* p) { return {vld1q_u64(p)}; }
inline void Store2(std::uint64_t* p, U64x2 a) { vst1q_u64(p, a.v); }
inline std::uint64_t Lane0(U64x2 a) { return vgetq_lane_u64(a.v, 0); }
inline std::uint64_t Lane1(U64x2 a) { return vgetq_lane_u64(a.v, 1); }
inline U64x2 Add(U64x2 a, U64x2 b) { return {vaddq_u64(a.v, b.v)}; }
inline U64x2 Sub(U64x2 a, U64x2 b) { return {vsubq_u64(a.v, b.v)}; }
inline U64x2 And(U64x2 a, U64x2 b) { return {vandq_u64(a.v, b.v)}; }
inline U64x2 ShiftLeftOne(U64x2 a) { return {vshlq_n_u64(a.v, 1)}; }
/// a >> n for a runtime shift amount 0 <= n < 64.
inline U64x2 ShiftRight(U64x2 a, unsigned n) {
  return {vshlq_u64(a.v, vdupq_n_s64(-static_cast<std::int64_t>(n)))};
}
/// low32(a) * low32(b) per lane, full 64-bit product.
inline U64x2 MulLo32(U64x2 a, U64x2 b) {
  return {vmull_u32(vmovn_u64(a.v), vmovn_u64(b.v))};
}
/// a >= m ? a - m : a, per lane.
inline U64x2 CondSub(U64x2 a, U64x2 m) {
  const uint64x2_t ge = vcgeq_u64(a.v, m.v);
  return {vsubq_u64(a.v, vandq_u64(m.v, ge))};
}
/// Per-lane select by a 0/1 condition: c ? t : f.
inline U64x2 Select01(U64x2 c, U64x2 t, U64x2 f) {
  const uint64x2_t mask = vsubq_u64(vdupq_n_u64(0), c.v);
  return {vbslq_u64(mask, t.v, f.v)};
}

#else  // scalar lowering

inline U64x2 Dup(std::uint64_t x) { return {{x, x}}; }
inline U64x2 Load2(const std::uint64_t* p) { return {{p[0], p[1]}}; }
inline void Store2(std::uint64_t* p, U64x2 a) {
  p[0] = a.v[0];
  p[1] = a.v[1];
}
inline std::uint64_t Lane0(U64x2 a) { return a.v[0]; }
inline std::uint64_t Lane1(U64x2 a) { return a.v[1]; }
inline U64x2 Add(U64x2 a, U64x2 b) { return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}}; }
inline U64x2 Sub(U64x2 a, U64x2 b) { return {{a.v[0] - b.v[0], a.v[1] - b.v[1]}}; }
inline U64x2 And(U64x2 a, U64x2 b) { return {{a.v[0] & b.v[0], a.v[1] & b.v[1]}}; }
inline U64x2 ShiftLeftOne(U64x2 a) { return {{a.v[0] << 1, a.v[1] << 1}}; }
inline U64x2 ShiftRight(U64x2 a, unsigned n) {
  return {{a.v[0] >> n, a.v[1] >> n}};
}
inline U64x2 MulLo32(U64x2 a, U64x2 b) {
  constexpr std::uint64_t kLow32 = 0xffffffffULL;
  return {{(a.v[0] & kLow32) * (b.v[0] & kLow32),
           (a.v[1] & kLow32) * (b.v[1] & kLow32)}};
}
inline U64x2 CondSub(U64x2 a, U64x2 m) {
  return {{a.v[0] >= m.v[0] ? a.v[0] - m.v[0] : a.v[0],
           a.v[1] >= m.v[1] ? a.v[1] - m.v[1] : a.v[1]}};
}
inline U64x2 Select01(U64x2 c, U64x2 t, U64x2 f) {
  return {{c.v[0] != 0 ? t.v[0] : f.v[0], c.v[1] != 0 ? t.v[1] : f.v[1]}};
}

#endif  // RSTLAB_SIMD_NEON

}  // namespace rstlab::simd

#endif  // RSTLAB_UTIL_SIMD_H_
