// Explicit SIMD microkernels for the quantized u8×u8→i32 GEMM, with
// runtime CPU-feature dispatch. The quantized conv is an exact integer
// GEMM over the im2col column layout — acc[r][j] = Σ_k w[r][k]·col[k][j]
// with every product ≤ 255·255 — so any reassociation or vectorization of
// the reduction produces bit-identical accumulators. That is the whole
// contract here: every tier computes the same integers, only faster.
//
// Tiers:
//   Scalar  — portable reference loop; always available. Bit-flip
//             injection runs on every tier too: QuantBackend adds each
//             flip to the finished accumulators as an exact i64
//             correction, so no kernel sees a flipped product.
//   Sse41   — 128-bit x86: widen u8→i16, interleave k-pairs, pmaddwd.
//   Avx2    — 256-bit x86: same pair-madd scheme on 16-column tiles.
//   Neon    — 64/128-bit ARM: vmovl_u8 + vmlal_u16 widening multiply-add.
//
// Dispatch is decided once per process from CPUID (overridable with the
// RAQ_KERNEL_TIER environment variable: scalar|sse41|avx2|neon) and the
// selected kernel is routed through QuantBackend::conv. Kernels with an
// unavailable instruction set are never invoked: x86 variants are built
// with per-function target attributes (not file-level flags), so no
// AVX2/SSE4.1 instruction can leak into always-executed code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace raq::exec::kernels_simd {

enum class KernelTier : int {
    Scalar = 0,
    Sse41 = 1,
    Avx2 = 2,
    Neon = 3,
};

/// Stable lower-case name ("scalar", "sse41", "avx2", "neon").
[[nodiscard]] const char* tier_name(KernelTier tier);

/// Tiers usable on this machine, ascending preference (Scalar first).
[[nodiscard]] const std::vector<KernelTier>& available_tiers();

/// The tier selected for this process: the best available one, unless
/// RAQ_KERNEL_TIER names an available tier. Decided once, then cached.
[[nodiscard]] KernelTier active_tier();

/// Row blocking of every kernel: each call sweeps the column tile once
/// per block of this many weight rows, keeping the accumulators in
/// registers. Callers size their accumulator scratch as a multiple of it.
inline constexpr std::size_t kGemmU8RowBlock = 4;

/// u8×u8→i32 GEMM microkernel:
///   acc[r * acc_stride + j] = Σ_k w[r * w_stride + k] · cols[k * col_stride + j]
/// for r in [0, rows), j in [0, n). Overwrites `acc` (no accumulate-into).
/// Requires kdim · 255² ≤ INT32_MAX (the plan's acc32_safe bound); wider
/// convolutions stay on the int64 scalar path in QuantBackend.
using GemmU8Fn = void (*)(const std::uint8_t* w, std::size_t w_stride, std::size_t rows,
                          const std::uint8_t* cols, std::size_t col_stride,
                          std::size_t kdim, std::size_t n, std::int32_t* acc,
                          std::size_t acc_stride);

/// Kernel for a tier. Every available tier returns a non-null function;
/// asking for an unavailable tier returns the scalar kernel.
[[nodiscard]] GemmU8Fn gemm_u8_kernel(KernelTier tier);

/// Packed fast path (x86 tiers): the unpacked kernels above re-widen and
/// re-interleave every column tile once per row block, which is the
/// dominant cost for shallow convolutions. The packed pipeline lifts that
/// prep out of the row loop entirely:
///
///   1. `pack` widens a column tile once into interleaved i16 k-pairs
///      (layout: per group of `col_group` columns, ceil(kdim/2) records of
///      2·col_group i16, each holding [a_k, a_k+1] per column — the exact
///      operand order pmaddwd consumes; odd kdim pads the last record's
///      second element with zero, so the GEMM never needs a k-tail).
///   2. `gemm` multiplies pre-widened i16 weights (see widen_weights_u8)
///      against the packed panel; the weight-pair broadcast becomes a pure
///      memory vpbroadcastd and the inner loop is nothing but madd/add.
///
/// Both stages compute the same exact i32 dot products as every other
/// tier. `gemm` only covers full column groups — callers run the scalar
/// reference on the (< col_group)-column tail of the raw tile.
using PackColsFn = void (*)(const std::uint8_t* cols, std::size_t col_stride,
                            std::size_t kdim, std::size_t n, std::int16_t* packed);
using GemmPackedFn = void (*)(const std::int16_t* w16, std::size_t w_stride,
                              std::size_t rows, const std::int16_t* packed,
                              std::size_t kdim, std::size_t n, std::int32_t* acc,
                              std::size_t acc_stride);
struct PackedKernels {
    PackColsFn pack = nullptr;
    GemmPackedFn gemm = nullptr;
    std::size_t col_group = 0;  ///< pack/gemm column granularity (0 ⇔ no packed path)
};

/// Packed kernel set for a tier; all-null/zero for tiers without one
/// (scalar and NEON keep the plain kernels).
[[nodiscard]] PackedKernels packed_kernels(KernelTier tier);

/// i16 elements a packed panel occupies for `n` columns (full groups
/// only; callers pass n rounded down to a multiple of col_group).
[[nodiscard]] constexpr std::size_t packed_panel_elems(std::size_t kdim, std::size_t n,
                                                       std::size_t col_group) {
    return col_group == 0 ? 0 : (n / col_group) * ((kdim + 1) / 2) * 2 * col_group;
}

/// Widen a u8 weight matrix to the i16 layout GemmPackedFn consumes: row
/// stride kdim rounded up to even, odd-kdim rows padded with a zero so
/// the pair broadcast at the last k never reads past the row.
void widen_weights_u8(const std::uint8_t* w, std::size_t rows, std::size_t kdim,
                      std::int16_t* w16);

/// Conv epilogue over one contiguous output segment:
///   out[j] = float(i64(acc[j]) − i64(zw)·colsum[j] + qb) · scale
/// The vector variants compute `corrected` in f64 — every operand is an
/// integer of magnitude < 2^52, so each f64 step is exact and the final
/// f64→f32 conversion is the same single rounding the scalar i64→f32 cast
/// performs; the f32 multiply by `scale` matches element for element.
/// Callers must keep the scalar loop when |qb| + 2^33 could reach 2^52
/// (never true for real quantized biases, but guarded anyway), with stats
/// attached, and for rows carrying injected-flip corrections (their i64
/// accumulators may pass the acc32 bound). Null for tiers without an
/// implementation.
using EpilogueFn = void (*)(const std::int32_t* acc, const std::int32_t* colsum,
                            std::size_t n, std::int32_t zw, std::int64_t qb, float scale,
                            float* out);
[[nodiscard]] EpilogueFn epilogue_kernel(KernelTier tier);

/// Column-sum reduction over the im2col matrix: colsum[j] = Σ_k cols[k][j]
/// (exact integer adds — any tier is bit-identical). Null ⇒ scalar loop.
using ColSumFn = void (*)(const std::uint8_t* cols, std::size_t kdim, std::size_t n,
                          std::int32_t* colsum);
[[nodiscard]] ColSumFn colsum_kernel(KernelTier tier);

/// Activation quantization: out[i] = u8(clamp(nearbyint(in[i] / scale) +
/// zero_point, 0, qmax)) & mask — the exact arithmetic of
/// quant::QuantParams::quantize plus the LSB-truncation mask. The vector
/// variants use the hardware round-with-current-mode instruction
/// (roundps / frinti), which equals nearbyint element for element under
/// the default FP environment, and the IEEE division is exact either way
/// — so every tier produces identical codes. Returns null for tiers with
/// no vector round (scalar, 32-bit ARM); callers keep their scalar loop.
using QuantizeU8Fn = void (*)(const float* in, std::size_t n, float scale,
                              std::int32_t zero_point, std::int32_t qmax,
                              std::uint8_t mask, std::uint8_t* out);
[[nodiscard]] QuantizeU8Fn quantize_u8_kernel(KernelTier tier);

}  // namespace raq::exec::kernels_simd
