// Explicit SIMD microkernels for the quantized conv's integer GEMM, with
// runtime CPU-feature dispatch. The quantized conv is an exact integer
// GEMM — acc[r][j] = Σ_k (w[r][k] − zw[r])·a[k][j] with every product
// ≤ 255·255 in magnitude — so any reassociation or vectorization of the
// reduction produces bit-identical accumulators. That is the whole
// contract here: every tier computes the same integers, only faster. The
// GEMM operand a[k][j] is packed straight from the zero-bordered code
// tensor (PlaneTile); no tier builds an im2col column matrix.
//
// Tiers:
//   Scalar  — portable plain-loop reference pack and GEMM; always
//             available. Bit-flip injection runs on every tier too:
//             QuantBackend adds each flip to the finished accumulators as
//             an exact i64 correction, so no kernel sees a flipped product.
//   Sse41   — 128-bit x86: widen u8→i16, interleave k-pairs, pmaddwd.
//   Avx2    — 256-bit x86: same pair-madd scheme on 16-column groups.
//   Neon    — ARM: the scalar reference pack and GEMM, plus a vector
//             quantize on AArch64. No host or CI job of this repo builds
//             for ARM, so this tier is compiled and tested nowhere here.
//
// Dispatch is decided once per process from CPUID (overridable with the
// RAQ_KERNEL_TIER environment variable: scalar|sse41|avx2|neon) and the
// selected kernels are routed through QuantBackend::conv. Kernels with an
// unavailable instruction set are never invoked: x86 variants are built
// with per-function target attributes (not file-level flags), so no
// AVX2/SSE4.1 instruction can leak into always-executed code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

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

/// Row blocking of the packed GEMMs: each call sweeps the column panel
/// once per block of this many weight rows, keeping the accumulators in
/// registers. Callers size their accumulator scratch as a multiple of it.
inline constexpr std::size_t kGemmU8RowBlock = 4;

/// Bytes a code buffer must carry past its last code: the stride-2 packs
/// load whole vectors that may end one byte past the last code they use
/// (the surplus bytes are shuffled away).
inline constexpr std::size_t kCodeSlack = 16;

/// One column tile of a conv's GEMM operand, read in place from the
/// zero-bordered code tensor (every (n, c) input plane stored with its
/// zero padding): the activation code at reduction row k, column j is
/// codes[koff[k] + off[j]]. There is no column matrix. `run` and `step`
/// describe the columns: every aligned block of `run` columns
/// (j % run == 0) reads off[j + i] == off[j] + i·step, i < run. run is 1,
/// 4, 8 or 16; with run 1 the pack gathers column by column.
struct PlaneTile {
    const std::uint8_t* codes = nullptr;  ///< followed by kCodeSlack readable bytes
    const std::uint32_t* koff = nullptr;  ///< [kdim] row offsets
    const std::uint32_t* off = nullptr;   ///< [n] column offsets of this tile
    std::size_t kdim = 0;
    std::size_t n = 0;
    std::size_t run = 1;
    std::size_t step = 1;
};

/// Bytes of a conv's zero-bordered code tensor: n·c·(h+2p)·(w+2p).
[[nodiscard]] std::size_t bordered_code_elems(const tensor::Shape& s, int pad);

/// The conv's code tensor: `qx` itself when pad == 0, else `bordered`
/// (bordered_code_elems(s, pad) + kCodeSlack bytes of caller scratch),
/// filled with each (n, c) plane of qx inside a pad-wide zero border.
/// Every byte of the bordered planes is written, so one scratch serves
/// convs of any geometry with no stale border.
const std::uint8_t* bordered_codes(const std::uint8_t* qx, const tensor::Shape& s, int pad,
                                   std::uint8_t* bordered);

/// The conv's whole GEMM operand over the codes that bordered_codes
/// returned: fills koff[c·kh·kw] (k = (c, ky, kx)) and off[n·oh·ow]
/// (j = (n, oy, ox)) with one pass each, no division, and sets `run` and
/// `step`. Callers slice column tiles from it. Throws std::length_error
/// when the code tensor outgrows 32-bit offsets.
PlaneTile conv_operand(const std::uint8_t* codes, const tensor::Shape& s, int kh, int kw,
                       int stride, int pad, int oh, int ow, std::uint32_t* koff,
                       std::uint32_t* off);

/// The conv's GEMM pipeline, the same on every tier:
///
///   1. `pack` reads a tile's codes straight from the code tensor and
///      widens them into interleaved i16 k-pairs (layout: per group of
///      `col_group` columns, ceil(kdim/2) records of 2·col_group i16, each
///      holding [a_k, a_k+1] per column — the operand order pmaddwd
///      consumes; odd kdim pads the last record's second element with
///      zero, so the GEMM has no k-tail). A last group with fewer than
///      col_group columns is padded with zero columns. AVX2 stores a
///      record's columns in the order 0–3, 8–11, 4–7, 12–15 (its unpack
///      works within 128-bit lanes); its GEMM undoes that at the store.
///   2. `gemm` multiplies i16 weights (see widen_weights_u8, which folds
///      the weight zero-point in) against the panel:
///        acc[r * acc_stride + j] = Σ_k w16[r * w_stride + k] · a[k][j]
///      for r in [0, rows) and j in [0, round_up(n, col_group)); columns
///      past n hold the zero padding's sums. Overwrites `acc`.
///
/// Every tier computes the same exact i32 dot products: |w − zw| ≤ 255, so
/// |acc| ≤ kdim·255², which the plan's acc32_safe bound keeps in i32. The
/// scalar tier (and NEON) run the plain-loop reference pair, col_group 1.
using PackFn = void (*)(const PlaneTile& tile, std::int16_t* packed);
using GemmPackedFn = void (*)(const std::int16_t* w16, std::size_t w_stride,
                              std::size_t rows, const std::int16_t* packed,
                              std::size_t kdim, std::size_t n, std::int32_t* acc,
                              std::size_t acc_stride);
struct PackedKernels {
    PackFn pack = nullptr;
    GemmPackedFn gemm = nullptr;
    std::size_t col_group = 1;  ///< pack/gemm column granularity
};

/// Packed kernel set for a tier; an unavailable tier gets the scalar pair.
[[nodiscard]] PackedKernels packed_kernels(KernelTier tier);

/// The scalar reference GEMM with i64 accumulators, over a panel packed by
/// packed_kernels(KernelTier::Scalar).pack: the wide-accumulator path of
/// every tier, for convs whose kdim·255² passes INT32_MAX.
void gemm_packed_i64(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                     const std::int16_t* packed, std::size_t kdim, std::size_t n,
                     std::int64_t* acc, std::size_t acc_stride);

/// `n` rounded up to a whole number of column groups.
[[nodiscard]] constexpr std::size_t padded_cols(std::size_t n, std::size_t col_group) {
    return (n + col_group - 1) / col_group * col_group;
}

/// i16 elements a packed panel of `n` columns occupies.
[[nodiscard]] constexpr std::size_t packed_panel_elems(std::size_t kdim, std::size_t n,
                                                       std::size_t col_group) {
    return padded_cols(n, col_group) * ((kdim + 1) / 2) * 2;
}

/// Row stride of the widened weight matrix: kdim rounded up to even, so
/// the pair broadcast at the last k never reads past the row.
[[nodiscard]] constexpr std::size_t weight_stride(std::size_t kdim) {
    return kdim + (kdim & 1);
}

/// Widen one u8 weight row to the i16 layout GemmPackedFn consumes, with
/// the row's zero-point folded in: w16[k] = w[k] − zero_point, and a zero
/// pad at k = kdim when kdim is odd. The GEMM then yields
/// Σ_k (w_k − zw)·a_k = acc − zw·colsum directly.
void widen_weights_u8(const std::uint8_t* w, std::size_t kdim, std::int32_t zero_point,
                      std::int16_t* w16);

/// Accumulator statistics an epilogue gathers over the rows it finishes:
/// the largest |corrected| and how many corrected values reach `over_at`
/// in magnitude. The caller scales both to the hardware register.
struct EpilogueStats {
    std::int64_t max_abs = 0;
    std::uint64_t overflows = 0;
    std::int64_t over_at = 1;  ///< smallest |corrected| that overflows
};

/// Conv epilogue over one contiguous output segment:
///   corrected = i64(acc[j]) + qb;  out[j] = float(corrected) · scale
/// and, with `stats`, the max-|corrected| and overflow-count reduction.
/// The vector variants compute `corrected` in f64: acc and qb are i32,
/// so the sum is an exact f64 integer and the f64→f32 conversion is the
/// same single rounding the scalar i64→f32 cast performs; the f32
/// multiply by `scale` matches element for element, and the reduction
/// sees the same exact values. Every tier returns a kernel.
using EpilogueFn = void (*)(const std::int32_t* acc, std::size_t n, std::int32_t qb,
                            float scale, float* out, EpilogueStats* stats);
[[nodiscard]] EpilogueFn epilogue_kernel(KernelTier tier);

/// The epilogue for i64 accumulators (wide convs and rows carrying
/// injected-flip corrections, which may pass the acc32 bound).
void epilogue_i64(const std::int64_t* acc, std::size_t n, std::int32_t qb, float scale,
                  float* out, EpilogueStats* stats);

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
