#include "exec/kernels_simd.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define RAQ_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#define RAQ_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace raq::exec::kernels_simd {

namespace {

/// Reference pack (col_group 1): column j's record is its kdim codes in
/// k order, then a zero when kdim is odd.
void pack_plane_scalar(const PlaneTile& t, std::int16_t* packed) {
    const std::size_t stride = weight_stride(t.kdim);
    for (std::size_t j = 0; j < t.n; ++j, packed += stride) {
        const std::uint8_t* col = t.codes + t.off[j];
        for (std::size_t k = 0; k < t.kdim; ++k) packed[k] = col[t.koff[k]];
        if (t.kdim & 1) packed[t.kdim] = 0;
    }
}

/// Reference GEMM over the scalar pack's panel, in AccT accumulators.
template <typename AccT>
void gemm_packed_scalar(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                        const std::int16_t* packed, std::size_t kdim, std::size_t n,
                        AccT* acc, std::size_t acc_stride) {
    const std::size_t kp2 = weight_stride(kdim);
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int16_t* wrow = w16 + r * w_stride;
        for (std::size_t j = 0; j < n; ++j) {
            const std::int16_t* col = packed + j * kp2;
            AccT sum = 0;
            for (std::size_t k = 0; k < kp2; ++k)
                sum += static_cast<AccT>(wrow[k]) * static_cast<AccT>(col[k]);
            acc[r * acc_stride + j] = sum;
        }
    }
}

void gemm_packed_i32_scalar(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                            const std::int16_t* packed, std::size_t kdim, std::size_t n,
                            std::int32_t* acc, std::size_t acc_stride) {
    gemm_packed_scalar(w16, w_stride, rows, packed, kdim, n, acc, acc_stride);
}

/// Reference epilogue (see EpilogueFn): exact i64 arithmetic.
template <typename AccT>
void epilogue_scalar(const AccT* acc, std::size_t n, std::int32_t qb, float scale,
                     float* out, EpilogueStats* stats) {
    for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t corrected = static_cast<std::int64_t>(acc[j]) + qb;
        if (stats != nullptr) {
            const std::int64_t mag = corrected < 0 ? -corrected : corrected;
            stats->max_abs = std::max(stats->max_abs, mag);
            if (mag >= stats->over_at) ++stats->overflows;
        }
        out[j] = static_cast<float>(corrected) * scale;
    }
}

void epilogue_i32_scalar(const std::int32_t* acc, std::size_t n, std::int32_t qb, float scale,
                         float* out, EpilogueStats* stats) {
    epilogue_scalar(acc, n, qb, scale, out, stats);
}

/// Scalar remainder of the vector quantize loops: the same expression as
/// quant::QuantParams::quantize, with the activation mask applied.
[[maybe_unused]] void quantize_u8_tail(const float* in, std::size_t begin, std::size_t n, float scale,
                      std::int32_t zero_point, std::int32_t qmax, std::uint8_t mask,
                      std::uint8_t* out) {
    for (std::size_t i = begin; i < n; ++i) {
        const float q = std::nearbyint(in[i] / scale) + static_cast<float>(zero_point);
        const float clamped = std::min(std::max(q, 0.0f), static_cast<float>(qmax));
        out[i] = static_cast<std::uint8_t>(static_cast<std::int32_t>(clamped)) & mask;
    }
}

#if RAQ_SIMD_X86

/// Weight k-pair broadcast for pmaddwd: the i16 pair [w_k, w_k+1] as one
/// i32 lane value. Max |pair sum| 2·255·255 = 130050 — far inside i32.
inline int weight_pair(const std::int16_t* w) {
    int pair = 0;
    std::memcpy(&pair, w, sizeof pair);
    return pair;
}

inline int load_u32(const std::uint8_t* p) {
    int v = 0;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/// The 4 even bytes of an 8-byte load: one stride-2 run of 4 columns.
__attribute__((target("sse4.1"), always_inline)) inline __m128i even_run4(
    const std::uint8_t* p, __m128i even) {
    return _mm_shuffle_epi8(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)), even);
}

/// The codes of one column group at reduction row offset `ko`, as bytes
/// 0..kG−1 of a vector. The group is kG / kRun runs; run r starts at
/// base[r] and steps kStep bytes per column (kRun == 1: a gather).
/// kStep 2 loads cover twice the run and keep the even bytes.
template <int kG, int kRun, int kStep>
__attribute__((target("sse4.1"), always_inline)) inline __m128i load_group(
    const std::uint8_t* const* base, std::uint32_t ko) {
    static_assert(kG == 8 || kG == 16, "column group of 8 or 16");
    if constexpr (kRun == 1) {
        alignas(16) std::uint8_t bytes[16] = {};
        for (int c = 0; c < kG; ++c) bytes[c] = base[c][ko];
        return _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
    } else if constexpr (kStep == 1) {
        if constexpr (kRun == kG && kG == 16)
            return _mm_loadu_si128(reinterpret_cast<const __m128i*>(base[0] + ko));
        else if constexpr (kRun == 8 && kG == 8)
            return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base[0] + ko));
        else if constexpr (kRun == 8)
            return _mm_unpacklo_epi64(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base[0] + ko)),
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(base[1] + ko)));
        else if constexpr (kG == 8)  // kRun == 4
            return _mm_setr_epi32(load_u32(base[0] + ko), load_u32(base[1] + ko), 0, 0);
        else
            return _mm_setr_epi32(load_u32(base[0] + ko), load_u32(base[1] + ko),
                                  load_u32(base[2] + ko), load_u32(base[3] + ko));
    } else {
        static_assert(kStep == 2, "strided loads are stride 2");
        // Even bytes into the low half; the high half is zeroed.
        const __m128i even = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1,
                                           -1, -1);
        if constexpr (kRun == 8) {
            const __m128i r0 = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(base[0] + ko)), even);
            if constexpr (kG == 8) {
                return r0;
            } else {
                const __m128i r1 = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(base[1] + ko)), even);
                return _mm_unpacklo_epi64(r0, r1);
            }
        } else {  // kRun == 4: 8-byte loads, 4 even bytes each
            const __m128i r01 =
                _mm_unpacklo_epi32(even_run4(base[0] + ko, even), even_run4(base[1] + ko, even));
            if constexpr (kG == 8)
                return r01;
            else
                return _mm_unpacklo_epi64(r01, _mm_unpacklo_epi32(even_run4(base[2] + ko, even),
                                                                  even_run4(base[3] + ko, even)));
        }
    }
}

/// Run starts of one full column group; a partial last group gathers.
template <int kG, int kRun>
inline void group_bases(const PlaneTile& t, std::size_t j, const std::uint8_t** base) {
    for (int r = 0; r < kG / kRun; ++r)
        base[r] = t.codes + t.off[j + static_cast<std::size_t>(r * kRun)];
}

/// Gathers the partial last group: bytes past the tile's end read zero.
__attribute__((target("sse4.1"))) __m128i load_partial(const PlaneTile& t, std::size_t j,
                                                        std::uint32_t ko) {
    alignas(16) std::uint8_t bytes[16] = {};
    for (std::size_t c = 0; j + c < t.n; ++c) bytes[c] = t.codes[t.off[j + c] + ko];
    return _mm_load_si128(reinterpret_cast<const __m128i*>(bytes));
}

/// SSE4.1 group pack: 8 columns, widened and k-pair interleaved.
__attribute__((target("sse4.1"), always_inline)) inline void store_pair_sse41(
    __m128i row0, __m128i row1, std::int16_t* dst) {
    const __m128i a0 = _mm_cvtepu8_epi16(row0);
    const __m128i a1 = _mm_cvtepu8_epi16(row1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), _mm_unpacklo_epi16(a0, a1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 8), _mm_unpackhi_epi16(a0, a1));
}

/// AVX2 group pack: 16 columns. The 256-bit unpack interleaves within
/// 128-bit lanes, so each record carries columns {0..3, 8..11} then
/// {4..7, 12..15}; the GEMM un-permutes once at its store.
__attribute__((target("avx2"), always_inline)) inline void store_pair_avx2(
    __m128i row0, __m128i row1, std::int16_t* dst) {
    const __m256i a0 = _mm256_cvtepu8_epi16(row0);
    const __m256i a1 = _mm256_cvtepu8_epi16(row1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), _mm256_unpacklo_epi16(a0, a1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16), _mm256_unpackhi_epi16(a0, a1));
}

/// Packs every full column group with the shaped loads, then the partial
/// last group with the gather (columns past the tile's end read zero).
template <int kRun, int kStep>
__attribute__((target("sse4.1"))) void pack_plane_sse41_impl(const PlaneTile& t,
                                                              std::int16_t* packed) {
    constexpr int kG = 8;
    const std::size_t kdim = t.kdim;
    std::size_t j = 0;
    for (; j + kG <= t.n; j += kG) {
        const std::uint8_t* base[kG];
        group_bases<kG, kRun>(t, j, base);
        std::size_t k = 0;
        for (; k + 2 <= kdim; k += 2, packed += 2 * kG)
            store_pair_sse41(load_group<kG, kRun, kStep>(base, t.koff[k]),
                             load_group<kG, kRun, kStep>(base, t.koff[k + 1]), packed);
        if (k < kdim) {  // odd kdim: the pair's second element is zero
            store_pair_sse41(load_group<kG, kRun, kStep>(base, t.koff[k]),
                             _mm_setzero_si128(), packed);
            packed += 2 * kG;
        }
    }
    if (j == t.n) return;
    std::size_t k = 0;  // the partial last group
    for (; k + 2 <= kdim; k += 2, packed += 2 * kG)
        store_pair_sse41(load_partial(t, j, t.koff[k]), load_partial(t, j, t.koff[k + 1]),
                         packed);
    if (k < kdim) store_pair_sse41(load_partial(t, j, t.koff[k]), _mm_setzero_si128(), packed);
}

template <int kRun, int kStep>
__attribute__((target("avx2"))) void pack_plane_avx2_impl(const PlaneTile& t,
                                                            std::int16_t* packed) {
    constexpr int kG = 16;
    const std::size_t kdim = t.kdim;
    std::size_t j = 0;
    for (; j + kG <= t.n; j += kG) {
        const std::uint8_t* base[kG];
        group_bases<kG, kRun>(t, j, base);
        std::size_t k = 0;
        for (; k + 2 <= kdim; k += 2, packed += 2 * kG)
            store_pair_avx2(load_group<kG, kRun, kStep>(base, t.koff[k]),
                            load_group<kG, kRun, kStep>(base, t.koff[k + 1]), packed);
        if (k < kdim) {  // odd kdim: the pair's second element is zero
            store_pair_avx2(load_group<kG, kRun, kStep>(base, t.koff[k]),
                            _mm_setzero_si128(), packed);
            packed += 2 * kG;
        }
    }
    if (j == t.n) return;
    std::size_t k = 0;  // the partial last group
    for (; k + 2 <= kdim; k += 2, packed += 2 * kG)
        store_pair_avx2(load_partial(t, j, t.koff[k]), load_partial(t, j, t.koff[k + 1]),
                        packed);
    if (k < kdim) store_pair_avx2(load_partial(t, j, t.koff[k]), _mm_setzero_si128(), packed);
}

/// Picks the load shape: contiguous runs of 16/8/4 (16 only for 16-column
/// groups), stride-2 runs of 8/4 (a longer run splits into aligned runs
/// of 8), else the gather.
template <int kG, template <int, int> class Impl>
void pack_dispatch(const PlaneTile& t, std::int16_t* packed) {
    const std::size_t run = std::min<std::size_t>(t.run, kG);
    if (t.step == 1) {
        if constexpr (kG == 16)
            if (run == 16) return Impl<16, 1>::call(t, packed);
        if (run >= 8) return Impl<8, 1>::call(t, packed);
        if (run == 4) return Impl<4, 1>::call(t, packed);
    } else if (t.step == 2) {
        if (run >= 8) return Impl<8, 2>::call(t, packed);
        if (run == 4) return Impl<4, 2>::call(t, packed);
    }
    Impl<1, 1>::call(t, packed);
}

template <int kRun, int kStep>
struct PackSse41 {
    static void call(const PlaneTile& t, std::int16_t* p) { pack_plane_sse41_impl<kRun, kStep>(t, p); }
};
template <int kRun, int kStep>
struct PackAvx2 {
    static void call(const PlaneTile& t, std::int16_t* p) { pack_plane_avx2_impl<kRun, kStep>(t, p); }
};

void pack_plane_sse41(const PlaneTile& t, std::int16_t* packed) {
    pack_dispatch<8, PackSse41>(t, packed);
}

void pack_plane_avx2(const PlaneTile& t, std::int16_t* packed) {
    pack_dispatch<16, PackAvx2>(t, packed);
}

/// One row block of the packed GEMM: kRows weight rows against every
/// column group. kRows is a compile-time constant so the accumulators
/// stay in registers.
template <int kRows>
__attribute__((target("sse4.1"))) void gemm_rows_sse41(const std::int16_t* w16,
                                                        std::size_t w_stride,
                                                        const std::int16_t* packed,
                                                        std::size_t kp, std::size_t groups,
                                                        std::int32_t* acc,
                                                        std::size_t acc_stride) {
    for (std::size_t g = 0; g < groups; ++g) {
        const std::int16_t* src = packed + g * kp * 16;
        __m128i acc_lo[kRows];  // columns j+0..3
        __m128i acc_hi[kRows];  // columns j+4..7
        for (int r = 0; r < kRows; ++r) {
            acc_lo[r] = _mm_setzero_si128();
            acc_hi[r] = _mm_setzero_si128();
        }
        for (std::size_t p = 0; p < kp; ++p, src += 16) {
            const __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
            const __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 8));
            for (int r = 0; r < kRows; ++r) {
                const __m128i wp = _mm_set1_epi32(
                    weight_pair(w16 + static_cast<std::size_t>(r) * w_stride + 2 * p));
                acc_lo[r] = _mm_add_epi32(acc_lo[r], _mm_madd_epi16(lo, wp));
                acc_hi[r] = _mm_add_epi32(acc_hi[r], _mm_madd_epi16(hi, wp));
            }
        }
        for (int r = 0; r < kRows; ++r) {
            std::int32_t* out = acc + static_cast<std::size_t>(r) * acc_stride + g * 8;
            _mm_storeu_si128(reinterpret_cast<__m128i*>(out), acc_lo[r]);
            _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4), acc_hi[r]);
        }
    }
}

template <int kRows>
__attribute__((target("avx2"))) void gemm_rows_avx2(const std::int16_t* w16,
                                                      std::size_t w_stride,
                                                      const std::int16_t* packed,
                                                      std::size_t kp, std::size_t groups,
                                                      std::int32_t* acc,
                                                      std::size_t acc_stride) {
    for (std::size_t g = 0; g < groups; ++g) {
        const std::int16_t* src = packed + g * kp * 32;
        __m256i acc_lo[kRows];
        __m256i acc_hi[kRows];
        for (int r = 0; r < kRows; ++r) {
            acc_lo[r] = _mm256_setzero_si256();
            acc_hi[r] = _mm256_setzero_si256();
        }
        for (std::size_t p = 0; p < kp; ++p, src += 32) {
            const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
            const __m256i hi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 16));
            for (int r = 0; r < kRows; ++r) {
                const __m256i wp = _mm256_set1_epi32(
                    weight_pair(w16 + static_cast<std::size_t>(r) * w_stride + 2 * p));
                acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(lo, wp));
                acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(hi, wp));
            }
        }
        for (int r = 0; r < kRows; ++r) {
            std::int32_t* out = acc + static_cast<std::size_t>(r) * acc_stride + g * 16;
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                                _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                                _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
        }
    }
}

/// The packed GEMM of a tier: full blocks of kGemmU8RowBlock rows, then
/// the 1–3 remaining rows, each block one compile-time row count.
template <std::size_t kG, void (*const... kBlocks)(const std::int16_t*, std::size_t,
                                                    const std::int16_t*, std::size_t,
                                                    std::size_t, std::int32_t*, std::size_t)>
void gemm_packed_rows(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                      const std::int16_t* packed, std::size_t kdim, std::size_t n,
                      std::int32_t* acc, std::size_t acc_stride) {
    static_assert(sizeof...(kBlocks) == kGemmU8RowBlock, "one block per row count");
    constexpr void (*blocks[])(const std::int16_t*, std::size_t, const std::int16_t*,
                               std::size_t, std::size_t, std::int32_t*,
                               std::size_t) = {kBlocks...};
    const std::size_t groups = (n + kG - 1) / kG;
    const std::size_t kp = (kdim + 1) / 2;
    for (std::size_t r0 = 0; r0 < rows; r0 += kGemmU8RowBlock) {
        const std::size_t mr = std::min(kGemmU8RowBlock, rows - r0);
        blocks[mr - 1](w16 + r0 * w_stride, w_stride, packed, kp, groups,
                       acc + r0 * acc_stride, acc_stride);
    }
}

void gemm_packed_sse41(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                       const std::int16_t* packed, std::size_t kdim, std::size_t n,
                       std::int32_t* acc, std::size_t acc_stride) {
    gemm_packed_rows<8, gemm_rows_sse41<1>, gemm_rows_sse41<2>, gemm_rows_sse41<3>,
                     gemm_rows_sse41<4>>(w16, w_stride, rows, packed, kdim, n, acc,
                                         acc_stride);
}

void gemm_packed_avx2(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                      const std::int16_t* packed, std::size_t kdim, std::size_t n,
                      std::int32_t* acc, std::size_t acc_stride) {
    gemm_packed_rows<16, gemm_rows_avx2<1>, gemm_rows_avx2<2>, gemm_rows_avx2<3>,
                     gemm_rows_avx2<4>>(w16, w_stride, rows, packed, kdim, n, acc,
                                        acc_stride);
}

/// f64 epilogue (see EpilogueFn): acc + qb is an exact f64 integer, so
/// cvtpd→ps is the one rounding the scalar i64→f32 cast performs, and
/// |corrected| (sign bit cleared) is exact for the reduction.
template <bool kStats>
__attribute__((target("sse4.1"))) void epilogue_sse41_impl(const std::int32_t* acc,
                                                           std::size_t n, std::int32_t qb,
                                                           float scale, float* out,
                                                           EpilogueStats* stats) {
    const __m128d vqb = _mm_set1_pd(static_cast<double>(qb));
    const __m128 vscale = _mm_set1_ps(scale);
    const __m128d sign = _mm_set1_pd(-0.0);
    const __m128d vover = _mm_set1_pd(kStats ? static_cast<double>(stats->over_at) : 0.0);
    __m128d vmax = _mm_setzero_pd();
    std::uint64_t over = 0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m128i ai = _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + j));
        const __m128d r01 = _mm_add_pd(_mm_cvtepi32_pd(ai), vqb);
        const __m128d r23 = _mm_add_pd(_mm_cvtepi32_pd(_mm_srli_si128(ai, 8)), vqb);
        const __m128 f = _mm_movelh_ps(_mm_cvtpd_ps(r01), _mm_cvtpd_ps(r23));
        _mm_storeu_ps(out + j, _mm_mul_ps(f, vscale));
        if constexpr (kStats) {
            const __m128d m01 = _mm_andnot_pd(sign, r01);
            const __m128d m23 = _mm_andnot_pd(sign, r23);
            vmax = _mm_max_pd(vmax, _mm_max_pd(m01, m23));
            const int hits = _mm_movemask_pd(_mm_cmpge_pd(m01, vover)) |
                             _mm_movemask_pd(_mm_cmpge_pd(m23, vover)) << 2;
            over += static_cast<std::uint64_t>(__builtin_popcount(static_cast<unsigned>(hits)));
        }
    }
    if constexpr (kStats) {
        alignas(16) double lanes[2];
        _mm_store_pd(lanes, vmax);
        stats->max_abs =
            std::max(stats->max_abs, static_cast<std::int64_t>(std::max(lanes[0], lanes[1])));
        stats->overflows += over;
    }
    epilogue_scalar(acc + j, n - j, qb, scale, out + j, stats);
}

__attribute__((target("sse4.1"))) void epilogue_sse41(const std::int32_t* acc, std::size_t n,
                                                      std::int32_t qb, float scale, float* out,
                                                      EpilogueStats* stats) {
    if (stats != nullptr)
        epilogue_sse41_impl<true>(acc, n, qb, scale, out, stats);
    else
        epilogue_sse41_impl<false>(acc, n, qb, scale, out, stats);
}

template <bool kStats>
__attribute__((target("avx2"))) void epilogue_avx2_impl(const std::int32_t* acc,
                                                          std::size_t n, std::int32_t qb,
                                                          float scale, float* out,
                                                          EpilogueStats* stats) {
    const __m256d vqb = _mm256_set1_pd(static_cast<double>(qb));
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d vover =
        _mm256_set1_pd(kStats ? static_cast<double>(stats->over_at) : 0.0);
    __m256d vmax = _mm256_setzero_pd();
    std::uint64_t over = 0;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256d r_lo = _mm256_add_pd(
            _mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + j))),
            vqb);
        const __m256d r_hi = _mm256_add_pd(
            _mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + j + 4))),
            vqb);
        const __m256 f = _mm256_set_m128(_mm256_cvtpd_ps(r_hi), _mm256_cvtpd_ps(r_lo));
        _mm256_storeu_ps(out + j, _mm256_mul_ps(f, vscale));
        if constexpr (kStats) {
            const __m256d m_lo = _mm256_andnot_pd(sign, r_lo);
            const __m256d m_hi = _mm256_andnot_pd(sign, r_hi);
            vmax = _mm256_max_pd(vmax, _mm256_max_pd(m_lo, m_hi));
            const int hits = _mm256_movemask_pd(_mm256_cmp_pd(m_lo, vover, _CMP_GE_OQ)) |
                             _mm256_movemask_pd(_mm256_cmp_pd(m_hi, vover, _CMP_GE_OQ)) << 4;
            over += static_cast<std::uint64_t>(__builtin_popcount(static_cast<unsigned>(hits)));
        }
    }
    if constexpr (kStats) {
        alignas(32) double lanes[4];
        _mm256_store_pd(lanes, vmax);
        const double top = *std::max_element(lanes, lanes + 4);
        stats->max_abs = std::max(stats->max_abs, static_cast<std::int64_t>(top));
        stats->overflows += over;
    }
    epilogue_scalar(acc + j, n - j, qb, scale, out + j, stats);
}

__attribute__((target("avx2"))) void epilogue_avx2(const std::int32_t* acc, std::size_t n,
                                                   std::int32_t qb, float scale, float* out,
                                                   EpilogueStats* stats) {
    if (stats != nullptr)
        epilogue_avx2_impl<true>(acc, n, qb, scale, out, stats);
    else
        epilogue_avx2_impl<false>(acc, n, qb, scale, out, stats);
}

/// One 4-float quantize step (lambdas cannot carry target attributes, so
/// these helpers are standalone and force-inlined into their callers).
__attribute__((target("sse4.1"), always_inline)) inline __m128i quant4_sse41(
    const float* in, __m128 vscale, __m128 vzp, __m128 vzero, __m128 vqmax) {
    __m128 q = _mm_div_ps(_mm_loadu_ps(in), vscale);
    q = _mm_round_ps(q, _MM_FROUND_CUR_DIRECTION);  // == nearbyint
    q = _mm_min_ps(_mm_max_ps(_mm_add_ps(q, vzp), vzero), vqmax);
    return _mm_cvtps_epi32(q);  // integral-valued: conversion is exact
}

__attribute__((target("sse4.1"))) void quantize_u8_sse41(
    const float* in, std::size_t n, float scale, std::int32_t zero_point,
    std::int32_t qmax, std::uint8_t mask, std::uint8_t* out) {
    const __m128 vscale = _mm_set1_ps(scale);
    const __m128 vzp = _mm_set1_ps(static_cast<float>(zero_point));
    const __m128 vzero = _mm_setzero_ps();
    const __m128 vqmax = _mm_set1_ps(static_cast<float>(qmax));
    const __m128i vmask = _mm_set1_epi8(static_cast<char>(mask));
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i p01 = _mm_packus_epi32(quant4_sse41(in + i, vscale, vzp, vzero, vqmax),
                                             quant4_sse41(in + i + 4, vscale, vzp, vzero, vqmax));
        const __m128i p23 = _mm_packus_epi32(quant4_sse41(in + i + 8, vscale, vzp, vzero, vqmax),
                                             quant4_sse41(in + i + 12, vscale, vzp, vzero, vqmax));
        const __m128i bytes = _mm_and_si128(_mm_packus_epi16(p01, p23), vmask);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), bytes);
    }
    quantize_u8_tail(in, i, n, scale, zero_point, qmax, mask, out);
}

__attribute__((target("avx2"), always_inline)) inline __m256i quant8_avx2(
    const float* in, __m256 vscale, __m256 vzp, __m256 vzero, __m256 vqmax) {
    __m256 q = _mm256_div_ps(_mm256_loadu_ps(in), vscale);
    q = _mm256_round_ps(q, _MM_FROUND_CUR_DIRECTION);  // == nearbyint
    q = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(q, vzp), vzero), vqmax);
    return _mm256_cvtps_epi32(q);  // integral-valued: conversion is exact
}

__attribute__((target("avx2"))) void quantize_u8_avx2(
    const float* in, std::size_t n, float scale, std::int32_t zero_point,
    std::int32_t qmax, std::uint8_t mask, std::uint8_t* out) {
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vzp = _mm256_set1_ps(static_cast<float>(zero_point));
    const __m256 vzero = _mm256_setzero_ps();
    const __m256 vqmax = _mm256_set1_ps(static_cast<float>(qmax));
    const __m256i vmask = _mm256_set1_epi8(static_cast<char>(mask));
    // packus interleaves 128-bit lanes; this permutation restores byte
    // order after the two packing steps.
    const __m256i unshuffle = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i p01 = _mm256_packus_epi32(quant8_avx2(in + i, vscale, vzp, vzero, vqmax),
                                                quant8_avx2(in + i + 8, vscale, vzp, vzero, vqmax));
        const __m256i p23 = _mm256_packus_epi32(quant8_avx2(in + i + 16, vscale, vzp, vzero, vqmax),
                                                quant8_avx2(in + i + 24, vscale, vzp, vzero, vqmax));
        const __m256i packed = _mm256_packus_epi16(p01, p23);
        const __m256i bytes =
            _mm256_and_si256(_mm256_permutevar8x32_epi32(packed, unshuffle), vmask);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), bytes);
    }
    quantize_u8_tail(in, i, n, scale, zero_point, qmax, mask, out);
}

#endif  // RAQ_SIMD_X86

#if defined(__aarch64__)

void quantize_u8_neon(const float* in, std::size_t n, float scale,
                      std::int32_t zero_point, std::int32_t qmax, std::uint8_t mask,
                      std::uint8_t* out) {
    const float32x4_t vscale = vdupq_n_f32(scale);
    const float32x4_t vzp = vdupq_n_f32(static_cast<float>(zero_point));
    const float32x4_t vzero = vdupq_n_f32(0.0f);
    const float32x4_t vqmax = vdupq_n_f32(static_cast<float>(qmax));
    const uint8x8_t vmask = vdup_n_u8(mask);
    const auto quant4 = [&](std::size_t i) {
        float32x4_t q = vrndiq_f32(vdivq_f32(vld1q_f32(in + i), vscale));  // frinti == nearbyint
        q = vminq_f32(vmaxq_f32(vaddq_f32(q, vzp), vzero), vqmax);
        return vreinterpretq_u32_s32(vcvtq_s32_f32(q));  // integral-valued: exact
    };
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const uint16x4_t lo = vmovn_u32(quant4(i));
        const uint16x4_t hi = vmovn_u32(quant4(i + 4));
        const uint8x8_t bytes = vand_u8(vmovn_u16(vcombine_u16(lo, hi)), vmask);
        vst1_u8(out + i, bytes);
    }
    quantize_u8_tail(in, i, n, scale, zero_point, qmax, mask, out);
}

#endif  // __aarch64__

/// Copies `planes` planes of h×w codes into (h+2p)×(w+2p) planes with a
/// zero border, writing every byte once. kW / kP > 0 pin the width / pad
/// at compile time, so each row is a fixed-size copy plus a fixed-size
/// zero store instead of two library calls.
template <int kW, int kP>
void border_planes(const std::uint8_t* qx, std::size_t planes, std::size_t h,
                   std::size_t width, std::size_t pad, std::uint8_t* dst) {
    const std::size_t w = kW > 0 ? static_cast<std::size_t>(kW) : width;
    const std::size_t p = kP > 0 ? static_cast<std::size_t>(kP) : pad;
    const std::size_t pw = w + 2 * p;
    for (std::size_t plane = 0; plane < planes; ++plane) {
        std::memset(dst, 0, p * pw + p);  // top border, first row's left
        dst += p * pw + p;
        for (std::size_t y = 0; y < h; ++y, qx += w, dst += pw) {
            std::memcpy(dst, qx, w);
            std::memset(dst + w, 0, 2 * p);  // right border, next row's left
        }
        std::memset(dst, 0, p * pw - p);  // rest of the bottom border
        dst += p * pw - p;
    }
}

using BorderFn = void (*)(const std::uint8_t*, std::size_t, std::size_t, std::size_t,
                          std::size_t, std::uint8_t*);

/// The pad-1 widths the mini networks run (16, 8, 4) are compile-time
/// instantiations; every other geometry takes the generic one.
BorderFn border_kernel(int w, int pad) {
    if (pad == 1) {
        if (w == 16) return border_planes<16, 1>;
        if (w == 8) return border_planes<8, 1>;
        if (w == 4) return border_planes<4, 1>;
    }
    return border_planes<0, 0>;
}

std::vector<KernelTier> detect_tiers() {
    std::vector<KernelTier> tiers{KernelTier::Scalar};
#if RAQ_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("sse4.1")) tiers.push_back(KernelTier::Sse41);
    if (__builtin_cpu_supports("avx2")) tiers.push_back(KernelTier::Avx2);
#endif
#if RAQ_SIMD_NEON
    tiers.push_back(KernelTier::Neon);
#endif
    return tiers;
}

KernelTier select_tier() {
    const std::vector<KernelTier>& tiers = available_tiers();
    if (const char* env = std::getenv("RAQ_KERNEL_TIER")) {
        std::string want(env);
        std::transform(want.begin(), want.end(), want.begin(),
                       [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
        for (const KernelTier t : tiers)
            if (want == tier_name(t)) return t;
        // Unknown or unavailable name: fall through to the detected best.
    }
    return tiers.back();
}

bool available(KernelTier tier) {
    const std::vector<KernelTier>& tiers = available_tiers();
    return std::find(tiers.begin(), tiers.end(), tier) != tiers.end();
}

}  // namespace

const char* tier_name(KernelTier tier) {
    switch (tier) {
        case KernelTier::Scalar: return "scalar";
        case KernelTier::Sse41: return "sse41";
        case KernelTier::Avx2: return "avx2";
        case KernelTier::Neon: return "neon";
    }
    return "scalar";
}

const std::vector<KernelTier>& available_tiers() {
    static const std::vector<KernelTier> tiers = detect_tiers();
    return tiers;
}

KernelTier active_tier() {
    static const KernelTier tier = select_tier();
    return tier;
}

std::size_t bordered_code_elems(const tensor::Shape& s, int pad) {
    return static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.c) *
           tensor::im2col_plane_elems(s, pad);
}

const std::uint8_t* bordered_codes(const std::uint8_t* qx, const tensor::Shape& s, int pad,
                                   std::uint8_t* bordered) {
    if (pad == 0) return qx;
    border_kernel(s.w, pad)(qx, static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.c),
                            static_cast<std::size_t>(s.h), static_cast<std::size_t>(s.w),
                            static_cast<std::size_t>(pad), bordered);
    return bordered;
}

PlaneTile conv_operand(const std::uint8_t* codes, const tensor::Shape& s, int kh, int kw,
                       int stride, int pad, int oh, int ow, std::uint32_t* koff,
                       std::uint32_t* off) {
    const std::size_t st = static_cast<std::size_t>(stride);
    const std::size_t pw = static_cast<std::size_t>(s.w) + 2 * static_cast<std::size_t>(pad);
    const std::size_t plane = tensor::im2col_plane_elems(s, pad);
    const std::size_t image = static_cast<std::size_t>(s.c) * plane;
    if (static_cast<std::size_t>(s.n) * image > 0xFFFFFFFFu)
        throw std::length_error("conv_operand: code tensor exceeds 32-bit offsets");
    std::uint32_t* k_out = koff;
    for (std::size_t c = 0; c < static_cast<std::size_t>(s.c); ++c)
        for (std::size_t ky = 0; ky < static_cast<std::size_t>(kh); ++ky)
            for (std::size_t kx = 0; kx < static_cast<std::size_t>(kw); ++kx)
                *k_out++ = static_cast<std::uint32_t>(c * plane + ky * pw + kx);
    std::uint32_t* j_out = off;
    for (std::size_t n = 0; n < static_cast<std::size_t>(s.n); ++n)
        for (std::size_t oy = 0; oy < static_cast<std::size_t>(oh); ++oy) {
            const std::size_t row = n * image + oy * st * pw;
            for (std::size_t ox = 0; ox < static_cast<std::size_t>(ow); ++ox)
                *j_out++ = static_cast<std::uint32_t>(row + ox * st);
        }
    // Columns step `stride` bytes within an output row, and on across
    // rows when the plane is exactly as wide as the output (1×1, pad 0,
    // stride 1): then a whole image plane is one run.
    const std::size_t unit = pw == static_cast<std::size_t>(ow)
                                 ? static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow)
                                 : static_cast<std::size_t>(ow);
    std::size_t run = 1;
    for (const std::size_t r : {std::size_t{16}, std::size_t{8}, std::size_t{4}})
        if (unit % r == 0) {
            run = r;
            break;
        }
    PlaneTile t;
    t.codes = codes;
    t.koff = koff;
    t.off = off;
    t.kdim = static_cast<std::size_t>(k_out - koff);
    t.n = static_cast<std::size_t>(j_out - off);
    t.run = run;
    t.step = st;
    return t;
}

QuantizeU8Fn quantize_u8_kernel(KernelTier tier) {
    if (!available(tier)) return nullptr;
    switch (tier) {
#if RAQ_SIMD_X86
        case KernelTier::Sse41:
            return &quantize_u8_sse41;
        case KernelTier::Avx2:
            return &quantize_u8_avx2;
#endif
#if defined(__aarch64__)
        case KernelTier::Neon:
            return &quantize_u8_neon;
#endif
        default:
            return nullptr;
    }
}

void widen_weights_u8(const std::uint8_t* w, std::size_t kdim, std::int32_t zero_point,
                      std::int16_t* w16) {
    for (std::size_t k = 0; k < kdim; ++k)
        w16[k] = static_cast<std::int16_t>(static_cast<std::int32_t>(w[k]) - zero_point);
    if (kdim & 1) w16[kdim] = 0;
}

PackedKernels packed_kernels(KernelTier tier) {
    if (available(tier)) switch (tier) {
#if RAQ_SIMD_X86
            case KernelTier::Sse41:
                return {&pack_plane_sse41, &gemm_packed_sse41, 8};
            case KernelTier::Avx2:
                return {&pack_plane_avx2, &gemm_packed_avx2, 16};
#endif
            default:
                break;
        }
    return {&pack_plane_scalar, &gemm_packed_i32_scalar, 1};
}

void gemm_packed_i64(const std::int16_t* w16, std::size_t w_stride, std::size_t rows,
                     const std::int16_t* packed, std::size_t kdim, std::size_t n,
                     std::int64_t* acc, std::size_t acc_stride) {
    gemm_packed_scalar(w16, w_stride, rows, packed, kdim, n, acc, acc_stride);
}

EpilogueFn epilogue_kernel(KernelTier tier) {
    if (available(tier)) switch (tier) {
#if RAQ_SIMD_X86
            case KernelTier::Sse41:
                return &epilogue_sse41;
            case KernelTier::Avx2:
                return &epilogue_avx2;
#endif
            default:
                break;
        }
    return &epilogue_i32_scalar;
}

void epilogue_i64(const std::int64_t* acc, std::size_t n, std::int32_t qb, float scale,
                  float* out, EpilogueStats* stats) {
    epilogue_scalar(acc, n, qb, scale, out, stats);
}

}  // namespace raq::exec::kernels_simd
