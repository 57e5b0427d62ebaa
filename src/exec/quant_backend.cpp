#include "exec/quant_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "exec/kernels_simd.hpp"

namespace raq::exec {

namespace {

/// Shared zero-point/bias/stats epilogue: turn raw accumulators for
/// columns [j0, j0 + jn) of channel `oc` into output activations in NCHW.
/// With a vector epilogue kernel and no stats attached, the i32 fast path
/// runs it over each contiguous NCHW segment — same bits, see EpilogueFn.
template <typename AccT>
void epilogue_rows(const quant::QConv& qc, std::size_t oc, const AccT* acc,
                   const std::int32_t* colsum, std::size_t j0, std::size_t jn,
                   std::size_t hw, std::size_t out_c, float* out, int shift,
                   QuantExecStats* stats, kernels_simd::EpilogueFn epi = nullptr) {
    const quant::QuantParams& wq = qc.wq(static_cast<int>(oc));
    const float scale = qc.act.scale * wq.scale;
    const std::int32_t zw = wq.zero_point;
    const std::int64_t qb = qc.qbias[oc];
    if constexpr (std::is_same_v<AccT, std::int32_t>) {
        // |acc − zw·colsum| < 2^33 on the acc32-safe path, so the f64
        // kernel is exact whenever |qb| stays below 2^52 − 2^33 (every
        // real quantized bias; the guard keeps pathological graphs on the
        // scalar loop rather than silently off-by-one).
        constexpr std::int64_t kQbExactBound = (std::int64_t{1} << 52) - (std::int64_t{1} << 33);
        if (epi != nullptr && stats == nullptr && qb < kQbExactBound && qb > -kQbExactBound) {
            std::size_t j = 0;
            while (j < jn) {
                const std::size_t jj = j0 + j;
                const std::size_t n = jj / hw;
                const std::size_t pos = jj % hw;
                const std::size_t seg = std::min(jn - j, hw - pos);
                epi(acc + j, colsum + jj, seg, zw, qb, scale,
                    out + (n * out_c + oc) * hw + pos);
                j += seg;
            }
            return;
        }
    }
    for (std::size_t j = 0; j < jn; ++j) {
        const std::size_t jj = j0 + j;
        const std::int64_t corrected = static_cast<std::int64_t>(acc[j]) -
                                       static_cast<std::int64_t>(zw) * colsum[jj] + qb;
        if (stats) {
            // Accumulator occupancy in the shifted hardware domain
            // (22-bit register of the paper's MAC). Shift the
            // magnitude, not the signed value: same number, no UB.
            const std::int64_t mag = (corrected < 0 ? -corrected : corrected) << shift;
            stats->max_abs_accumulator = std::max(stats->max_abs_accumulator, mag);
            if (mag >= (std::int64_t{1} << 22)) ++stats->accumulator_overflows;
        }
        // Map [oc, col] back to NCHW.
        const std::size_t n = jj / hw;
        const std::size_t pos = jj % hw;
        out[(n * out_c + oc) * hw + pos] = static_cast<float>(corrected) * scale;
    }
}

/// The injected flips of one conv as exact accumulator corrections,
/// bucketed by (output channel, column tile) — see ConvScratch. Null
/// `begin` ⇔ no injector attached.
struct FlipCorrections {
    const std::size_t* begin = nullptr;
    const FlipDelta* deltas = nullptr;
    std::size_t tiles = 0;
    std::size_t tile = 0;
    std::int64_t* wide = nullptr;  ///< tile-length scratch for a corrected row
};

/// Walk the injector over the conv's out_c·kdim·cols products in the
/// seed's order — linear index (oc·kdim + k)·cols + j, zero-weight
/// products included — and bucket each flip's correction
/// (p ^ 1 << bit) − p by (oc, column tile). A per-row counting sort: the
/// walk yields one channel's flips k-major, the GEMM consumes them
/// tile by tile.
FlipCorrections bucket_flips(inject::BitFlipInjector& injector, const quant::QConv& qc,
                             std::size_t kdim, const std::uint8_t* columns, std::size_t cols,
                             std::size_t out_c, std::size_t tile, ConvScratch& scr) {
    const std::size_t tiles = (cols + tile - 1) / tile;
    ExecContext::reserve(scr.flip_buckets, out_c * tiles + 1);
    ExecContext::reserve(scr.flip_cursor, tiles);
    ExecContext::reserve(scr.flip_row, tile);
    // Size both flip buffers once for the binomial count's mean + 4σ, so
    // they are not regrown (and copied) row by row.
    const auto expected_flips = [&](std::size_t products) {
        const double mean = injector.config().flip_probability * static_cast<double>(products);
        return static_cast<std::size_t>(mean + 4.0 * std::sqrt(mean)) + 64;
    };
    scr.flip_deltas.clear();
    scr.flip_deltas.reserve(expected_flips(out_c * kdim * cols));
    scr.flip_walk.reserve(expected_flips(kdim * cols));
    scr.flip_buckets[0] = 0;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
        scr.flip_walk.clear();
        const std::uint8_t* wrow = qc.qweights.data() + oc * kdim;
        for (std::size_t k = 0; k < kdim; ++k) {
            const std::int64_t w = wrow[k];
            const std::uint8_t* crow = columns + k * cols;
            injector.walk(cols, [&](std::uint64_t j, int bit) {
                const std::int64_t p = w * crow[j];
                scr.flip_walk.push_back({static_cast<std::uint32_t>(j),
                                         static_cast<std::uint16_t>(bit),
                                         static_cast<std::int16_t>((p >> bit) & 1 ? -1 : 1)});
            });
        }
        // bucket[t + 1] counts tile t, then the prefix sum turns the row's
        // buckets into offsets continuing from the previous row's end.
        std::size_t* bucket = scr.flip_buckets.data() + oc * tiles;
        std::fill(bucket + 1, bucket + tiles + 1, std::size_t{0});
        for (const FlipDelta& f : scr.flip_walk) ++bucket[f.col / tile + 1];
        for (std::size_t t = 0; t < tiles; ++t) {
            scr.flip_cursor[t] = bucket[t];
            bucket[t + 1] += bucket[t];
        }
        scr.flip_deltas.resize(bucket[tiles]);
        for (const FlipDelta& f : scr.flip_walk)
            scr.flip_deltas[scr.flip_cursor[f.col / tile]++] = f;
    }
    return {scr.flip_buckets.data(), scr.flip_deltas.data(), tiles, tile, scr.flip_row.data()};
}

/// Everything one conv call's epilogue needs: turns raw accumulator rows
/// into output activations in NCHW, shared by every GEMM path.
struct ConvEpilogue {
    const quant::QConv& qc;
    const std::int32_t* colsum;
    std::size_t hw, out_c;
    float* out;
    int shift;
    QuantExecStats* stats;
    kernels_simd::EpilogueFn vec;  ///< null ⇒ scalar loop
    FlipCorrections flips;

    /// Columns [j0, j0 + jn) of channel `oc`. A row with flips in this
    /// tile is widened to i64 and corrected first, then takes the scalar
    /// i64 epilogue (a corrected value may pass the acc32 bound, and the
    /// stats see the corrected values); every other row keeps the vector
    /// epilogue.
    template <typename AccT>
    void row(std::size_t oc, const AccT* acc, std::size_t j0, std::size_t jn) const {
        if (flips.begin != nullptr) {
            const std::size_t b = oc * flips.tiles + j0 / flips.tile;
            if (flips.begin[b] != flips.begin[b + 1]) {
                std::copy(acc, acc + jn, flips.wide);
                for (std::size_t i = flips.begin[b]; i < flips.begin[b + 1]; ++i)
                    flips.wide[flips.deltas[i].col - j0] += flips.deltas[i].delta();
                epilogue_rows(qc, oc, flips.wide, colsum, j0, jn, hw, out_c, out, shift, stats);
                return;
            }
        }
        epilogue_rows(qc, oc, acc, colsum, j0, jn, hw, out_c, out, shift, stats, vec);
    }
};

/// Tiled integer GEMM for output channels [oc_begin, oc_end) — the
/// scalar reference datapath, kept verbatim from the seed-matching
/// implementation. AccT is int32 when the plan proved the row sum cannot
/// overflow (kdim * 255^2 bound), int64 otherwise; both produce the same
/// exact integers, so the narrow fast path stays bit-identical. The tile
/// length comes precomputed from the plan's ConvGeom.
template <typename AccT>
void conv_rows(const std::uint8_t* weights, std::size_t kdim, const std::uint8_t* columns,
               std::size_t cols, const ConvEpilogue& epi, std::vector<AccT>& acc,
               std::size_t tile, std::size_t oc_begin, std::size_t oc_end) {
    ExecContext::reserve(acc, tile);
    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        for (std::size_t oc = oc_begin; oc < oc_end; ++oc) {
            const std::uint8_t* wrow = weights + oc * kdim;
            std::fill(acc.begin(), acc.begin() + static_cast<std::ptrdiff_t>(jn), AccT{0});
            for (std::size_t k = 0; k < kdim; ++k) {
                const std::int32_t w = wrow[k];
                if (w == 0) continue;
                const std::uint8_t* crow = columns + k * cols + j0;
                for (std::size_t j = 0; j < jn; ++j)
                    acc[j] += static_cast<AccT>(w * static_cast<std::int32_t>(crow[j]));
            }
            epi.row(oc, acc.data(), j0, jn);
        }
    }
}

/// SIMD fast path: the dispatch-selected microkernel computes the same
/// exact i32 accumulators as conv_rows (integer adds reassociate freely),
/// in kGemmU8RowBlock-channel register tiles; the shared epilogue then
/// finishes them row by row.
void conv_rows_simd(const std::uint8_t* weights, std::size_t kdim,
                    const std::uint8_t* columns, std::size_t cols, const ConvEpilogue& epi,
                    std::vector<std::int32_t>& acc, std::size_t tile,
                    kernels_simd::GemmU8Fn kernel, std::size_t oc_begin, std::size_t oc_end) {
    constexpr std::size_t kMr = kernels_simd::kGemmU8RowBlock;
    ExecContext::reserve(acc, kMr * tile);
    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        for (std::size_t oc = oc_begin; oc < oc_end; oc += kMr) {
            const std::size_t mr = std::min(kMr, oc_end - oc);
            kernel(weights + oc * kdim, kdim, mr, columns + j0, cols, kdim, jn, acc.data(),
                   tile);
            for (std::size_t r = 0; r < mr; ++r)
                epi.row(oc + r, acc.data() + r * tile, j0, jn);
        }
    }
}

/// Packed SIMD pipeline (the preferred datapath on x86 tiers): widen and
/// interleave each column tile once, then sweep it with the packed GEMM —
/// the per-row-block re-prep that dominates conv_rows_simd on shallow
/// convolutions disappears. Bit-identical by the same exact-integer
/// argument; the (< col_group)-column tail of each tile runs the scalar
/// reference against the raw tile.
void conv_rows_packed(const std::uint8_t* weights, std::size_t kdim,
                      const std::uint8_t* columns, const std::int16_t* w16, std::size_t cols,
                      const ConvEpilogue& epi, std::vector<std::int32_t>& acc,
                      std::vector<std::int16_t>& packed, std::size_t tile,
                      const kernels_simd::PackedKernels& pk, std::size_t oc_begin,
                      std::size_t oc_end) {
    constexpr std::size_t kMr = kernels_simd::kGemmU8RowBlock;
    const std::size_t wstride = kdim + (kdim & 1);
    ExecContext::reserve(acc, kMr * tile);
    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        const std::size_t jn = std::min(tile, cols - j0);
        const std::size_t jv = jn - jn % pk.col_group;  // full column groups
        if (jv != 0) {
            ExecContext::reserve(packed,
                                 kernels_simd::packed_panel_elems(kdim, jv, pk.col_group));
            pk.pack(columns + j0, cols, kdim, jv, packed.data());
        }
        for (std::size_t oc = oc_begin; oc < oc_end; oc += kMr) {
            const std::size_t mr = std::min(kMr, oc_end - oc);
            if (jv != 0)
                pk.gemm(w16 + oc * wstride, wstride, mr, packed.data(), kdim, jv,
                        acc.data(), tile);
            for (std::size_t r = 0; r < mr; ++r) {
                const std::uint8_t* wrow = weights + (oc + r) * kdim;
                for (std::size_t j = jv; j < jn; ++j) {
                    std::int32_t sum = 0;
                    for (std::size_t k = 0; k < kdim; ++k)
                        sum += static_cast<std::int32_t>(wrow[k]) *
                               static_cast<std::int32_t>(columns[k * cols + j0 + j]);
                    acc[r * tile + j] = sum;
                }
                epi.row(oc + r, acc.data() + r * tile, j0, jn);
            }
        }
    }
}

}  // namespace

void QuantBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ConvScratch& scr = ctx.scratch;
    ExecContext::reserve(scr.qx, plan.max_conv_in_floats());
    ExecContext::reserve(scr.u8_columns, plan.max_columns());
    ExecContext::reserve(scr.u8_plane, plan.max_plane_elems());
    ExecContext::reserve(scr.colsum, plan.max_cols());
    ExecContext::reserve(scr.acc64, plan.max_tile_cols());
    // Sized for the SIMD row block up front, so the per-call reserve in
    // the hot loop is a no-op comparison.
    ExecContext::reserve(scr.acc32, kernels_simd::kGemmU8RowBlock * plan.max_tile_cols());
    ExecContext::reserve(scr.flip_row, plan.max_tile_cols());
}

void QuantBackend::conv(const ConvCall& call, ExecContext& ctx) {
    (void)ctx;
    const ir::Op& op = *call.op;
    const ConvGeom& g = *call.geom;
    ConvScratch& scr = *call.scratch;
    const quant::QConv& qc = qgraph_->conv(static_cast<std::size_t>(call.op_index));
    if (qc.act.zero_point != 0)
        throw std::logic_error("QuantBackend: activation zero-point must be 0");

    const tensor::Shape& s = call.in_shape;
    const std::size_t in_size = s.size();
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;

    // Quantize the input activations (optionally truncating LSBs for the
    // precision-scaling ablation). The vector kernel computes the exact
    // QuantParams::quantize expression (hardware round-current-mode ==
    // nearbyint, IEEE division), so codes match the scalar loop bit for bit.
    const std::uint8_t act_mask = static_cast<std::uint8_t>(0xFFu << (qc.act_mask_bits & 7));
    ExecContext::reserve(scr.qx, in_size);
    if (quantize_kernel_ != nullptr)
        quantize_kernel_(call.in, in_size, qc.act.scale, qc.act.zero_point, qc.act.qmax(),
                         act_mask, scr.qx.data());
    else
        for (std::size_t i = 0; i < in_size; ++i)
            scr.qx[i] = static_cast<std::uint8_t>(qc.act.quantize(call.in[i])) & act_mask;

    ExecContext::reserve(scr.u8_columns, g.kdim * cols);
    ExecContext::reserve(scr.u8_plane, g.plane_elems);
    tensor::im2col_into(scr.qx.data(), s, op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad,
                        scr.u8_columns.data(), g.oh, g.ow, scr.u8_plane.data());
    const std::uint8_t* columns = scr.u8_columns.data();

    // Per-column activation code sums for the zero-point correction
    // (exact integer reduction — the vector kernel is bit-identical).
    ExecContext::reserve(scr.colsum, cols);
    if (colsum_kernel_ != nullptr) {
        colsum_kernel_(columns, g.kdim, cols, scr.colsum.data());
    } else {
        std::fill(scr.colsum.begin(), scr.colsum.begin() + static_cast<std::ptrdiff_t>(cols),
                  0);
        for (std::size_t k = 0; k < g.kdim; ++k) {
            const std::uint8_t* row = columns + k * cols;
            for (std::size_t j = 0; j < cols; ++j) scr.colsum[j] += row[j];
        }
    }

    // With LSB padding the hardware accumulator holds acc << (α+β). The
    // shift only scales the occupancy stats (ConvEpilogue); the injector
    // sees the unshifted product, as in the seed.
    const int shift = qgraph_->config().padding == common::Padding::Lsb
                          ? (8 - qc.act.bits) + (8 - qc.wq(0).bits)
                          : 0;
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);
    const std::size_t tile = std::min(g.tile_cols, cols);
    ConvEpilogue epi{qc, scr.colsum.data(), g.hw, out_c, call.out, shift, stats_,
                     epilogue_kernel_, {}};

    // Fault injection: one walk of the injector over the conv's products
    // draws every flip in the seed's order; the flips then ride the
    // normal GEMM as sparse i64 corrections applied before the epilogue.
    if (injector_ != nullptr) {
        epi.flips = bucket_flips(*injector_, qc, g.kdim, columns, cols, out_c, tile, scr);
        if (stats_) stats_->flips = injector_->flips_injected();
    }
    if (stats_) stats_->mac_count += g.kdim * cols * out_c;

    // Tiled integer GEMM through the dispatch-selected kernel (SIMD needs
    // the overflow-safe i32 bound the plan proved; wider convs keep the
    // scalar int64 loop). The packed pipeline pre-widens the weight
    // matrix once per call — read-only after this, so shared across
    // channel-split lanes. Parallel only without hooks (the stats struct
    // is unsynchronized, the corrected-row scratch is shared); each lane
    // owns a disjoint channel range and private accumulator/pack tiles,
    // so results match serial bit for bit (lanes re-pack the same tile —
    // redundant work, never a race).
    const std::uint8_t* weights = qc.qweights.data();
    const bool use_packed = g.acc32_safe && packed_.gemm != nullptr;
    if (use_packed) {
        ExecContext::reserve(scr.w16, out_c * (g.kdim + (g.kdim & 1)));
        kernels_simd::widen_weights_u8(weights, out_c, g.kdim, scr.w16.data());
    }
    const auto run_range = [&](std::vector<std::int32_t>& acc32,
                               std::vector<std::int64_t>& acc64,
                               std::vector<std::int16_t>& packed, std::size_t b,
                               std::size_t e) {
        if (use_packed)
            conv_rows_packed(weights, g.kdim, columns, scr.w16.data(), cols, epi, acc32,
                             packed, tile, packed_, b, e);
        else if (g.acc32_safe && simd_kernel_ != nullptr)
            conv_rows_simd(weights, g.kdim, columns, cols, epi, acc32, tile, simd_kernel_, b,
                           e);
        else if (g.acc32_safe)
            conv_rows<std::int32_t>(weights, g.kdim, columns, cols, epi, acc32, tile, b, e);
        else
            conv_rows<std::int64_t>(weights, g.kdim, columns, cols, epi, acc64, tile, b, e);
    };
    if (call.pool != nullptr && !serial_only() && out_c > 1) {
        // Lane-private accumulator/pack tiles live in the scratch and
        // persist across convs/runs: pooled steady state allocates nothing.
        const std::size_t lanes = static_cast<std::size_t>(call.pool->size());
        if (scr.lane_acc32.size() < lanes) scr.lane_acc32.resize(lanes);
        if (scr.lane_acc64.size() < lanes) scr.lane_acc64.resize(lanes);
        if (scr.lane_packed.size() < lanes) scr.lane_packed.resize(lanes);
        call.pool->parallel_for(out_c, [&](std::size_t lane, std::size_t b, std::size_t e) {
            run_range(scr.lane_acc32[lane], scr.lane_acc64[lane], scr.lane_packed[lane], b,
                      e);
        });
    } else {
        // Serial: reuse scratch accumulators, no per-conv allocation.
        run_range(scr.acc32, scr.acc64, scr.packed, 0, out_c);
    }
}

}  // namespace raq::exec
