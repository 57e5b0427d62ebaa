#include "exec/quant_backend.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "exec/kernels_simd.hpp"

namespace raq::exec {

namespace {

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
/// (p ^ 1 << bit) − p by (oc, column tile). The product reads its
/// activation code through the same offsets as the pack. A per-row
/// counting sort: the walk yields one channel's flips k-major, the GEMM
/// consumes them tile by tile.
FlipCorrections bucket_flips(inject::BitFlipInjector& injector, const quant::QConv& qc,
                             const kernels_simd::PlaneTile& codes, std::size_t cols,
                             std::size_t out_c, std::size_t tile, ConvScratch& scr) {
    const std::size_t kdim = codes.kdim;
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
            const std::uint8_t* row = codes.codes + codes.koff[k];
            injector.walk(cols, [&](std::uint64_t j, int bit) {
                const std::int64_t p = w * row[codes.off[j]];
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

/// Everything one conv call's epilogue needs: turns GEMM accumulator rows
/// (acc − zw·colsum, the zero-point already folded into the weights) into
/// output activations in NCHW.
struct ConvEpilogue {
    const quant::QConv& qc;
    std::size_t hw, out_c;
    float* out;
    kernels_simd::EpilogueFn vec;
    kernels_simd::EpilogueStats* stats;  ///< null ⇔ no stats attached
    FlipCorrections flips;

    /// Columns [j0, j0 + jn) of channel `oc`. A row with flips in this
    /// tile is widened to i64 and corrected first (a corrected value may
    /// pass the acc32 bound, and the stats see the corrected values).
    template <typename AccT>
    void row(std::size_t oc, const AccT* acc, std::size_t j0, std::size_t jn) const {
        if (flips.begin != nullptr) {
            const std::size_t b = oc * flips.tiles + j0 / flips.tile;
            if (flips.begin[b] != flips.begin[b + 1]) {
                std::copy(acc, acc + jn, flips.wide);
                for (std::size_t i = flips.begin[b]; i < flips.begin[b + 1]; ++i)
                    flips.wide[flips.deltas[i].col - j0] += flips.deltas[i].delta();
                finish(oc, flips.wide, j0, jn);
                return;
            }
        }
        finish(oc, acc, j0, jn);
    }

    /// Runs the epilogue over each contiguous NCHW segment of the row.
    template <typename AccT>
    void finish(std::size_t oc, const AccT* acc, std::size_t j0, std::size_t jn) const {
        const quant::QuantParams& wq = qc.wq(static_cast<int>(oc));
        const float scale = qc.act.scale * wq.scale;
        const std::int32_t qb = qc.qbias[oc];
        std::size_t n = j0 / hw;
        std::size_t pos = j0 % hw;
        for (std::size_t j = 0; j < jn; ++n, pos = 0) {
            const std::size_t seg = std::min(jn - j, hw - pos);
            float* dst = out + (n * out_c + oc) * hw + pos;
            if constexpr (std::is_same_v<AccT, std::int32_t>)
                vec(acc + j, seg, qb, scale, dst, stats);
            else
                kernels_simd::epilogue_i64(acc + j, seg, qb, scale, dst, stats);
            j += seg;
        }
    }
};

/// The one conv pipeline, for output channels [oc_begin, oc_end): per
/// column tile, pack the GEMM operand straight from the bordered codes,
/// sweep it with the packed GEMM in row blocks, and finish each row in the
/// epilogue. AccT is int32 when the plan proved |acc| ≤ kdim·255² fits,
/// int64 otherwise (the scalar reference pair); both produce the same
/// exact integers. The tile length comes precomputed from the plan, a
/// multiple of 16 whenever a conv has more than one tile, so every tile
/// starts aligned to the operand's column runs.
template <typename AccT>
void conv_rows(const kernels_simd::PlaneTile& codes, std::size_t cols, const std::int16_t* w16,
               const ConvEpilogue& epi, kernels_simd::PackFn pack,
               void (*gemm)(const std::int16_t*, std::size_t, std::size_t, const std::int16_t*,
                            std::size_t, std::size_t, AccT*, std::size_t),
               std::size_t col_group, std::vector<AccT>& acc,
               std::vector<std::int16_t>& packed, std::size_t tile, std::size_t oc_begin,
               std::size_t oc_end) {
    constexpr std::size_t kMr = kernels_simd::kGemmU8RowBlock;
    const std::size_t wstride = kernels_simd::weight_stride(codes.kdim);
    const std::size_t acc_stride = kernels_simd::padded_cols(tile, col_group);
    ExecContext::reserve(acc, kMr * acc_stride);
    for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
        kernels_simd::PlaneTile t = codes;
        t.off = codes.off + j0;
        t.n = std::min(tile, cols - j0);
        ExecContext::reserve(packed, kernels_simd::packed_panel_elems(t.kdim, t.n, col_group));
        pack(t, packed.data());
        for (std::size_t oc = oc_begin; oc < oc_end; oc += kMr) {
            const std::size_t mr = std::min(kMr, oc_end - oc);
            gemm(w16 + oc * wstride, wstride, mr, packed.data(), t.kdim, t.n, acc.data(),
                 acc_stride);
            for (std::size_t r = 0; r < mr; ++r)
                epi.row(oc + r, acc.data() + r * acc_stride, j0, t.n);
        }
    }
}

}  // namespace

void QuantBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ConvScratch& scr = ctx.scratch;
    ExecContext::reserve(scr.qx, plan.max_conv_in_floats() + kernels_simd::kCodeSlack);
    if (plan.max_codes() > 0)
        ExecContext::reserve(scr.codes, plan.max_codes() + kernels_simd::kCodeSlack);
    ExecContext::reserve(scr.koff, plan.max_kdim());
    ExecContext::reserve(scr.col_off, plan.max_cols());
    // Sized for the row block and whole column groups up front, so the
    // per-call reserves in the hot loop are no-op comparisons.
    const std::size_t acc_tile = kernels_simd::padded_cols(plan.max_tile_cols(), 16);
    ExecContext::reserve(scr.acc64, kernels_simd::kGemmU8RowBlock * acc_tile);
    ExecContext::reserve(scr.acc32, kernels_simd::kGemmU8RowBlock * acc_tile);
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
    ExecContext::reserve(scr.qx, in_size + kernels_simd::kCodeSlack);
    if (quantize_kernel_ != nullptr)
        quantize_kernel_(call.in, in_size, qc.act.scale, qc.act.zero_point, qc.act.qmax(),
                         act_mask, scr.qx.data());
    else
        for (std::size_t i = 0; i < in_size; ++i)
            scr.qx[i] = static_cast<std::uint8_t>(qc.act.quantize(call.in[i])) & act_mask;

    // The zero-bordered code tensor, and where the GEMM operand's (k, j)
    // code sits in it: codes[koff[k] + col_off[j]].
    if (op.conv.pad > 0)
        ExecContext::reserve(scr.codes, kernels_simd::bordered_code_elems(s, op.conv.pad) +
                                            kernels_simd::kCodeSlack);
    ExecContext::reserve(scr.koff, g.kdim);
    ExecContext::reserve(scr.col_off, cols);
    const kernels_simd::PlaneTile operand = kernels_simd::conv_operand(
        kernels_simd::bordered_codes(scr.qx.data(), s, op.conv.pad, scr.codes.data()), s,
        op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad, g.oh, g.ow, scr.koff.data(),
        scr.col_off.data());

    // With LSB padding the hardware accumulator holds acc << (α+β). The
    // shift only scales the occupancy stats; the injector sees the
    // unshifted product, as in the seed.
    const int shift = qgraph_->config().padding == common::Padding::Lsb
                          ? (8 - qc.act.bits) + (8 - qc.wq(0).bits)
                          : 0;
    kernels_simd::EpilogueStats conv_stats;
    conv_stats.over_at = shift >= 22 ? 1 : std::int64_t{1} << (22 - shift);
    const std::size_t out_c = static_cast<std::size_t>(op.conv.out_c);
    const std::size_t tile = std::min(g.tile_cols, cols);
    ConvEpilogue epi{qc,          g.hw, out_c, call.out, epilogue_kernel_,
                     stats_ ? &conv_stats : nullptr, {}};

    // Fault injection: one walk of the injector over the conv's products
    // draws every flip in the seed's order; the flips then ride the
    // normal GEMM as sparse i64 corrections applied before the epilogue.
    if (injector_ != nullptr) {
        epi.flips = bucket_flips(*injector_, qc, operand, cols, out_c, tile, scr);
        if (stats_) stats_->flips = injector_->flips_injected();
    }
    if (stats_) stats_->mac_count += g.kdim * cols * out_c;

    // Widen the weights once per call with each channel's zero-point
    // folded in — read-only after this, so shared across channel-split
    // lanes. Convs whose kdim·255² passes INT32_MAX run the scalar
    // reference pack with the i64 GEMM on every tier.
    const std::uint8_t* weights = qc.qweights.data();
    const std::size_t wstride = kernels_simd::weight_stride(g.kdim);
    ExecContext::reserve(scr.w16, out_c * wstride);
    for (std::size_t oc = 0; oc < out_c; ++oc)
        kernels_simd::widen_weights_u8(weights + oc * g.kdim, g.kdim,
                                       qc.wq(static_cast<int>(oc)).zero_point,
                                       scr.w16.data() + oc * wstride);
    const kernels_simd::PackedKernels wide_pk =
        kernels_simd::packed_kernels(kernels_simd::KernelTier::Scalar);

    // Parallel only without hooks (the stats are unsynchronized, the
    // corrected-row scratch is shared); each lane owns a disjoint channel
    // range and private accumulator/pack tiles, so results match serial
    // bit for bit (lanes re-pack the same tile — redundant work, never a
    // race).
    const auto run_range = [&](std::vector<std::int32_t>& acc32,
                               std::vector<std::int64_t>& acc64,
                               std::vector<std::int16_t>& packed, std::size_t b,
                               std::size_t e) {
        if (g.acc32_safe)
            conv_rows<std::int32_t>(operand, cols, scr.w16.data(), epi, packed_.pack,
                                    packed_.gemm, packed_.col_group, acc32, packed, tile, b,
                                    e);
        else
            conv_rows<std::int64_t>(operand, cols, scr.w16.data(), epi, wide_pk.pack,
                                    &kernels_simd::gemm_packed_i64, wide_pk.col_group, acc64,
                                    packed, tile, b, e);
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
    if (stats_) {
        stats_->max_abs_accumulator =
            std::max(stats_->max_abs_accumulator, conv_stats.max_abs << shift);
        stats_->accumulator_overflows += conv_stats.overflows;
    }
}

}  // namespace raq::exec
