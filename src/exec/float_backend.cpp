#include "exec/backend.hpp"

#include <cstring>

#include "tensor/gemm.hpp"

namespace raq::exec {

void FloatBackend::prepare(const ExecPlan& plan, ExecContext& ctx) const {
    ExecContext::reserve(ctx.scratch.columns, plan.max_columns());
    ExecContext::reserve(ctx.scratch.product, plan.max_product_floats());
    ExecContext::reserve(ctx.scratch.plane, plan.max_plane_elems());
}

void FloatBackend::conv(const ConvCall& call, ExecContext& ctx) {
    (void)ctx;
    const ir::Op& op = *call.op;
    const ConvGeom& g = *call.geom;
    ConvScratch& scr = *call.scratch;
    const tensor::Shape& s = call.in_shape;
    const std::size_t cols = static_cast<std::size_t>(s.n) * g.hw;

    ExecContext::reserve(scr.columns, g.kdim * cols);
    ExecContext::reserve(scr.plane, g.plane_elems);
    tensor::im2col_into(call.in, s, op.conv.kh, op.conv.kw, op.conv.stride, op.conv.pad,
                        scr.columns.data(), g.oh, g.ow, scr.plane.data());

    const auto gemm_rows = [&](float* c, std::size_t oc_begin, std::size_t oc_end) {
        tensor::gemm(op.weights.data() + oc_begin * g.kdim, scr.columns.data(),
                     c + oc_begin * cols, oc_end - oc_begin, g.kdim, cols);
    };

    if (s.n == 1) {
        // Single-sample fast path: the [oc, cols] GEMM result already is
        // the (1, oc, oh, ow) output layout — GEMM straight into the
        // output buffer, then the bias in place. Same float ops as the
        // product-buffer path, so still bit-identical.
        const auto run = [&](std::size_t oc_begin, std::size_t oc_end) {
            gemm_rows(call.out, oc_begin, oc_end);
            for (std::size_t oc = oc_begin; oc < oc_end; ++oc) {
                const float b = op.bias[oc];
                float* row = call.out + oc * g.hw;
                for (std::size_t i = 0; i < g.hw; ++i) row[i] += b;
            }
        };
        if (call.pool)
            call.pool->parallel_for(
                static_cast<std::size_t>(op.conv.out_c),
                [&](std::size_t, std::size_t b, std::size_t e) { run(b, e); });
        else
            run(0, static_cast<std::size_t>(op.conv.out_c));
        return;
    }

    ExecContext::reserve(scr.product, static_cast<std::size_t>(op.conv.out_c) * cols);
    // product is [oc, n*oh*ow]; output layout is [n, oc, oh, ow].
    const auto run = [&](std::size_t oc_begin, std::size_t oc_end) {
        gemm_rows(scr.product.data(), oc_begin, oc_end);
        for (int n = 0; n < s.n; ++n)
            for (std::size_t oc = oc_begin; oc < oc_end; ++oc) {
                const float b = op.bias[oc];
                const float* src =
                    scr.product.data() + oc * cols + static_cast<std::size_t>(n) * g.hw;
                float* dst = call.out +
                             (static_cast<std::size_t>(n) *
                                  static_cast<std::size_t>(op.conv.out_c) +
                              oc) *
                                 g.hw;
                for (std::size_t i = 0; i < g.hw; ++i) dst[i] = src[i] + b;
            }
    };
    if (call.pool)
        call.pool->parallel_for(
            static_cast<std::size_t>(op.conv.out_c),
            [&](std::size_t, std::size_t b, std::size_t e) { run(b, e); });
    else
        run(0, static_cast<std::size_t>(op.conv.out_c));
}

}  // namespace raq::exec
