#include "exec/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace raq::exec::kernels {

void relu(const float* in, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] > 0 ? in[i] : 0.0f;
}

void maxpool(const float* in, const tensor::Shape& s, int kernel, int stride, float* out,
             int oh, int ow) {
    const std::size_t in_hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t out_hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* plane =
                in + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                      static_cast<std::size_t>(c)) *
                         in_hw;
            float* dst = out + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                                static_cast<std::size_t>(c)) *
                                   out_hw;
            // Window-bound hoisting: for fixed kx the in-bounds ox are a
            // prefix (ox·stride + kx < w), so the inner loops are
            // branch-free strided max-accumulations over the output row —
            // same elements folded in the same ky-major, kx-minor order
            // per output as the naive window walk, so identical results
            // (including the −inf seed for fully out-of-bounds windows).
            for (int oy = 0; oy < oh; ++oy) {
                float* row_out = dst + static_cast<std::size_t>(oy) *
                                           static_cast<std::size_t>(ow);
                for (int ox = 0; ox < ow; ++ox)
                    row_out[ox] = -std::numeric_limits<float>::infinity();
                const int ky_hi = std::min(kernel, s.h - oy * stride);
                for (int ky = 0; ky < ky_hi; ++ky) {
                    const float* row_in =
                        plane + (static_cast<std::size_t>(oy) *
                                     static_cast<std::size_t>(stride) +
                                 static_cast<std::size_t>(ky)) *
                                    static_cast<std::size_t>(s.w);
                    for (int kx = 0; kx < kernel; ++kx) {
                        const int ox_hi =
                            std::min(ow, kx >= s.w ? 0 : (s.w - 1 - kx) / stride + 1);
                        for (int ox = 0; ox < ox_hi; ++ox)
                            row_out[ox] = std::max(
                                row_out[ox],
                                row_in[static_cast<std::size_t>(ox) *
                                           static_cast<std::size_t>(stride) +
                                       static_cast<std::size_t>(kx)]);
                    }
                }
            }
        }
}

void global_avg_pool(const float* in, const tensor::Shape& s, float* out) {
    const std::size_t hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const float inv = 1.0f / static_cast<float>(s.h * s.w);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* plane =
                in + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                      static_cast<std::size_t>(c)) *
                         hw;
            float acc = 0;
            // Same y-major accumulation order as the reference walker.
            for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
            out[static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                static_cast<std::size_t>(c)] = acc * inv;
        }
}

void add(const float* a, const float* b, float* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out) {
    const std::size_t hw =
        static_cast<std::size_t>(out_shape.h) * static_cast<std::size_t>(out_shape.w);
    for (int n = 0; n < out_shape.n; ++n) {
        std::size_t c_off = 0;
        for (const ConcatInput& in : ins) {
            const std::size_t block = static_cast<std::size_t>(in.channels) * hw;
            std::memcpy(out + (static_cast<std::size_t>(n) *
                                   static_cast<std::size_t>(out_shape.c) +
                               c_off) *
                                  hw,
                        in.data + static_cast<std::size_t>(n) * block,
                        block * sizeof(float));
            c_off += static_cast<std::size_t>(in.channels);
        }
    }
}

}  // namespace raq::exec::kernels
