// The library's im2col kernel, used by training, the float reference
// walker and the planned engine's float backend. (The quantized conv
// builds no column matrix: it packs its GEMM operand straight from
// zero-bordered codes, see exec::QuantBackend.)
//
// Each input plane is first copied into a zero-bordered (h+2p)×(w+2p)
// plane, so every column slot becomes a plain read: no per-element
// bounds checks, no pre-zeroing of the column matrix. One (channel, ky,
// kx) row of the column matrix is then `oh` output rows of `ow` elements,
// each a contiguous run of the padded plane at stride 1 and a strided
// gather otherwise. The columns hold exactly the elements of the
// bounds-checked formulation, bit for bit.
#include <cstring>

#include "tensor/tensor.hpp"

namespace raq::tensor {

namespace {

/// Moves `rows` rows of `width` elements: row r reads src + r·src_pitch
/// at element stride `stride` and writes dst + r·dst_pitch contiguously.
/// kWidth / kStride > 0 pin the width / stride at compile time.
template <int kWidth, int kStride>
void move_rows(const float* src, std::size_t src_pitch, int stride, float* dst,
               std::size_t dst_pitch, int rows, int width) {
    const std::size_t w = static_cast<std::size_t>(kWidth > 0 ? kWidth : width);
    const std::size_t st = static_cast<std::size_t>(kStride > 0 ? kStride : stride);
    for (int r = 0; r < rows; ++r, src += src_pitch, dst += dst_pitch) {
        if (st == 1)
            std::memcpy(dst, src, w * sizeof(float));
        else
            for (std::size_t x = 0; x < w; ++x) dst[x] = src[x * st];
    }
}

/// The whole kernel for one (output width, stride) pair; kOw / kStride > 0
/// fix them at compile time, so every row move inlines to fixed-size
/// loads and stores.
template <int kOw, int kStride>
void im2col_fixed(const float* in, const Shape& s, int kh, int kw, int stride, int pad,
                  float* columns, int oh, int ow, float* plane) {
    const std::size_t in_hw = static_cast<std::size_t>(s.h) * static_cast<std::size_t>(s.w);
    const std::size_t out_hw = static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow);
    const std::size_t cols = static_cast<std::size_t>(s.n) * out_hw;
    const std::size_t kk = static_cast<std::size_t>(kh) * static_cast<std::size_t>(kw);
    // Rows of the plane that is read: the padded copy, or the input
    // itself when there is no border to add.
    const std::size_t border = static_cast<std::size_t>(pad);
    const std::size_t pitch = static_cast<std::size_t>(s.w) + 2 * border;
    const std::size_t step = pitch * static_cast<std::size_t>(stride);  // oy → oy + 1
    // The scratch plane may last have served a conv of another geometry:
    // zero all of it once here; each input plane then overwrites only the
    // interior, so the border stays zero for the whole call.
    if (pad > 0)
        std::memset(plane, 0, (static_cast<std::size_t>(s.h) + 2 * border) * pitch * sizeof(float));

    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c) {
            const float* src = in + (static_cast<std::size_t>(n) * static_cast<std::size_t>(s.c) +
                                 static_cast<std::size_t>(c)) *
                                    in_hw;
            if (pad > 0) {
                move_rows<0, 1>(src, static_cast<std::size_t>(s.w), 1,
                                plane + border * (pitch + 1), pitch, s.h, s.w);
                src = plane;
            }
            float* dst = columns + static_cast<std::size_t>(c) * kk * cols +
                     static_cast<std::size_t>(n) * out_hw;
            for (int ky = 0; ky < kh; ++ky)
                for (int kx = 0; kx < kw; ++kx, dst += cols) {
                    const float* from = src + static_cast<std::size_t>(ky) * pitch +
                                    static_cast<std::size_t>(kx);
                    move_rows<kOw, kStride>(from, step, stride, dst,
                                            static_cast<std::size_t>(ow), oh, ow);
                }
        }
}

using Im2colFn = void (*)(const float*, const Shape&, int, int, int, int, float*, int, int,
                          float*);

/// Picks the instantiation for the (stride, output width) pairs that
/// alexnet-mini and resnet20-mini run on their 16×16 inputs: stride 1 at
/// widths 16, 8 and 4, stride 2 at 8 and 4. Every other geometry takes
/// the generic kernel.
Im2colFn pick_kernel(int stride, int ow) {
    if (stride == 1) {
        if (ow == 4) return im2col_fixed<4, 1>;
        if (ow == 8) return im2col_fixed<8, 1>;
        if (ow == 16) return im2col_fixed<16, 1>;
    }
    if (stride == 2) {
        if (ow == 4) return im2col_fixed<4, 2>;
        if (ow == 8) return im2col_fixed<8, 2>;
    }
    return im2col_fixed<0, 0>;
}

}  // namespace

std::size_t im2col_plane_elems(const Shape& s, int pad) {
    const std::size_t border = 2 * static_cast<std::size_t>(pad);
    return (static_cast<std::size_t>(s.h) + border) * (static_cast<std::size_t>(s.w) + border);
}

void im2col_into(const float* in, const Shape& s, int kh, int kw, int stride, int pad,
                 float* columns, int oh, int ow, float* plane) {
    pick_kernel(stride, ow)(in, s, kh, kw, stride, pad, columns, oh, ow, plane);
}

}  // namespace raq::tensor
