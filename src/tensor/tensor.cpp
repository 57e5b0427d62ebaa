#include "tensor/tensor.hpp"

#include <stdexcept>

namespace raq::tensor {

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
    if (data_.size() != shape_.size())
        throw std::invalid_argument("Tensor: data size does not match shape " +
                                    shape_.to_string());
}

void Tensor::reshape(Shape shape) {
    if (shape.size() != data_.size())
        throw std::invalid_argument("Tensor: reshape size mismatch");
    shape_ = shape;
}

TensorView::TensorView(const Tensor& tensor) : data(tensor.data()), shape(tensor.shape()) {}

TensorView TensorView::batch_view(int start, int count) const {
    if (start < 0 || count < 1 || start + count > shape.n)
        throw std::out_of_range("TensorView: batch_view range [" + std::to_string(start) +
                                ", " + std::to_string(start + count) + ") outside batch of " +
                                std::to_string(shape.n));
    const std::size_t pixels = static_cast<std::size_t>(shape.c) *
                               static_cast<std::size_t>(shape.h) *
                               static_cast<std::size_t>(shape.w);
    Shape s = shape;
    s.n = count;
    return TensorView(data + static_cast<std::size_t>(start) * pixels, s);
}

TensorView Tensor::batch_view(int start, int count) const {
    return TensorView(*this).batch_view(start, count);
}

int conv_out_dim(int in, int kernel, int stride, int pad) {
    const int out = (in + 2 * pad - kernel) / stride + 1;
    if (out <= 0) throw std::invalid_argument("conv_out_dim: empty output");
    return out;
}

void im2col(const Tensor& in, int kh, int kw, int stride, int pad,
            std::vector<float>& columns, int& out_h, int& out_w) {
    const Shape& s = in.shape();
    out_h = conv_out_dim(s.h, kh, stride, pad);
    out_w = conv_out_dim(s.w, kw, stride, pad);
    // The kernel writes every slot, so growing without a zero fill is enough.
    columns.resize(static_cast<std::size_t>(s.c) * static_cast<std::size_t>(kh) *
                   static_cast<std::size_t>(kw) * static_cast<std::size_t>(s.n) *
                   static_cast<std::size_t>(out_h) * static_cast<std::size_t>(out_w));
    std::vector<float> plane(im2col_plane_elems(s, pad));
    im2col_into(in.data(), s, kh, kw, stride, pad, columns.data(), out_h, out_w,
                plane.data());
}

void col2im(const std::vector<float>& columns, const Shape& in_shape, int kh, int kw,
            int stride, int pad, Tensor& grad_in) {
    const int out_h = conv_out_dim(in_shape.h, kh, stride, pad);
    const int out_w = conv_out_dim(in_shape.w, kw, stride, pad);
    const std::size_t cols = static_cast<std::size_t>(in_shape.n) *
                             static_cast<std::size_t>(out_h) *
                             static_cast<std::size_t>(out_w);
    grad_in = Tensor(in_shape);
    for (int n = 0; n < in_shape.n; ++n) {
        for (int c = 0; c < in_shape.c; ++c) {
            for (int ky = 0; ky < kh; ++ky) {
                for (int kx = 0; kx < kw; ++kx) {
                    const std::size_t row =
                        (static_cast<std::size_t>(c) * static_cast<std::size_t>(kh) +
                         static_cast<std::size_t>(ky)) *
                            static_cast<std::size_t>(kw) +
                        static_cast<std::size_t>(kx);
                    for (int oy = 0; oy < out_h; ++oy) {
                        const int iy = oy * stride - pad + ky;
                        if (iy < 0 || iy >= in_shape.h) continue;
                        const std::size_t col_base =
                            (static_cast<std::size_t>(n) * static_cast<std::size_t>(out_h) +
                             static_cast<std::size_t>(oy)) *
                            static_cast<std::size_t>(out_w);
                        for (int ox = 0; ox < out_w; ++ox) {
                            const int ix = ox * stride - pad + kx;
                            if (ix < 0 || ix >= in_shape.w) continue;
                            grad_in.at(n, c, iy, ix) +=
                                columns[row * cols + col_base + static_cast<std::size_t>(ox)];
                        }
                    }
                }
            }
        }
    }
}

}  // namespace raq::tensor
