// Minimal NCHW float tensor used by the NN substrate (PyTorch substitute,
// DESIGN.md §2). Deliberately simple: contiguous storage, explicit shape,
// no views/broadcasting — every consumer in this project iterates layouts
// explicitly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace raq::tensor {

class Tensor;

struct Shape {
    int n = 1, c = 1, h = 1, w = 1;

    [[nodiscard]] std::size_t size() const {
        return static_cast<std::size_t>(n) * static_cast<std::size_t>(c) *
               static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
    }
    [[nodiscard]] std::string to_string() const {
        return "(" + std::to_string(n) + "," + std::to_string(c) + "," + std::to_string(h) +
               "," + std::to_string(w) + ")";
    }
    friend bool operator==(const Shape& a, const Shape& b) {
        return a.n == b.n && a.c == b.c && a.h == b.h && a.w == b.w;
    }
    friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }
};

/// Non-owning read-only view over contiguous NCHW data. Cheap to copy and
/// implicitly constructible from a Tensor; valid only while the viewed
/// storage lives. Batch slices (Tensor::batch_view) alias the owner's
/// samples without copying.
struct TensorView {
    const float* data = nullptr;
    Shape shape;

    TensorView() = default;
    TensorView(const float* data, Shape shape) : data(data), shape(shape) {}
    TensorView(const Tensor& tensor);  // NOLINT(google-explicit-constructor)

    [[nodiscard]] std::size_t size() const { return shape.size(); }

    /// Zero-copy sub-view of `count` samples starting at sample `start`.
    [[nodiscard]] TensorView batch_view(int start, int count) const;
};

class Tensor {
public:
    Tensor() = default;
    explicit Tensor(Shape shape) : shape_(shape), data_(shape.size(), 0.0f) {}
    Tensor(Shape shape, std::vector<float> data);

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::size_t size() const { return data_.size(); }
    [[nodiscard]] float* data() { return data_.data(); }
    [[nodiscard]] const float* data() const { return data_.data(); }
    [[nodiscard]] std::vector<float>& vec() { return data_; }
    [[nodiscard]] const std::vector<float>& vec() const { return data_; }

    [[nodiscard]] float& at(int n, int c, int h, int w) {
        return data_[index(n, c, h, w)];
    }
    [[nodiscard]] float at(int n, int c, int h, int w) const {
        return data_[index(n, c, h, w)];
    }
    [[nodiscard]] float& operator[](std::size_t i) { return data_[i]; }
    [[nodiscard]] float operator[](std::size_t i) const { return data_[i]; }

    void fill(float value) { data_.assign(data_.size(), value); }

    /// Reshape without copying; total size must match.
    void reshape(Shape shape);

    /// Zero-copy view of `count` samples starting at sample `start`
    /// (samples are contiguous in NCHW). The view aliases this tensor's
    /// storage: no per-batch copy, but it must not outlive the tensor.
    [[nodiscard]] TensorView batch_view(int start, int count) const;

private:
    [[nodiscard]] std::size_t index(int n, int c, int h, int w) const {
        return ((static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
                 static_cast<std::size_t>(c)) *
                    static_cast<std::size_t>(shape_.h) +
                static_cast<std::size_t>(h)) *
                   static_cast<std::size_t>(shape_.w) +
               static_cast<std::size_t>(w);
    }

    Shape shape_;
    std::vector<float> data_;
};

/// Spatial output size of a convolution/pooling window.
[[nodiscard]] int conv_out_dim(int in, int kernel, int stride, int pad);

/// im2col: expand input patches into a [C*kh*kw, N*oh*ow] column matrix
/// (row-major), so convolution becomes a GEMM with the [OC, C*kh*kw]
/// weight matrix.
void im2col(const Tensor& in, int kh, int kw, int stride, int pad,
            std::vector<float>& columns, int& out_h, int& out_w);

/// Elements of the zero-bordered (h+2·pad)×(w+2·pad) plane buffer that
/// im2col_into needs for an input of shape `s`.
[[nodiscard]] std::size_t im2col_plane_elems(const Shape& s, int pad);

/// The raw-pointer im2col kernel behind im2col() and the planned engine's
/// float backend: writes every slot of the caller's [C*kh*kw, N*oh*ow]
/// `columns`, padding slots as zero, so the buffer needs no pre-zeroing.
/// `plane` is caller scratch of im2col_plane_elems(s, pad) elements
/// (unused when pad == 0); its contents on entry do not matter.
void im2col_into(const float* in, const Shape& s, int kh, int kw, int stride, int pad,
                 float* columns, int oh, int ow, float* plane);

/// col2im: scatter-add the column matrix back into input gradient layout.
void col2im(const std::vector<float>& columns, const Shape& in_shape, int kh, int kw,
            int stride, int pad, Tensor& grad_in);

}  // namespace raq::tensor
