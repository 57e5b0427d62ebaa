// Raw-pointer op kernels shared by every backend. Each kernel writes into
// a caller-provided (arena) buffer and mirrors the seed interpreter's loop
// structure exactly, element for element — planned execution is bit-
// identical to the reference walker by construction, not by accident.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace raq::exec::kernels {

void relu(const float* in, float* out, std::size_t n);

void maxpool(const float* in, const tensor::Shape& s, int kernel, int stride, float* out,
             int oh, int ow);

void global_avg_pool(const float* in, const tensor::Shape& s, float* out);

void add(const float* a, const float* b, float* out, std::size_t n);

struct ConcatInput {
    const float* data = nullptr;
    int channels = 0;
};
void concat(const std::vector<ConcatInput>& ins, const tensor::Shape& out_shape, float* out);

}  // namespace raq::exec::kernels
