// Dynamic batching helpers: stack single-sample requests into one NCHW
// batch tensor for the executor, and slice the batched logits back into
// per-request results.
#pragma once

#include <vector>

#include "serve/request_queue.hpp"

namespace raq::serve {

/// Concatenate the requests' (1, c, h, w) images into an (n, c, h, w)
/// batch. All requests must share the sample shape.
[[nodiscard]] tensor::Tensor stack_batch(const std::vector<InferenceRequest>& batch);

/// Build the result for request `request_id` from row `row` of the
/// batched logits: copies the logits row and takes its argmax.
/// Device/latency fields are left for the caller.
[[nodiscard]] InferenceResult make_result(std::uint64_t request_id,
                                          const tensor::Tensor& logits, int row);

}  // namespace raq::serve
