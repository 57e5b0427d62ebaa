// ExecContext: the per-thread mutable state of one execution lane — the
// tensor arena plus every conv scratch buffer (float and quantized).
// Contexts are reused across runs (buffers only grow, so steady-state
// serving does zero allocation) and must never be shared by concurrent
// runs: the plan is the shared immutable half, the context the private
// mutable half. The serve runtime keeps one long-lived context per
// device; tests exercise one per worker thread.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace raq::exec {

class ExecPlan;

/// One injected bit flip of a quantized conv as an exact correction to
/// one GEMM accumulator: the product in column `col` of the flipped
/// channel changes by sign · 2^bit (`p ^ 1 << bit` minus `p`).
struct FlipDelta {
    std::uint32_t col;   ///< column within the conv's [out_c, cols] result
    std::uint16_t bit;
    std::int16_t sign;   ///< +1 when the flip sets the bit, −1 when it clears it
    [[nodiscard]] std::int64_t delta() const { return sign * (std::int64_t{1} << bit); }
};

/// Workspace of one convolution invocation. The engine hands each conv a
/// scratch set that no concurrently running op touches: the context's own
/// set in serial execution, a lane-private one when a whole dependency
/// level fans out over the thread pool.
struct ConvScratch {
    // Float conv scratch.
    std::vector<float> columns;  ///< im2col matrix [kdim, cols]
    std::vector<float> plane;    ///< im2col's zero-bordered input plane
    std::vector<float> product;  ///< GEMM result [out_c, cols] (batched runs)

    // Quantized conv scratch.
    std::vector<std::uint8_t> qx;          ///< quantized input activation codes
    std::vector<std::uint8_t> codes;       ///< the codes with every plane zero-bordered
    std::vector<std::uint32_t> koff;       ///< per reduction row: offset into the codes
    std::vector<std::uint32_t> col_off;    ///< per GEMM column: offset into the codes
    std::vector<std::int16_t> packed;      ///< interleaved i16 column panel (packed GEMM)
    std::vector<std::int16_t> w16;         ///< widened weights, zero-point folded in
    std::vector<std::int32_t> acc32;       ///< narrow accumulator tile (fast path)
    std::vector<std::int64_t> acc64;       ///< full-width accumulator (overflow-safe path)
    /// Injected flips of the current conv, bucketed by (output channel,
    /// column tile): bucket b = oc·tiles + t holds
    /// flip_deltas[flip_buckets[b], flip_buckets[b + 1]).
    std::vector<FlipDelta> flip_walk;          ///< one channel's flips, walk order
    std::vector<FlipDelta> flip_deltas;        ///< every flip, bucket order
    std::vector<std::size_t> flip_buckets;     ///< out_c·tiles + 1 bucket offsets
    std::vector<std::size_t> flip_cursor;      ///< per-tile scatter cursor
    std::vector<std::int64_t> flip_row;        ///< one corrected accumulator row
    /// Lane-private accumulator tiles for channel-split execution of one
    /// conv; persist across convs and runs so pool mode also allocates
    /// nothing in steady state. Indexed by ThreadPool lane.
    std::vector<std::vector<std::int32_t>> lane_acc32;
    std::vector<std::vector<std::int64_t>> lane_acc64;
    std::vector<std::vector<std::int16_t>> lane_packed;
};

struct ExecContext {
    std::vector<float> arena;  ///< all intermediate tensors, plan-assigned offsets

    /// Per-run tensor table and shape cache. Shapes are re-derived only
    /// when (plan, batch size) changes, so a serve loop with a fixed
    /// batch pays the O(ops) inference walk once, not per request.
    std::vector<const float*> buffers;
    std::vector<tensor::Shape> shapes;
    std::uint64_t shapes_plan_serial = 0;  ///< ExecPlan::serial() cache key
    int shapes_batch_n = 0;

    /// Conv workspace for serial execution (and single-op levels).
    ConvScratch scratch;
    /// Lane-private conv workspaces for level-parallel execution, indexed
    /// by ThreadPool lane; grown on first fan-out, then reused forever.
    std::vector<ConvScratch> level_lanes;

    /// Grow-only resize: keeps steady-state runs allocation-free.
    template <typename T>
    static void reserve(std::vector<T>& buffer, std::size_t size) {
        if (buffer.size() < size) buffer.resize(size);
    }
};

}  // namespace raq::exec
