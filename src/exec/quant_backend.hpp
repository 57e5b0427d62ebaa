// QuantBackend: the unsigned-MAC integer datapath of the paper's NPU,
// executed through the planned engine. Numerics are bit-identical to the
// seed quantized interpreter (integer accumulation is order-independent,
// so the cache-tiled GEMM below reassociates freely without changing a
// single output bit). There is no im2col column matrix: the input codes
// are laid out once with every plane zero-bordered, and each column tile
// of the GEMM operand is packed straight from them through per-row and
// per-column offsets. The weight zero-point is folded into the widened
// weights (w − zw), so the GEMM yields acc − zw·colsum directly and no
// column-sum pass runs. Fig. 1b bit-flip injection rides the same GEMM:
// the injector's draws depend only on the product count, so one block
// walk over a conv's products, in the seed's linear order
// (oc·kdim + k)·cols + j, yields every flip's position and bit; each
// flip becomes the exact i64 correction (p ^ 1 << bit) − p to one
// accumulator, added before the epilogue. Same integers as the seed's
// per-product loop, at SIMD speed.
//
// LSB padding semantics (paper Eq. 5): the hardware multiplies shifted
// operands (q_a·2^α)(q_w·2^β) and the result is shifted back in software.
// Numerically an identity, so products and logits are computed unshifted.
// The shift only scales the accumulator-occupancy stats into the hardware
// register's domain. The injector's register view is not narrowed: it
// flips the same top bits of the unshifted product (InjectionConfig::
// product_bits) whatever the padding, exactly as the seed did.
#pragma once

#include <cstdint>

#include "exec/backend.hpp"
#include "exec/kernels_simd.hpp"
#include "inject/bitflip.hpp"
#include "quant/quantized_graph.hpp"

namespace raq::exec {

struct QuantExecStats {
    std::uint64_t mac_count = 0;
    std::uint64_t flips = 0;
    std::int64_t max_abs_accumulator = 0;  ///< in the shifted (hardware) domain
    std::uint64_t accumulator_overflows = 0;  ///< values exceeding the 22-bit register
};

class QuantBackend final : public Backend {
public:
    explicit QuantBackend(const quant::QuantizedGraph& qgraph) : qgraph_(&qgraph) {
        set_kernel_tier(kernels_simd::active_tier());
    }

    /// Swap the executed graph (same topology: re-quantization replaces
    /// the payload, not the structure). The caller keeps `qgraph` alive
    /// for as long as this backend may run.
    void bind(const quant::QuantizedGraph& qgraph) { qgraph_ = &qgraph; }
    [[nodiscard]] const quant::QuantizedGraph& bound() const { return *qgraph_; }

    /// Per-run fault hooks. The injector consumes every MAC product of
    /// each conv as one block walk (flips become sparse corrections on the
    /// GEMM accumulators); runs with an injector or stats attached execute
    /// serially regardless of any thread pool: the flip stream is drawn
    /// conv by conv in schedule order and the stats are unsynchronized.
    void set_fault_hooks(inject::BitFlipInjector* injector, QuantExecStats* stats) {
        injector_ = injector;
        stats_ = stats;
    }

    /// Override the GEMM dispatch tier (defaults to the process-wide
    /// kernels_simd::active_tier()). Tests and benches use this to pin
    /// the scalar reference or compare tiers; every tier is bit-identical
    /// because the integer reduction is exact.
    void set_kernel_tier(kernels_simd::KernelTier tier) {
        tier_ = tier;
        packed_ = kernels_simd::packed_kernels(tier);
        quantize_kernel_ = kernels_simd::quantize_u8_kernel(tier);
        epilogue_kernel_ = kernels_simd::epilogue_kernel(tier);
    }
    [[nodiscard]] kernels_simd::KernelTier kernel_tier() const { return tier_; }

    /// The injector's flip stream is still drawn conv by conv in schedule
    /// order (each conv's block walk continues where the previous conv's
    /// ended), and the stats struct is unsynchronized: with either
    /// attached, the engine must keep exact schedule order and no conv
    /// splits its channels over the pool.
    [[nodiscard]] bool serial_only() const override {
        return injector_ != nullptr || stats_ != nullptr;
    }

    void prepare(const ExecPlan& plan, ExecContext& ctx) const override;
    void conv(const ConvCall& call, ExecContext& ctx) override;

private:
    const quant::QuantizedGraph* qgraph_;
    inject::BitFlipInjector* injector_ = nullptr;
    QuantExecStats* stats_ = nullptr;
    kernels_simd::KernelTier tier_ = kernels_simd::KernelTier::Scalar;
    kernels_simd::PackedKernels packed_{};                  ///< pack + GEMM of the tier
    kernels_simd::QuantizeU8Fn quantize_kernel_ = nullptr;  ///< null ⇒ scalar loop
    kernels_simd::EpilogueFn epilogue_kernel_ = nullptr;
};

}  // namespace raq::exec
