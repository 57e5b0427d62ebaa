// MSB bit-flip error injection (the paper's Fig. 1b methodology):
// "error injection is implemented by randomly flipping one of the two
// MSBs with a given probability" in every multiplication of the
// convolutional layers. The injector is a seeded stream over the
// sequence of MAC products: a geometric countdown to the next flip, then
// a uniform draw of the flipped bit. Its draws depend only on how many
// products it has consumed, never on their values, so the quantized
// executor consumes a whole conv's products as one block walk
// (`walk`) and gets the flip positions and bits without a per-product
// call; `apply` is the same stream one product at a time. Geometric
// skipping makes rare flip rates (10^-5) essentially free either way.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace raq::inject {

struct InjectionConfig {
    double flip_probability = 0.0;  ///< per-product probability of one flip
    int product_bits = 16;          ///< width of the multiplier product register
    int candidate_msbs = 2;         ///< flip lands in one of this many top bits
    std::uint64_t seed = 1;
};

class BitFlipInjector {
public:
    explicit BitFlipInjector(const InjectionConfig& config);

    /// Possibly flip one of the top `candidate_msbs` bits of `product`.
    /// Branch-predictable fast path: a countdown to the next flip drawn
    /// from the geometric distribution.
    [[nodiscard]] std::int64_t apply(std::int64_t product) {
        if (config_.flip_probability <= 0.0) return product;
        if (countdown_ > 0) {
            --countdown_;
            return product;
        }
        rearm();
        return product ^ (std::int64_t{1} << draw_bit());
    }

    /// Consume a block of `n` products and call `on_flip(offset, bit)`
    /// for each one that flips, in order (`offset` < n counts from the
    /// block's first product; the flipped product is `p ^ 1 << bit`).
    /// Leaves the RNG, the countdown and the flip count exactly as `n`
    /// calls to apply() would: per flip the geometric re-arm is drawn
    /// first, then the bit.
    template <typename OnFlip>
    void walk(std::uint64_t n, OnFlip&& on_flip) {
        if (config_.flip_probability <= 0.0) return;
        std::uint64_t pos = 0;
        while (n - pos > countdown_) {
            pos += countdown_;
            rearm();
            on_flip(pos, draw_bit());
            ++pos;
        }
        countdown_ -= n - pos;
    }

    [[nodiscard]] std::uint64_t flips_injected() const { return flips_; }
    [[nodiscard]] const InjectionConfig& config() const { return config_; }

    void reset(std::uint64_t seed);

private:
    /// Count one flip and draw its bit among the top `candidate_msbs`.
    [[nodiscard]] int draw_bit();
    void rearm();

    InjectionConfig config_;
    common::Rng rng_;
    double log1p_neg_p_;  ///< hoisted out of every geometric re-arm
    std::uint64_t countdown_ = 0;
    std::uint64_t flips_ = 0;
};

}  // namespace raq::inject
