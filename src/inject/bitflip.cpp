#include "inject/bitflip.hpp"

#include <cmath>
#include <stdexcept>

namespace raq::inject {

BitFlipInjector::BitFlipInjector(const InjectionConfig& config)
    : config_(config), rng_(config.seed), log1p_neg_p_(std::log1p(-config.flip_probability)) {
    if (config_.flip_probability < 0.0 || config_.flip_probability > 1.0)
        throw std::invalid_argument("BitFlipInjector: probability outside [0,1]");
    if (config_.product_bits < 2 || config_.product_bits > 62)
        throw std::invalid_argument("BitFlipInjector: product_bits outside [2,62]");
    if (config_.candidate_msbs < 1 || config_.candidate_msbs > config_.product_bits)
        throw std::invalid_argument("BitFlipInjector: bad candidate_msbs");
    if (config_.flip_probability > 0.0) rearm();
}

void BitFlipInjector::reset(std::uint64_t seed) {
    rng_.reseed(seed);
    flips_ = 0;
    countdown_ = 0;
    if (config_.flip_probability > 0.0) rearm();
}

// Rng::next_geometric(p) with log1p(-p) hoisted: the same draws and bits.
void BitFlipInjector::rearm() {
    countdown_ = config_.flip_probability >= 1.0 ? 0 : rng_.next_geometric_log(log1p_neg_p_);
}

int BitFlipInjector::draw_bit() {
    ++flips_;
    return config_.product_bits - 1 -
           static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(config_.candidate_msbs)));
}

}  // namespace raq::inject
