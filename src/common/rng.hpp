// Deterministic pseudo-random number generation used across the project.
//
// Every stochastic component (dataset synthesis, weight init, error
// injection, random test vectors) takes an explicit seed so experiments
// are reproducible run-to-run.
#pragma once

#include <cmath>
#include <cstdint>

namespace raq::common {

/// SplitMix64: used to expand a single user seed into stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Derive an independent stream seed from a base seed and stream ids.
/// Used wherever work is fanned out across threads/devices/requests: each
/// unit of work seeds its own generator from (base, ids...), so results
/// do not depend on thread scheduling and runs are reproducible.
constexpr std::uint64_t stream_seed(std::uint64_t base, std::uint64_t stream) noexcept {
    std::uint64_t s = base ^ (stream * 0x9e3779b97f4a7c15ULL);
    return splitmix64(s);
}
constexpr std::uint64_t stream_seed(std::uint64_t base, std::uint64_t a,
                                    std::uint64_t b) noexcept {
    return stream_seed(stream_seed(base, a), b);
}

/// xoshiro256** — fast, high-quality 64-bit generator.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x243f6a8885a308d3ULL) noexcept { reseed(seed); }

    void reseed(std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    std::uint64_t next_u64() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform in [0, 1).
    double next_double() noexcept {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Uniform in [0, 1) single precision.
    float next_float() noexcept {
        return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
    }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint64_t next_below(std::uint64_t bound) noexcept {
        // Lemire's nearly-divisionless bounded sampling (bias negligible
        // for our bounds, which are far below 2^64).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t next_int(std::int64_t lo, std::int64_t hi) noexcept {
        return lo + static_cast<std::int64_t>(
                        next_below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Standard normal via Box–Muller (polar-free variant; caches nothing).
    double next_gaussian() noexcept {
        double u1 = next_double();
        while (u1 <= 1e-300) u1 = next_double();
        const double u2 = next_double();
        return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    }

    /// Bernoulli(p).
    bool next_bool(double p) noexcept { return next_double() < p; }

    /// Geometric sampling: number of Bernoulli(p) failures before the first
    /// success. Used to skip ahead between rare injected faults.
    std::uint64_t next_geometric(double p) noexcept {
        if (p >= 1.0) return 0;
        if (p <= 0.0) return ~0ULL;
        return next_geometric_log(std::log1p(-p));
    }

    /// next_geometric(p) for 0 < p < 1, given log1p(-p): the same draws
    /// and bits, without recomputing the logarithm for every draw at one p.
    std::uint64_t next_geometric_log(double log1p_neg_p) noexcept {
        double u = next_double();
        while (u <= 1e-300) u = next_double();
        return static_cast<std::uint64_t>(std::log(u) / log1p_neg_p);
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
};

}  // namespace raq::common
