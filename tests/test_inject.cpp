#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "inject/bitflip.hpp"

namespace {

using raq::inject::BitFlipInjector;
using raq::inject::InjectionConfig;

TEST(BitFlip, ZeroProbabilityNeverFlips) {
    InjectionConfig cfg;
    cfg.flip_probability = 0.0;
    BitFlipInjector injector(cfg);
    for (int i = 0; i < 10000; ++i) EXPECT_EQ(injector.apply(12345), 12345);
    EXPECT_EQ(injector.flips_injected(), 0u);
}

TEST(BitFlip, EmpiricalRateMatchesConfigured) {
    for (const double p : {1e-1, 1e-2, 1e-3}) {
        InjectionConfig cfg;
        cfg.flip_probability = p;
        cfg.seed = 7;
        BitFlipInjector injector(cfg);
        const int n = 400000;
        int flips = 0;
        for (int i = 0; i < n; ++i) flips += (injector.apply(0) != 0);
        const double rate = static_cast<double>(flips) / n;
        EXPECT_NEAR(rate, p, 0.25 * p + 1e-5) << "p=" << p;
        EXPECT_EQ(injector.flips_injected(), static_cast<std::uint64_t>(flips));
    }
}

TEST(BitFlip, FlipsLandInTopTwoBitsOnly) {
    InjectionConfig cfg;
    cfg.flip_probability = 0.5;
    cfg.product_bits = 16;
    cfg.candidate_msbs = 2;
    BitFlipInjector injector(cfg);
    bool saw_bit15 = false, saw_bit14 = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t out = injector.apply(0);
        if (out == 0) continue;
        EXPECT_TRUE(out == (1 << 15) || out == (1 << 14)) << out;
        saw_bit15 |= (out == (1 << 15));
        saw_bit14 |= (out == (1 << 14));
    }
    EXPECT_TRUE(saw_bit15);
    EXPECT_TRUE(saw_bit14);
}

TEST(BitFlip, FlipIsAnXorSoSetBitsClear) {
    InjectionConfig cfg;
    cfg.flip_probability = 1.0;  // flip every product
    cfg.product_bits = 16;
    cfg.candidate_msbs = 1;      // always bit 15
    BitFlipInjector injector(cfg);
    EXPECT_EQ(injector.apply(0), 1 << 15);
    EXPECT_EQ(injector.apply(1 << 15), 0);
    EXPECT_EQ(injector.apply((1 << 15) | 5), 5);
}

TEST(BitFlip, NarrowerRegisterMovesTheMsb) {
    // Used to model the LSB-padding shift of the product register.
    InjectionConfig cfg;
    cfg.flip_probability = 1.0;
    cfg.product_bits = 12;
    cfg.candidate_msbs = 1;
    BitFlipInjector injector(cfg);
    EXPECT_EQ(injector.apply(0), 1 << 11);
}

TEST(BitFlip, ResetRestoresDeterminism) {
    InjectionConfig cfg;
    cfg.flip_probability = 0.01;
    cfg.seed = 42;
    BitFlipInjector a(cfg), b(cfg);
    std::vector<std::int64_t> first;
    for (int i = 0; i < 5000; ++i) first.push_back(a.apply(1000));
    a.reset(42);
    for (int i = 0; i < 5000; ++i) {
        EXPECT_EQ(a.apply(1000), first[static_cast<std::size_t>(i)]);
        EXPECT_EQ(b.apply(1000), first[static_cast<std::size_t>(i)]);
    }
}

TEST(BitFlip, BlockWalkMatchesPerProductApply) {
    // walk(n) must report exactly the flips n apply() calls make (offset
    // and bit) and leave the stream where they leave it.
    using Flip = std::pair<std::uint64_t, int>;
    const struct {
        double p;
        int product_bits;
        int candidate_msbs;
    } cases[] = {{0.0, 16, 2}, {1e-5, 16, 2}, {1e-2, 16, 2}, {1.0, 16, 2}, {1e-2, 20, 3}};
    for (const auto& c : cases) {
        SCOPED_TRACE(::testing::Message() << "p=" << c.p << " bits=" << c.product_bits
                                          << " msbs=" << c.candidate_msbs);
        InjectionConfig cfg;
        cfg.flip_probability = c.p;
        cfg.product_bits = c.product_bits;
        cfg.candidate_msbs = c.candidate_msbs;
        cfg.seed = 2024;
        BitFlipInjector walker(cfg), applier(cfg);
        const auto expect_block = [&](std::uint64_t n) {
            std::vector<Flip> walked, applied;
            walker.walk(n, [&](std::uint64_t offset, int bit) {
                walked.emplace_back(offset, bit);
            });
            for (std::uint64_t i = 0; i < n; ++i) {
                const auto out = static_cast<std::uint64_t>(applier.apply(0));
                if (out != 0) applied.emplace_back(i, __builtin_ctzll(out));
            }
            EXPECT_EQ(walked, applied) << "block of " << n;
            EXPECT_EQ(walker.flips_injected(), applier.flips_injected()) << "block of " << n;
            for (const Flip& f : walked) {
                EXPECT_LT(f.second, c.product_bits);
                EXPECT_GE(f.second, c.product_bits - c.candidate_msbs);
            }
        };
        // The length up to and including the next flip, read off a copy
        // of the per-product stream (0 when none comes within the cap).
        const auto to_next_flip = [&]() -> std::uint64_t {
            BitFlipInjector probe = applier;
            for (std::uint64_t i = 1; i <= 5'000'000; ++i)
                if (probe.apply(0) != 0) return i;
            return 0;
        };
        std::mt19937_64 rng(7);
        expect_block(0);
        expect_block(1);
        expect_block(0);
        for (int r = 0; r < 6; ++r) expect_block(rng() % 50'000);
        for (int r = 0; r < 3; ++r) {
            const std::uint64_t n = to_next_flip();
            if (n == 0) break;
            expect_block(n);  // ends exactly on a flip
            expect_block(1);  // the product right after it
        }
        expect_block(300'000);
        if (c.p > 0.0) {
            EXPECT_GT(walker.flips_injected(), 0u);
        }
        // Both streams continue identically afterwards.
        for (int i = 0; i < 20'000; ++i) ASSERT_EQ(walker.apply(1000), applier.apply(1000)) << i;
    }
}

TEST(BitFlip, ConfigValidation) {
    InjectionConfig bad;
    bad.flip_probability = 1.5;
    EXPECT_THROW(BitFlipInjector{bad}, std::invalid_argument);
    InjectionConfig bad2;
    bad2.product_bits = 1;
    EXPECT_THROW(BitFlipInjector{bad2}, std::invalid_argument);
    InjectionConfig bad3;
    bad3.candidate_msbs = 20;
    EXPECT_THROW(BitFlipInjector{bad3}, std::invalid_argument);
}

}  // namespace
