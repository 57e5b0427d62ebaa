// Tests for the planned execution engine (src/exec/).
//
// The contract under test is strict bit-identity: planned execution (with
// arena reuse, cache-tiled integer GEMM, thread pools, zero-copy batch
// views) must reproduce the seed interpreters to the last bit. The float
// reference is ir::run_float_all (the retained seed walker); the
// quantized reference is the verbatim seed interpreter kept in
// tests/seed_interpreter_ref.hpp (shared with bench/exec_throughput), so
// the library no longer has to carry the duplicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "exec/engine.hpp"
#include "exec/kernels_simd.hpp"
#include "exec/plan_cache.hpp"
#include "exec/quant_backend.hpp"
#include "ir/float_executor.hpp"
#include "quant/calibration.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "seed_interpreter_ref.hpp"

namespace {

using namespace raq;

// ------------------------------------------------------------- fixtures

ir::Op relu_op(int in) {
    ir::Op op;
    op.kind = ir::OpKind::Relu;
    op.inputs = {in};
    return op;
}

ir::Op pool_op(int in, int kernel, int stride) {
    ir::Op op;
    op.kind = ir::OpKind::MaxPool2d;
    op.inputs = {in};
    op.pool = {kernel, stride};
    return op;
}

ir::Op gap_op(int in) {
    ir::Op op;
    op.kind = ir::OpKind::GlobalAvgPool;
    op.inputs = {in};
    return op;
}

ir::Op conv_op(int in, int in_c, int out_c, int k, int stride, int pad, std::mt19937& rng) {
    ir::Op op;
    op.kind = ir::OpKind::Conv2d;
    op.inputs = {in};
    op.conv = {in_c, out_c, k, k, stride, pad};
    op.weights.resize(static_cast<std::size_t>(out_c * in_c * k * k));
    op.bias.resize(static_cast<std::size_t>(out_c));
    std::uniform_real_distribution<float> dist(-0.5f, 0.5f);
    for (auto& w : op.weights) w = dist(rng);
    for (auto& b : op.bias) b = 0.1f * dist(rng);
    return op;
}

/// Straight conv/relu/pool/gap chain, a lowered-FC classifier at the end.
ir::Graph chain_graph(unsigned seed = 7) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 8, 8});
    const int c1 = g.add(conv_op(in, 3, 8, 3, 1, 1, rng));
    const int r1 = g.add(relu_op(c1));
    const int p1 = g.add(pool_op(r1, 2, 2));
    const int c2 = g.add(conv_op(p1, 8, 12, 3, 1, 1, rng));
    const int r2 = g.add(relu_op(c2));
    const int gp = g.add(gap_op(r2));
    g.set_output(g.add(conv_op(gp, 12, 5, 1, 1, 0, rng)));
    return g;
}

/// Branching graph: a residual Add plus a fire-style Concat, so several
/// intermediates are live at once and arena aliasing is actually at risk.
ir::Graph branch_graph(unsigned seed = 11) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 8, 8});
    const int c0 = g.add(conv_op(in, 3, 6, 3, 1, 1, rng));
    const int r0 = g.add(relu_op(c0));
    const int sq = g.add(conv_op(r0, 6, 4, 1, 1, 0, rng));
    const int rs = g.add(relu_op(sq));
    const int a1 = g.add(conv_op(rs, 4, 8, 3, 1, 1, rng));
    const int ra = g.add(relu_op(a1));
    const int a2 = g.add(conv_op(rs, 4, 8, 1, 1, 0, rng));
    ir::Op add;
    add.kind = ir::OpKind::Add;
    add.inputs = {ra, a2};
    const int sum = g.add(add);
    const int e1 = g.add(conv_op(rs, 4, 8, 1, 1, 0, rng));
    ir::Op cat;
    cat.kind = ir::OpKind::Concat;
    cat.inputs = {sum, e1};
    const int cc = g.add(cat);
    const int c3 = g.add(conv_op(cc, 16, 4, 1, 1, 0, rng));
    const int gp = g.add(gap_op(c3));
    g.set_output(g.add(conv_op(gp, 4, 3, 1, 1, 0, rng)));
    return g;
}

tensor::Tensor random_batch(int n, unsigned seed = 3) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
    tensor::Tensor batch({n, 3, 8, 8});
    for (auto& v : batch.vec()) v = dist(rng);
    return batch;
}

quant::QuantizedGraph quantize(const ir::Graph& graph, quant::Method method,
                               const quant::QuantConfig& config) {
    const tensor::Tensor calib_images = random_batch(12, 5);
    std::vector<int> labels(12, 0);
    const auto calib = quant::calibrate(graph, calib_images, labels);
    return quant::quantize_graph(graph, method, config, calib);
}

void expect_bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b,
                          const char* what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " element " << i;
}

/// Per-element, bounds-checked im2col: the definition the kernel must meet.
template <typename T>
std::vector<T> naive_im2col(const std::vector<T>& in, const tensor::Shape& s, int k,
                            int stride, int pad, int oh, int ow) {
    const std::size_t cols = static_cast<std::size_t>(s.n * oh * ow);
    std::vector<T> out(static_cast<std::size_t>(s.c * k * k) * cols);
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int ky = 0; ky < k; ++ky)
                for (int kx = 0; kx < k; ++kx)
                    for (int oy = 0; oy < oh; ++oy)
                        for (int ox = 0; ox < ow; ++ox) {
                            const int iy = oy * stride - pad + ky;
                            const int ix = ox * stride - pad + kx;
                            const bool inside = iy >= 0 && iy < s.h && ix >= 0 && ix < s.w;
                            out[static_cast<std::size_t>((c * k + ky) * k + kx) * cols +
                                static_cast<std::size_t>((n * oh + oy) * ow + ox)] =
                                inside ? in[static_cast<std::size_t>(
                                             ((n * s.c + c) * s.h + iy) * s.w + ix)]
                                       : T{0};
                        }
    return out;
}

/// Runs the library kernel on a sentinel-filled destination and plane and
/// compares its bytes with the naive reference (bytes, so a NaN sentinel
/// left behind in a float slot is caught too).
template <typename T>
void expect_im2col_matches(const std::vector<T>& in, const tensor::Shape& s, int k,
                           int stride, int pad, std::vector<T>& plane, T sentinel) {
    const int oh = tensor::conv_out_dim(s.h, k, stride, pad);
    const int ow = tensor::conv_out_dim(s.w, k, stride, pad);
    const std::vector<T> expected = naive_im2col(in, s, k, stride, pad, oh, ow);
    std::vector<T> columns(expected.size(), sentinel);
    if (plane.size() < tensor::im2col_plane_elems(s, pad))
        plane.resize(tensor::im2col_plane_elems(s, pad), sentinel);
    tensor::im2col_into(in.data(), s, k, k, stride, pad, columns.data(), oh, ow,
                        plane.data());
    EXPECT_EQ(std::memcmp(columns.data(), expected.data(), expected.size() * sizeof(T)), 0)
        << "n=" << s.n << " c=" << s.c << " h=" << s.h << " w=" << s.w << " k=" << k
        << " stride=" << stride << " pad=" << pad << " bytes=" << sizeof(T);
}

// ----------------------------------------------------------------- tests

TEST(ExecFloat, PlannedMatchesReferenceWalker) {
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        exec::FloatRunner runner(graph, 4);
        for (const int n : {1, 2, 4}) {
            const tensor::Tensor batch = random_batch(n, 20 + static_cast<unsigned>(n));
            const auto reference = ir::run_float_all(graph, batch);
            const tensor::Tensor planned = runner.run(batch);
            expect_bitwise_equal(
                planned, reference[static_cast<std::size_t>(graph.output_id())], "float");
        }
    }
}

TEST(ExecQuant, PlannedMatchesSeedInterpreter) {
    // Per-tensor asymmetric (zero-point corrections exercised), per-channel
    // ACIQ, and an LSB-padded low-bit config (shift path in the stats).
    const auto lsb_cfg = quant::QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const struct {
        quant::Method method;
        quant::QuantConfig config;
    } cases[] = {
        {quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}},
        {quant::Method::M4_Aciq, quant::QuantConfig{}},
        {quant::Method::M5_AciqNoBias, lsb_cfg},
    };
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        for (const auto& c : cases) {
            auto qgraph = quantize(graph, c.method, c.config);
            // Exercise the precision-scaling mask on one conv as well.
            for (std::size_t op = 0; op < qgraph.graph().ops().size(); ++op) {
                if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
                qgraph.conv(op).act_mask_bits = 2;
                break;
            }
            const tensor::Tensor batch = random_batch(3, 31);
            quant::QuantExecStats ref_stats, planned_stats;
            const tensor::Tensor reference =
                seedref::run_quantized(qgraph, batch, nullptr, &ref_stats);
            const tensor::Tensor planned =
                quant::run_quantized(qgraph, batch, nullptr, &planned_stats);
            expect_bitwise_equal(planned, reference, "quant");
            EXPECT_EQ(planned_stats.mac_count, ref_stats.mac_count);
            EXPECT_EQ(planned_stats.max_abs_accumulator, ref_stats.max_abs_accumulator);
            EXPECT_EQ(planned_stats.accumulator_overflows, ref_stats.accumulator_overflows);
        }
    }
}

TEST(ExecQuant, InjectionStreamMatchesSeedInterpreter) {
    // Injected flips ride the tiered GEMM as sparse i64 corrections; the
    // seed interpreter calls the injector once per product. Same seeded
    // stream, so logits, flip counts and every stats field must agree —
    // across rates (1.0 flips every product, pushing accumulators past
    // the acc32 bound), LSB padding, masked activations, batch sizes,
    // tiers, a thread pool, and one runner reused across all of them.
    const auto lsb_cfg = quant::QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const struct {
        const char* name;
        quant::Method method;
        quant::QuantConfig config;
        bool mask_first_conv;
    } configs[] = {
        {"M2", quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}, false},
        {"M5-lsb", quant::Method::M5_AciqNoBias, lsb_cfg, false},
        {"M2-mask2", quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}, true},
    };
    struct Injection {
        double rate;
        int product_bits;
        int candidate_msbs;
    };
    const Injection injections[] = {{1e-5, 16, 2}, {1e-4, 16, 2}, {1e-3, 16, 2},
                                    {1e-2, 16, 2}, {1.0, 16, 2},  {1e-2, 20, 3}};
    const exec::kernels_simd::KernelTier tiers[] = {exec::kernels_simd::KernelTier::Scalar,
                                                    exec::kernels_simd::active_tier()};
    exec::ThreadPool pool(2);
    std::uint64_t seed = 99;
    std::uint64_t total_flips = 0;
    for (const auto& graph : {chain_graph(), branch_graph()}) {
        for (const auto& c : configs) {
            auto qgraph = quantize(graph, c.method, c.config);
            for (std::size_t op = 0; c.mask_first_conv && op < qgraph.graph().ops().size();
                 ++op) {
                if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
                qgraph.conv(op).act_mask_bits = 2;
                break;
            }
            for (const auto tier : tiers) {
                for (exec::ThreadPool* runner_pool : {static_cast<exec::ThreadPool*>(nullptr),
                                                      &pool}) {
                    quant::QuantRunner runner(qgraph, 3, runner_pool);
                    runner.set_kernel_tier(tier);
                    for (const auto& inj : injections) {
                        for (const int n : {1, 3}) {
                            inject::InjectionConfig cfg;
                            cfg.flip_probability = inj.rate;
                            cfg.product_bits = inj.product_bits;
                            cfg.candidate_msbs = inj.candidate_msbs;
                            cfg.seed = ++seed;
                            const tensor::Tensor batch =
                                random_batch(n, 47 + static_cast<unsigned>(seed));
                            inject::BitFlipInjector ref_injector(cfg), planned_injector(cfg);
                            quant::QuantExecStats ref_stats, planned_stats;
                            const tensor::Tensor reference = seedref::run_quantized(
                                qgraph, batch, &ref_injector, &ref_stats);
                            const tensor::Tensor planned =
                                runner.run(batch, &planned_injector, &planned_stats);
                            SCOPED_TRACE(::testing::Message()
                                         << c.name << " tier="
                                         << exec::kernels_simd::tier_name(tier)
                                         << " pool=" << (runner_pool != nullptr)
                                         << " rate=" << inj.rate
                                         << " product_bits=" << inj.product_bits
                                         << " n=" << n);
                            expect_bitwise_equal(planned, reference, "injected");
                            EXPECT_EQ(planned_injector.flips_injected(),
                                      ref_injector.flips_injected());
                            EXPECT_EQ(planned_stats.flips, ref_stats.flips);
                            EXPECT_EQ(planned_stats.mac_count, ref_stats.mac_count);
                            EXPECT_EQ(planned_stats.max_abs_accumulator,
                                      ref_stats.max_abs_accumulator);
                            EXPECT_EQ(planned_stats.accumulator_overflows,
                                      ref_stats.accumulator_overflows);
                            if (inj.rate >= 1e-3) {
                                EXPECT_GT(planned_stats.flips, 0u);
                            }
                            total_flips += planned_stats.flips;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(total_flips, 0u);
}

TEST(ExecQuant, WideAccumulatorConvMatchesSeedInterpreter) {
    // kdim = 3700·3·3 = 33300 > INT32_MAX / 255² (33025), so the plan
    // cannot prove an i32 accumulator safe and every tier takes the i64
    // reference pack + GEMM. All codes 255 against zero-point-0 weights of
    // 255 drive the sums past INT32_MAX; the last channel's zero-point
    // 255 folds its weights to zero. Clean and injected runs must match
    // the seed interpreter in logits, flips and every stats field.
    std::mt19937 rng(37);
    ir::Graph graph;
    const int in = graph.add_input({1, 3700, 3, 3});
    graph.set_output(graph.add(conv_op(in, 3700, 3, 3, 1, 0, rng)));
    const exec::ExecPlan plan(graph, exec::PlanOptions{2, true});
    ASSERT_FALSE(plan.conv_geom(0)->acc32_safe);

    tensor::Tensor images({2, 3700, 3, 3});
    for (auto& v : images.vec()) v = 1.0f + static_cast<float>(rng() % 100) * 0.01f;
    const std::vector<int> labels(2, 0);
    auto qgraph = quant::quantize_graph(graph, quant::Method::M2_MinMaxAsymmetric,
                                        quant::QuantConfig{},
                                        quant::calibrate(graph, images, labels));
    quant::QConv& qc = qgraph.conv(0);
    std::fill(qc.qweights.begin(), qc.qweights.end(), std::uint8_t{255});
    qc.weight_q.assign(3, qc.wq(0));
    qc.weight_q[0].zero_point = 0;
    qc.weight_q[1].zero_point = 0;
    qc.weight_q[2].zero_point = 255;
    // Inputs far above the activation range clamp to code 255.
    tensor::Tensor batch({2, 3700, 3, 3});
    for (auto& v : batch.vec()) v = 1e6f;

    for (const auto tier : exec::kernels_simd::available_tiers()) {
        quant::QuantRunner runner(qgraph, 2);
        runner.set_kernel_tier(tier);
        for (const double rate : {0.0, 1e-2}) {
            SCOPED_TRACE(::testing::Message()
                         << exec::kernels_simd::tier_name(tier) << " rate=" << rate);
            inject::InjectionConfig cfg;
            cfg.flip_probability = rate;
            cfg.seed = 5;
            inject::BitFlipInjector ref_injector(cfg), planned_injector(cfg);
            inject::BitFlipInjector* ref_inj = rate > 0 ? &ref_injector : nullptr;
            inject::BitFlipInjector* planned_inj = rate > 0 ? &planned_injector : nullptr;
            quant::QuantExecStats ref_stats, planned_stats;
            const tensor::Tensor reference =
                seedref::run_quantized(qgraph, batch, ref_inj, &ref_stats);
            const tensor::Tensor planned = runner.run(batch, planned_inj, &planned_stats);
            expect_bitwise_equal(planned, reference, "wide");
            EXPECT_EQ(planned_injector.flips_injected(), ref_injector.flips_injected());
            EXPECT_EQ(planned_stats.flips, ref_stats.flips);
            EXPECT_EQ(planned_stats.mac_count, ref_stats.mac_count);
            EXPECT_EQ(planned_stats.max_abs_accumulator, ref_stats.max_abs_accumulator);
            EXPECT_EQ(planned_stats.accumulator_overflows, ref_stats.accumulator_overflows);
            EXPECT_GT(planned_stats.max_abs_accumulator,
                      std::int64_t{std::numeric_limits<std::int32_t>::max()});
            if (rate > 0) {
                EXPECT_GT(planned_stats.flips, 0u);
            }
        }
    }
}

TEST(ExecPlan, ArenaAliasesDeadIntermediatesSafely) {
    const ir::Graph graph = branch_graph();
    const exec::ExecPlan plan(graph, exec::PlanOptions{2, true});
    // Reuse must actually happen on a branching graph...
    EXPECT_LT(plan.arena_floats(), plan.total_tensor_floats());
    // ...without perturbing a single output bit (checked via the walker).
    exec::FloatBackend backend;
    exec::ExecContext ctx;
    const tensor::Tensor batch = random_batch(2, 13);
    const tensor::Tensor planned = exec::run(plan, backend, ctx, batch);
    const auto reference = ir::run_float_all(graph, batch);
    expect_bitwise_equal(planned, reference[static_cast<std::size_t>(graph.output_id())],
                         "arena");
    // A no-reuse plan needs the full sum.
    const exec::ExecPlan flat(graph, exec::PlanOptions{2, false});
    EXPECT_EQ(flat.arena_floats(), flat.total_tensor_floats());
}

TEST(ExecPlan, RejectsOversizedBatchesAndBadShapes) {
    const ir::Graph graph = chain_graph();
    const exec::ExecPlan plan(graph, exec::PlanOptions{2, true});
    exec::FloatBackend backend;
    exec::ExecContext ctx;
    EXPECT_THROW((void)exec::run(plan, backend, ctx, random_batch(3)),
                 std::invalid_argument);
    const tensor::Tensor wrong({1, 4, 8, 8});
    EXPECT_THROW((void)exec::run(plan, backend, ctx, wrong), std::invalid_argument);
    EXPECT_THROW(exec::ExecPlan(graph, exec::PlanOptions{0, true}), std::invalid_argument);
}

TEST(ExecRunner, CapacityGrowsOnDemand) {
    const ir::Graph graph = chain_graph();
    const auto qgraph = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    quant::QuantRunner small(qgraph, 2);
    const tensor::Tensor batch = random_batch(6, 77);
    const tensor::Tensor grown = small.run(batch);
    EXPECT_GE(small.plan().batch_capacity(), 6);
    expect_bitwise_equal(grown, seedref::run_quantized(qgraph, batch), "grown");
}

TEST(ExecRunner, RebindSwapsPayloadOnSharedPlan) {
    const ir::Graph graph = branch_graph();
    const auto qa = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    const auto qb = quantize(graph, quant::Method::M4_Aciq, {});
    const tensor::Tensor batch = random_batch(2, 91);

    quant::QuantRunner runner(qa, 2);
    expect_bitwise_equal(runner.run(batch), seedref::run_quantized(qa, batch), "bind a");
    runner.rebind(qb);
    expect_bitwise_equal(runner.run(batch), seedref::run_quantized(qb, batch), "rebind b");

    const auto other = quantize(chain_graph(), quant::Method::M2_MinMaxAsymmetric, {});
    EXPECT_THROW(runner.rebind(other), std::invalid_argument);
}

TEST(ExecThreading, PoolExecutionIsBitIdentical) {
    exec::ThreadPool pool(3);
    const ir::Graph graph = branch_graph();
    const auto qgraph = quantize(graph, quant::Method::M4_Aciq, {});
    const tensor::Tensor batch = random_batch(5, 101);

    exec::FloatRunner serial_f(graph, 5);
    exec::FloatRunner parallel_f(graph, 5, &pool);
    expect_bitwise_equal(parallel_f.run(batch), serial_f.run(batch), "float pool");

    quant::QuantRunner serial_q(qgraph, 5);
    quant::QuantRunner parallel_q(qgraph, 5, &pool);
    expect_bitwise_equal(parallel_q.run(batch), serial_q.run(batch), "quant pool");
}

TEST(ExecThreading, ConcurrentContextReuseMatchesSerial) {
    // The serve worker-pool pattern: one immutable shared plan, one
    // (context, backend) pair per thread, each reused across many runs.
    const ir::Graph graph = branch_graph();
    const auto qgraph = quantize(graph, quant::Method::M2_MinMaxAsymmetric, {});
    const exec::ExecPlan plan(qgraph.graph(), exec::PlanOptions{1, true});
    constexpr int kThreads = 4;
    constexpr int kRunsPerThread = 8;

    const tensor::Tensor images = random_batch(kThreads * kRunsPerThread, 55);
    std::vector<tensor::Tensor> serial(static_cast<std::size_t>(images.shape().n));
    {
        exec::QuantBackend backend(qgraph);
        exec::ExecContext ctx;
        for (int i = 0; i < images.shape().n; ++i)
            serial[static_cast<std::size_t>(i)] =
                exec::run(plan, backend, ctx, images.batch_view(i, 1));
    }

    std::vector<tensor::Tensor> parallel(static_cast<std::size_t>(images.shape().n));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            exec::QuantBackend backend(qgraph);  // per-thread mutable halves
            exec::ExecContext ctx;
            for (int r = 0; r < kRunsPerThread; ++r) {
                const int i = t * kRunsPerThread + r;
                parallel[static_cast<std::size_t>(i)] =
                    exec::run(plan, backend, ctx, images.batch_view(i, 1));
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (int i = 0; i < images.shape().n; ++i)
        expect_bitwise_equal(parallel[static_cast<std::size_t>(i)],
                             serial[static_cast<std::size_t>(i)], "concurrent");
}

/// Odd-everything graph: odd spatial dims (cols = n·oh·ow never a
/// multiple of any SIMD column group), odd channel counts (row-block
/// remainders) and odd kdim (k-pair padding in the packed pipeline) —
/// every remainder path of every microkernel runs.
ir::Graph odd_graph(unsigned seed = 17) {
    std::mt19937 rng(seed);
    ir::Graph g;
    const int in = g.add_input({1, 3, 7, 7});
    const int c1 = g.add(conv_op(in, 3, 5, 3, 1, 1, rng));   // kdim 27, cols n·49
    const int r1 = g.add(relu_op(c1));
    const int c2 = g.add(conv_op(r1, 5, 7, 3, 2, 0, rng));   // kdim 45, cols n·9
    const int r2 = g.add(relu_op(c2));
    const int gp = g.add(gap_op(r2));
    g.set_output(g.add(conv_op(gp, 7, 3, 1, 1, 0, rng)));    // kdim 7, cols n
    return g;
}

TEST(ExecSimd, EveryDispatchTierMatchesScalarBitForBit) {
    // The whole SIMD contract in one sweep: every available tier (pack
    // from plane, packed GEMM, vectorized quantize/epilogue) against
    // the scalar reference, across zero-point-heavy asymmetric quant,
    // per-channel ACIQ, an LSB-padded low-bit config with an act_mask,
    // and graphs with odd remainders in every GEMM dimension.
    const auto lsb_cfg = quant::QuantConfig::from_compression({2, 3, common::Padding::Lsb});
    const struct {
        quant::Method method;
        quant::QuantConfig config;
    } cases[] = {
        {quant::Method::M2_MinMaxAsymmetric, quant::QuantConfig{}},
        {quant::Method::M4_Aciq, quant::QuantConfig{}},
        {quant::Method::M5_AciqNoBias, lsb_cfg},
    };
    const auto shaped_batch = [](const ir::Graph& g, int n, unsigned seed) {
        std::mt19937 rng(seed);
        std::uniform_real_distribution<float> dist(-1.0f, 2.0f);
        tensor::Tensor batch(
            {n, g.input_shape().c, g.input_shape().h, g.input_shape().w});
        for (auto& v : batch.vec()) v = dist(rng);
        return batch;
    };
    for (const auto& graph : {chain_graph(), branch_graph(), odd_graph()}) {
        for (const auto& c : cases) {
            const tensor::Tensor calib_images = shaped_batch(graph, 12, 5);
            const std::vector<int> labels(12, 0);
            auto qgraph = quant::quantize_graph(
                graph, c.method, c.config,
                quant::calibrate(graph, calib_images, labels));
            for (std::size_t op = 0; op < qgraph.graph().ops().size(); ++op) {
                if (qgraph.graph().ops()[op].kind != ir::OpKind::Conv2d) continue;
                qgraph.conv(op).act_mask_bits = 2;
                break;
            }
            const tensor::Tensor batch = shaped_batch(graph, 3, 131);
            quant::QuantRunner scalar_runner(qgraph, 3);
            scalar_runner.set_kernel_tier(exec::kernels_simd::KernelTier::Scalar);
            const tensor::Tensor reference = scalar_runner.run(batch);
            for (const auto tier : exec::kernels_simd::available_tiers()) {
                if (tier == exec::kernels_simd::KernelTier::Scalar) continue;
                quant::QuantRunner runner(qgraph, 3);
                runner.set_kernel_tier(tier);
                EXPECT_EQ(runner.kernel_tier(), tier);
                expect_bitwise_equal(runner.run(batch), reference,
                                     exec::kernels_simd::tier_name(tier));
            }
        }
    }
}

TEST(ExecSimd, KernelFamiliesMatchScalarOnOddShapes) {
    // Direct microkernel-level check, below the conv plumbing: every
    // tier's pack + GEMM (and the i64 reference GEMM) against a naive
    // Σ_k (w − zw)·a loop, on shapes with remainders in rows (row block),
    // kdim (k-pair pad) and n (partial last column group), with extreme
    // weights (0 and 255) against zero-points 0, 128 and 255.
    namespace simd = exec::kernels_simd;
    const struct {
        std::size_t rows, kdim, n;
    } shapes[] = {{5, 7, 33}, {7, 27, 100}, {13, 61, 257}, {4, 64, 96}};
    const std::int32_t zero_points[] = {0, 128, 255};
    std::mt19937 rng(271);
    for (const auto& s : shapes) {
        std::vector<std::uint8_t> w(s.rows * s.kdim);
        std::vector<std::uint8_t> codes(s.kdim * s.n + simd::kCodeSlack);
        for (auto& v : w) {
            const unsigned pick = rng() % 3;
            v = static_cast<std::uint8_t>(pick == 0 ? 0 : pick == 1 ? 255 : rng() % 256);
        }
        for (auto& v : codes) v = static_cast<std::uint8_t>(rng() % 4 == 0 ? 255 : rng() % 256);
        const std::size_t wstride = simd::weight_stride(s.kdim);
        std::vector<std::int16_t> w16(s.rows * wstride);
        std::vector<std::int64_t> ref(s.rows * s.n);
        for (std::size_t r = 0; r < s.rows; ++r) {
            const std::int32_t zw = zero_points[r % 3];
            simd::widen_weights_u8(w.data() + r * s.kdim, s.kdim, zw, w16.data() + r * wstride);
            for (std::size_t j = 0; j < s.n; ++j) {
                std::int64_t sum = 0;
                for (std::size_t k = 0; k < s.kdim; ++k)
                    sum += (std::int64_t{w[r * s.kdim + k]} - zw) * codes[k * s.n + j];
                ref[r * s.n + j] = sum;
            }
        }
        // The codes as a plain [kdim, n] matrix: row k at k·n, column j at j.
        std::vector<std::uint32_t> koff(s.kdim), off(s.n);
        for (std::size_t k = 0; k < s.kdim; ++k) koff[k] = static_cast<std::uint32_t>(k * s.n);
        for (std::size_t j = 0; j < s.n; ++j) off[j] = static_cast<std::uint32_t>(j);
        simd::PlaneTile t;
        t.codes = codes.data();
        t.koff = koff.data();
        t.off = off.data();
        t.kdim = s.kdim;
        t.n = s.n;
        for (const std::size_t run : {std::size_t{16}, std::size_t{8}, std::size_t{4}})
            if (s.n % run == 0 && t.run == 1) t.run = run;
        for (const auto tier : simd::available_tiers()) {
            const simd::PackedKernels pk = simd::packed_kernels(tier);
            const std::size_t stride = simd::padded_cols(s.n, pk.col_group);
            std::vector<std::int16_t> packed(
                simd::packed_panel_elems(s.kdim, s.n, pk.col_group));
            pk.pack(t, packed.data());
            std::vector<std::int32_t> acc(s.rows * stride, -1);
            pk.gemm(w16.data(), wstride, s.rows, packed.data(), s.kdim, s.n, acc.data(), stride);
            for (std::size_t r = 0; r < s.rows; ++r)
                for (std::size_t j = 0; j < stride; ++j)
                    ASSERT_EQ(acc[r * stride + j], j < s.n ? ref[r * s.n + j] : 0)
                        << simd::tier_name(tier) << " r=" << r << " j=" << j;
        }
        const simd::PackedKernels reference = simd::packed_kernels(simd::KernelTier::Scalar);
        std::vector<std::int16_t> packed(simd::packed_panel_elems(s.kdim, s.n, 1));
        reference.pack(t, packed.data());
        std::vector<std::int64_t> acc64(s.rows * s.n, -1);
        simd::gemm_packed_i64(w16.data(), wstride, s.rows, packed.data(), s.kdim, s.n,
                              acc64.data(), s.n);
        EXPECT_EQ(acc64, ref) << "i64 reference";
    }
}

TEST(ExecSimd, EpilogueKernelsMatchReferenceWithStats) {
    // Every tier's epilogue and the i64 one against a naive loop: outputs
    // bit for bit, and the max-|corrected| / overflow reduction exactly,
    // with and without stats, over lengths with vector remainders. The
    // first values sit on the overflow boundary (|corrected| = over_at,
    // over_at − 1, and −over_at).
    namespace simd = exec::kernels_simd;
    std::mt19937 rng(313);
    std::uniform_int_distribution<std::int32_t> big(-(1 << 30), 1 << 30);
    std::uniform_int_distribution<std::int32_t> small(-(1 << 23), 1 << 23);
    constexpr float kScale = 0.0123f;
    for (const std::size_t n : {std::size_t{3}, std::size_t{7}, std::size_t{8},
                                std::size_t{37}, std::size_t{256}}) {
        for (const std::int32_t qb : {0, -12345, 1 << 29}) {
            for (const std::int64_t over_at : {std::int64_t{1}, std::int64_t{1} << 22,
                                               std::int64_t{1} << 30}) {
                std::vector<std::int32_t> acc(n);
                for (auto& v : acc) v = rng() % 2 ? big(rng) : small(rng);
                acc[0] = static_cast<std::int32_t>(over_at - qb);
                acc[1] = static_cast<std::int32_t>(over_at - 1 - qb);
                acc[2] = static_cast<std::int32_t>(-over_at - qb);
                std::vector<float> expected(n);
                std::int64_t max_abs = 0;
                std::uint64_t overflows = 0;
                for (std::size_t j = 0; j < n; ++j) {
                    const std::int64_t corrected = std::int64_t{acc[j]} + qb;
                    const std::int64_t mag = corrected < 0 ? -corrected : corrected;
                    max_abs = std::max(max_abs, mag);
                    if (mag >= over_at) ++overflows;
                    expected[j] = static_cast<float>(corrected) * kScale;
                }
                const auto check = [&](const char* what, const std::vector<float>& out,
                                       const simd::EpilogueStats* stats) {
                    SCOPED_TRACE(::testing::Message() << what << " n=" << n << " qb=" << qb
                                                      << " over_at=" << over_at);
                    EXPECT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(float)), 0);
                    if (stats == nullptr) return;
                    EXPECT_EQ(stats->max_abs, max_abs);
                    EXPECT_EQ(stats->overflows, overflows);
                };
                simd::EpilogueStats wide_stats;
                wide_stats.over_at = over_at;
                std::vector<float> out(n);
                const std::vector<std::int64_t> wide(acc.begin(), acc.end());
                simd::epilogue_i64(wide.data(), n, qb, kScale, out.data(), &wide_stats);
                check("i64", out, &wide_stats);
                for (const auto tier : simd::available_tiers()) {
                    const simd::EpilogueFn epi = simd::epilogue_kernel(tier);
                    simd::EpilogueStats stats;
                    stats.over_at = over_at;
                    epi(acc.data(), n, qb, kScale, out.data(), &stats);
                    check(simd::tier_name(tier), out, &stats);
                    std::fill(out.begin(), out.end(), 0.0f);
                    epi(acc.data(), n, qb, kScale, out.data(), nullptr);
                    check(simd::tier_name(tier), out, nullptr);
                }
            }
        }
    }
}

/// The im2col sweep's geometries: every (n, c, plane, k, stride, pad)
/// whose padded plane holds the kernel — non-square planes, the
/// compile-time row widths (4/8/16) and runtime ones, planes no larger
/// than the kernel.
template <typename Fn>
int for_each_conv_geometry(Fn&& fn) {
    const struct {
        int h, w;
    } planes[] = {{2, 3}, {3, 2}, {5, 16}, {9, 8}, {16, 7}, {4, 4}};
    int checked = 0;
    for (const int n : {1, 3})
        for (const int c : {1, 5})
            for (const auto& p : planes)
                for (const int k : {1, 2, 3, 5})
                    for (const int stride : {1, 2, 3})
                        for (const int pad : {0, 1, 2}) {
                            if (p.h + 2 * pad < k || p.w + 2 * pad < k) continue;
                            fn(tensor::Shape{n, c, p.h, p.w}, k, stride, pad);
                            ++checked;
                        }
    return checked;
}

TEST(ExecKernels, Im2colMatchesNaiveReference) {
    // Every slot of the column matrix is written (sentinel-filled first),
    // with exactly the reference's elements. Inputs are never zero, so a
    // zero in the columns can only be padding.
    std::mt19937 rng(97);
    const int checked =
        for_each_conv_geometry([&](const tensor::Shape& s, int k, int stride, int pad) {
            std::vector<float> in(s.size());
            for (auto& v : in) v = static_cast<float>(1 + rng() % 255) * 0.25f - 32.5f;
            std::vector<float> plane;
            expect_im2col_matches(in, s, k, stride, pad, plane,
                                  std::numeric_limits<float>::quiet_NaN());
        });
    EXPECT_EQ(checked, 780);

    // Stale border: one scratch plane serves a pad-1 conv over a wide
    // plane, then a pad-2 conv over a smaller one. The second conv's
    // border overlaps the first's interior and must still read zero.
    std::vector<float> shared_plane;
    const tensor::Shape first{2, 3, 9, 12};
    const tensor::Shape second{2, 3, 5, 4};
    expect_im2col_matches(std::vector<float>(first.size(), 7.0f), first, 3, 1, 1,
                          shared_plane, std::numeric_limits<float>::quiet_NaN());
    expect_im2col_matches(std::vector<float>(second.size(), -3.0f), second, 5, 1, 2,
                          shared_plane, std::numeric_limits<float>::quiet_NaN());
    EXPECT_GE(shared_plane.size(), tensor::im2col_plane_elems(first, 1));
}

/// Column `slot` of a packed record holds column column_in_slot(slot) of
/// its group: in order, except AVX2's lane-local 0–3, 8–11, 4–7, 12–15.
std::size_t column_in_slot(std::size_t slot, std::size_t col_group) {
    if (col_group != 16) return slot;
    return (slot % 8) / 4 * 8 + slot / 8 * 4 + slot % 4;
}

/// Naive pack of columns [j0, j0 + n) of a [kdim, cols] column matrix into
/// the panel layout of kernels_simd::PackFn, zero past the last column.
std::vector<std::int16_t> naive_pack(const std::vector<std::uint8_t>& columns,
                                     std::size_t kdim, std::size_t cols, std::size_t j0,
                                     std::size_t n, std::size_t col_group) {
    const std::size_t kp = (kdim + 1) / 2;
    std::vector<std::int16_t> panel(
        exec::kernels_simd::packed_panel_elems(kdim, n, col_group));
    for (std::size_t g = 0; g * col_group < n; ++g)
        for (std::size_t p = 0; p < kp; ++p)
            for (std::size_t slot = 0; slot < col_group; ++slot)
                for (std::size_t half = 0; half < 2; ++half) {
                    const std::size_t j = g * col_group + column_in_slot(slot, col_group);
                    const std::size_t k = 2 * p + half;
                    panel[(g * kp + p) * 2 * col_group + 2 * slot + half] =
                        j < n && k < kdim ? columns[k * cols + j0 + j] : 0;
                }
    return panel;
}

/// Lays the codes out as QuantBackend does (bordered_codes into a stale,
/// sentinel-filled scratch, then conv_operand), packs them with every
/// tier, whole and in 16-column tiles, into sentinel-filled panels, and
/// compares each panel and its untouched tail with the naive pack of the
/// naive im2col matrix.
void expect_pack_matches(const std::vector<std::uint8_t>& qin, const tensor::Shape& s, int k,
                         int stride, int pad, std::vector<std::uint8_t>& bordered) {
    namespace simd = exec::kernels_simd;
    const int oh = tensor::conv_out_dim(s.h, k, stride, pad);
    const int ow = tensor::conv_out_dim(s.w, k, stride, pad);
    const std::size_t kdim = static_cast<std::size_t>(s.c * k * k);
    const std::size_t cols = static_cast<std::size_t>(s.n * oh * ow);
    const std::vector<std::uint8_t> columns = naive_im2col(qin, s, k, stride, pad, oh, ow);
    std::vector<std::uint8_t> qx(qin);
    qx.resize(qin.size() + simd::kCodeSlack, 0xCD);
    if (bordered.size() < simd::bordered_code_elems(s, pad) + simd::kCodeSlack)
        bordered.resize(simd::bordered_code_elems(s, pad) + simd::kCodeSlack, 0xAB);
    std::vector<std::uint32_t> koff(kdim, 0xDEADBEEF), off(cols, 0xDEADBEEF);
    const simd::PlaneTile operand =
        simd::conv_operand(simd::bordered_codes(qx.data(), s, pad, bordered.data()), s, k, k,
                           stride, pad, oh, ow, koff.data(), off.data());
    ASSERT_EQ(operand.kdim, kdim);
    ASSERT_EQ(operand.n, cols);
    constexpr std::int16_t kSentinel = 0x7A7A;
    constexpr std::size_t kTail = 64;
    for (const auto tier : simd::available_tiers()) {
        const simd::PackedKernels pk = simd::packed_kernels(tier);
        for (const std::size_t tile : {cols, std::size_t{16}}) {
            for (std::size_t j0 = 0; j0 < cols; j0 += tile) {
                simd::PlaneTile t = operand;
                t.off = operand.off + j0;
                t.n = std::min(tile, cols - j0);
                const std::vector<std::int16_t> expected =
                    naive_pack(columns, kdim, cols, j0, t.n, pk.col_group);
                std::vector<std::int16_t> packed(expected.size() + kTail, kSentinel);
                pk.pack(t, packed.data());
                const bool tail_intact =
                    std::all_of(packed.begin() + static_cast<std::ptrdiff_t>(expected.size()),
                                packed.end(), [](std::int16_t v) { return v == kSentinel; });
                packed.resize(expected.size());
                EXPECT_TRUE(packed == expected && tail_intact)
                    << simd::tier_name(tier) << " n=" << s.n << " c=" << s.c << " h=" << s.h
                    << " w=" << s.w << " k=" << k << " stride=" << stride << " pad=" << pad
                    << " run=" << operand.run << " tile=" << tile << " j0=" << j0;
            }
        }
    }
}

TEST(ExecKernels, PackFromPlaneMatchesNaiveReference) {
    // The quantized conv's GEMM operand, packed straight from the
    // zero-bordered codes, equals the naive im2col matrix packed by the
    // naive loop — on every tier, over the im2col sweep's geometries
    // (contiguous, stride-2 and gathered column runs, odd kdim, column
    // counts that are no multiple of col_group). Codes are never zero, so
    // a zero in a panel can only be padding.
    std::mt19937 rng(131);
    std::vector<std::uint8_t> bordered;  // shared, so every case starts stale
    const int checked =
        for_each_conv_geometry([&](const tensor::Shape& s, int k, int stride, int pad) {
            std::vector<std::uint8_t> qin(s.size());
            for (auto& v : qin) v = static_cast<std::uint8_t>(1 + rng() % 255);
            expect_pack_matches(qin, s, k, stride, pad, bordered);
        });
    EXPECT_EQ(checked, 780);

    // Stale border: a pad-1 conv over a wide plane of 0xFF codes, then a
    // pad-2 conv over a smaller one. The second conv's border overlaps
    // the first's interior and must still read zero.
    std::vector<std::uint8_t> shared;
    const tensor::Shape first{2, 3, 9, 12};
    const tensor::Shape second{2, 3, 5, 4};
    expect_pack_matches(std::vector<std::uint8_t>(first.size(), 0xFF), first, 3, 1, 1, shared);
    expect_pack_matches(std::vector<std::uint8_t>(second.size(), 0x11), second, 5, 1, 2,
                        shared);
}

TEST(ExecThreading, LevelParallelRunsAreCountedAndBitIdentical) {
    // The serve-fleet pattern under TSan: several threads, each with a
    // device-private pool and its own runner, executing the same branch
    // graph (which has multi-op dependency levels) level-parallel and
    // concurrently. Outputs must match serial execution bit for bit and
    // the process-wide level-parallel counters must advance.
    const ir::Graph graph = branch_graph();
    const auto qgraph = quantize(graph, quant::Method::M4_Aciq, {});
    const tensor::Tensor batch = random_batch(4, 163);
    quant::QuantRunner serial(qgraph, 4);
    const tensor::Tensor reference = serial.run(batch);

    const std::uint64_t runs_before = exec::level_parallel_runs();
    const std::uint64_t levels_before = exec::level_parallel_levels();
    constexpr int kThreads = 3;
    std::vector<tensor::Tensor> outputs(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            exec::ThreadPool pool(2);  // device-private, like NpuDevice
            quant::QuantRunner runner(qgraph, 4, &pool);
            for (int r = 0; r < 4; ++r) outputs[static_cast<std::size_t>(t)] =
                runner.run(batch);
        });
    }
    for (auto& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t)
        expect_bitwise_equal(outputs[static_cast<std::size_t>(t)], reference,
                             "level-parallel");
    EXPECT_GE(exec::level_parallel_runs(), runs_before + kThreads * 4);
    EXPECT_GT(exec::level_parallel_levels(), levels_before);
}

TEST(ExecWalker, EagerFreeVisitsEveryTensorWithReferenceValues) {
    const ir::Graph graph = branch_graph();
    const tensor::Tensor batch = random_batch(2, 67);
    const auto reference = ir::run_float_all(graph, batch);
    std::vector<int> visits(static_cast<std::size_t>(graph.num_tensors()), 0);
    ir::for_each_float_tensor(graph, batch, [&](int id, const tensor::Tensor& t) {
        ++visits[static_cast<std::size_t>(id)];
        expect_bitwise_equal(t, reference[static_cast<std::size_t>(id)], "walker");
    });
    for (const int count : visits) EXPECT_EQ(count, 1);
}

TEST(TensorView, BatchViewIsZeroCopyAndEquivalent) {
    const tensor::Tensor images = random_batch(6, 42);
    const tensor::TensorView view = images.batch_view(2, 3);
    EXPECT_EQ(view.data, images.data() + 2 * images.size() / 6);  // aliases, no copy
    EXPECT_EQ(view.shape.n, 3);
    EXPECT_THROW((void)images.batch_view(4, 3), std::out_of_range);
    EXPECT_THROW((void)images.batch_view(-1, 2), std::out_of_range);

    // Running a view is identical to running a materialised copy.
    const ir::Graph graph = chain_graph();
    tensor::Tensor copy({3, 3, 8, 8});
    std::copy(view.data, view.data + view.size(), copy.data());
    exec::FloatRunner runner(graph, 3);
    expect_bitwise_equal(runner.run(view), runner.run(copy), "view");
}

TEST(IrGraph, TopologyEqualityIgnoresWeightsOnly) {
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // same wiring, different weights
    EXPECT_TRUE(ir::topology_equals(a, b));
    EXPECT_FALSE(ir::topology_equals(a, branch_graph()));
}

TEST(IrGraph, TopologyFingerprintFollowsEquality) {
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // same wiring, different weights
    EXPECT_EQ(ir::topology_fingerprint(a), ir::topology_fingerprint(b));
    EXPECT_NE(ir::topology_fingerprint(a), ir::topology_fingerprint(branch_graph()));
}

TEST(ExecPlanCache, SharesOnePlanPerTopologyAndCapacity) {
    exec::PlanCache cache(8);
    const ir::Graph a = chain_graph(1);
    const ir::Graph b = chain_graph(2);  // structurally identical
    const auto plan_a = cache.get(a, 4);
    const auto plan_b = cache.get(b, 4);
    EXPECT_EQ(plan_a.get(), plan_b.get());  // one compiled plan for both
    const auto plan_a8 = cache.get(a, 8);   // capacity is part of the key
    EXPECT_NE(plan_a.get(), plan_a8.get());
    const auto plan_branch = cache.get(branch_graph(), 4);
    EXPECT_NE(plan_a.get(), plan_branch.get());

    const exec::PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 3u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ExecPlanCache, EvictsLeastRecentlyUsed) {
    exec::PlanCache cache(2);
    const ir::Graph chain = chain_graph();
    (void)cache.get(chain, 1);
    (void)cache.get(chain, 2);
    (void)cache.get(chain, 1);  // touch capacity-1: capacity-2 becomes LRU
    (void)cache.get(chain, 3);  // evicts capacity-2
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    (void)cache.get(chain, 1);  // survived the eviction: still a hit
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 2u);
    (void)cache.get(chain, 2);  // was evicted: recompiles
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ExecPlanCache, RepeatedRequantizationsRecompileZeroPlans) {
    // The wrapper path (run_quantized) and every QuantRunner resolve
    // plans through the global cache: after the first compilation of a
    // (topology, capacity), successive re-quantizations of the same
    // model compile nothing.
    const ir::Graph graph = chain_graph();
    const tensor::Tensor batch = random_batch(2, 55);
    tensor::Tensor first;
    const auto before = exec::PlanCache::global().stats();
    for (int requant = 0; requant < 4; ++requant) {
        // Fresh payload each round — what online re-quantization produces.
        const auto qgraph = quantize(graph, quant::Method::M5_AciqNoBias, {});
        const tensor::Tensor out = quant::run_quantized(qgraph, batch);
        if (requant == 0)
            first = out;
        else
            expect_bitwise_equal(first, out, "requant round");
    }
    const auto after = exec::PlanCache::global().stats();
    // At most one compilation (zero when an earlier test already warmed
    // this topology/capacity in the process-wide cache)...
    EXPECT_LE(after.misses, before.misses + 1);
    // ...and every re-quantization after the first resolves from cache.
    EXPECT_GE(after.hits, before.hits + 3);
}

}  // namespace
