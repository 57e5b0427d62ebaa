#include "layers.hpp"

#include <memory>

#include "inject/bitflip.hpp"
#include "npu/systolic.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"

namespace perfbench {

namespace q = raq::quant;

namespace {

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }
double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

}  // namespace

void probe_core_quant(Ledger& ledger, const Model& model,
                      const raq::core::CompressionSelector& selector, const Data& data,
                      const raq::core::RequantJobConfig& job, const std::vector<double>& levels,
                      double build_ms) {
    std::vector<double> select_us;
    for (int rep = 0; rep < 5; ++rep)
        for (const double level : levels) {
            const auto t0 = Clock::now();
            const auto choice = selector.select(level, job.guardband_fraction);
            select_us.push_back(us_since(t0));
            if (!choice) throw std::runtime_error("probe: no feasible compression");
        }
    ledger.metric("core.select_us", median(select_us), "us");

    std::vector<double> calib_ms;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        const auto calib = q::calibrate(model.graph, data.calib_images, data.calib_labels);
        calib_ms.push_back(ms_since(t0));
    }
    ledger.metric("quant.calibrate_ms", median(calib_ms), "ms");

    // The method search's own calls, in its order, over one runner.
    const auto choice = selector.select(levels.at(0), job.guardband_fraction);
    const auto qconfig = q::QuantConfig::from_compression(choice->compression);
    std::unique_ptr<q::QuantRunner> runner;
    double quantize_ms = 0.0, eval_ms = 0.0, fast_quantize_ms = 0.0;
    for (const q::Method method : q::all_methods()) {
        auto t0 = Clock::now();
        auto qgraph =
            std::make_shared<const q::QuantizedGraph>(q::quantize_graph(model.graph, method,
                                                                        qconfig, model.calib));
        const double qms = ms_since(t0);
        quantize_ms += qms;
        if (method == q::Method::M5_AciqNoBias) fast_quantize_ms = qms;
        t0 = Clock::now();
        if (!runner)
            runner = std::make_unique<q::QuantRunner>(std::move(qgraph), 100);
        else
            runner->rebind(std::move(qgraph));
        (void)q::quantized_accuracy(*runner, data.eval_images, data.eval_labels);
        eval_ms += ms_since(t0);
    }
    ledger.metric("quant.quantize_ms", quantize_ms, "ms");
    ledger.metric("quant.eval_ms", eval_ms, "ms");

    const double select_ms = median(select_us) / 1e3;
    if (job.full_algorithm1) {
        if (!(build_ms > 0.0)) throw std::invalid_argument("probe: full builds are timed by the workload");
        ledger.metric("core.build_ms", build_ms, "ms");
        // A full build is select + every method's quantize + eval + the
        // final quantize of the selected method.
        ledger.metric("quant.cover",
                      (select_ms + quantize_ms + eval_ms + fast_quantize_ms) / build_ms, "share");
        return;
    }
    // Fast path: a build is select + one M5 quantize. Time the build and
    // its two calls alternately so both see the same cache state.
    const raq::core::RequantJob probe_job(model.graph, model.calib, selector, job);
    std::vector<double> builds, calls;
    for (std::uint64_t i = 0; i < 7; ++i) {
        const double level = levels[i % levels.size()];
        auto t0 = Clock::now();
        const auto state = probe_job.build(level, i + 1);
        builds.push_back(ms_since(t0));
        if (!state) throw std::runtime_error("probe: infeasible build");
        t0 = Clock::now();
        const auto c = selector.select(level, job.guardband_fraction);
        (void)q::quantize_graph(model.graph, q::Method::M5_AciqNoBias,
                                q::QuantConfig::from_compression(c->compression), model.calib);
        calls.push_back(ms_since(t0));
    }
    ledger.metric("core.build_ms", median(builds), "ms");
    ledger.metric("quant.cover", median(calls) / median(builds), "share");
}

double probe_exec(Ledger& ledger, const q::QuantizedGraph& qgraph,
                  const raq::tensor::Tensor& images, int batch) {
    q::QuantRunner runner(qgraph, batch);
    const raq::tensor::TensorView view = images.batch_view(0, batch);
    (void)runner.run(view);  // warm the arena and caches
    std::vector<double> clean_us;
    for (int rep = 0; rep < 7; ++rep) {
        const auto t0 = Clock::now();
        (void)runner.run(view);
        clean_us.push_back(us_since(t0));
    }
    const double run_us = median(clean_us);
    ledger.metric("exec.run_us", run_us, "us");
    const double macs = static_cast<double>(qgraph.graph().macs_per_sample()) * batch;
    ledger.metric("exec.gmacs", macs / (run_us * 1e3), "GMAC/s");

    // level_us[i]: host µs of level i in each hooked run.
    std::vector<std::vector<double>> level_us;
    double level_sum_us = 0.0;
    runner.set_level_hook([&](int level, double host_us) {
        const auto i = static_cast<std::size_t>(level);
        if (level_us.size() <= i) level_us.resize(i + 1);
        level_us[i].push_back(host_us);
        level_sum_us += host_us;
    });
    std::vector<double> hooked_us, cover;
    for (int rep = 0; rep < 7; ++rep) {
        level_sum_us = 0.0;
        const auto t0 = Clock::now();
        (void)runner.run(view);
        const double us = us_since(t0);
        hooked_us.push_back(us);
        cover.push_back(level_sum_us / us);
    }
    runner.set_level_hook({});
    // The level count is the graph's, so these names differ per model:
    // printed and kept in the result, not in BENCHMARK.json's list.
    for (std::size_t i = 0; i < level_us.size(); ++i)
        ledger.metric("exec.level_us." + std::to_string(i), median(level_us[i]), "us");
    ledger.metric("exec.level_cover", median(cover), "share");
    ledger.metric("exec.hooked_run_us", median(hooked_us), "us");
    return run_us;
}

void probe_inject(Ledger& ledger, const q::QuantizedGraph& qgraph,
                  const raq::tensor::Tensor& images, int batch,
                  const std::vector<std::string>& rates, std::uint64_t seed,
                  double clean_run_us) {
    q::QuantRunner runner(qgraph, batch);
    const raq::tensor::TensorView view = images.batch_view(0, batch);
    std::vector<double> slowdown;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        raq::inject::InjectionConfig cfg;
        cfg.flip_probability = std::stod(rates[i]);
        cfg.seed = mix_seed(seed, 0x1F0 + i);
        raq::inject::BitFlipInjector injector(cfg);
        q::QuantExecStats stats;
        const auto t0 = Clock::now();
        (void)runner.run(view, &injector, &stats);
        const double us = us_since(t0);
        ledger.metric("inject.run_us." + rates[i], us, "us");
        ledger.metric("inject.flips." + rates[i], static_cast<double>(stats.flips), "count");
        slowdown.push_back(us / clean_run_us);
    }
    ledger.metric("inject.slowdown", median(slowdown), "x");
}

void probe_npu(Ledger& ledger, const raq::ir::Graph& graph) {
    const raq::npu::SystolicArrayModel array;
    ledger.metric("npu.cycles_per_image", static_cast<double>(array.analyze(graph).total_cycles),
                  "count");
}

q::QuantizedGraph m2_baseline(const Model& model) {
    return q::quantize_graph(model.graph, q::Method::M2_MinMaxAsymmetric, q::QuantConfig{},
                             model.calib);
}

}  // namespace perfbench
