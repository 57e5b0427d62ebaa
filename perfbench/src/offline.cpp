// paper-offline: the paper's own pipeline, single-threaded, no server.
// One round plans a 10-year lifetime (full Algorithm 1 via
// RequantJob::build at every standard ΔVth level, for every model) and
// then runs the Fig. 1b-style fault sweep (the 8-bit M2 baseline under
// MSB flips at fixed rates). A run makes the frozen number of rounds
// (`rounds`, for a run of the nominal length; scaled with --seconds), so
// its work does not depend on how fast the host is.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/compression_selector.hpp"
#include "core/requant_job.hpp"
#include "exec/plan_cache.hpp"
#include "inject/bitflip.hpp"
#include "layers.hpp"
#include "netlist/builders.hpp"
#include "npu/systolic.hpp"
#include "quant/evaluate.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "tests/seed_interpreter_ref.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace q = raq::quant;
namespace core = raq::core;

namespace {

/// Everything set-up builds: data split, models, selector, one
/// full-Algorithm-1 job per model, compiled plans, the fault-sweep runner.
struct OfflineEnv {
    std::unique_ptr<Data> data;
    raq::netlist::Netlist mac;
    std::unique_ptr<core::CompressionSelector> selector;
    std::vector<std::unique_ptr<Model>> models;
    std::vector<std::unique_ptr<core::RequantJob>> jobs;
    std::size_t inject_index = 0;  ///< into models
    std::unique_ptr<q::QuantizedGraph> inject_graph;
    std::unique_ptr<q::QuantRunner> inject_runner;
};

std::unique_ptr<OfflineEnv> set_up(const RunArgs& args) {
    const Params& p = args.params;
    auto env = std::make_unique<OfflineEnv>();
    env->data = std::make_unique<Data>(args.models_dir);
    env->mac = raq::netlist::build_mac_circuit();
    env->selector = std::make_unique<core::CompressionSelector>(
        env->mac, raq::cell::Library::finfet14());
    core::RequantJobConfig jc;
    jc.full_algorithm1 = true;
    jc.guardband_fraction = p.num("guardband");
    const std::vector<double> levels = p.nums("levels_mv");
    for (const std::string& name : p.tokens("models")) {
        env->models.push_back(load_model(*env->data, name));
        const Model& m = *env->models.back();
        env->jobs.push_back(std::make_unique<core::RequantJob>(
            m.graph, m.calib, *env->selector, jc, &env->data->eval_images,
            &env->data->eval_labels));
        // Compile the eval-batch plan the method search runs on.
        const auto choice = env->selector->select(levels.at(0), jc.guardband_fraction);
        const q::QuantizedGraph warm = q::quantize_graph(
            m.graph, q::Method::M5_AciqNoBias,
            q::QuantConfig::from_compression(choice->compression), m.calib);
        const q::QuantRunner runner(warm, 100);
        if (name == p.str("inject_model")) env->inject_index = env->models.size() - 1;
    }
    if (env->models[env->inject_index]->name != p.str("inject_model"))
        throw std::invalid_argument("inject_model must be one of models");
    env->inject_graph =
        std::make_unique<q::QuantizedGraph>(m2_baseline(*env->models[env->inject_index]));
    env->inject_runner =
        std::make_unique<q::QuantRunner>(*env->inject_graph, p.integer("inject_images"));
    return env;
}

struct Round {
    double algo1_s = 0.0;
    double bitflip_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> build_ms;  ///< model-major, level-minor
    std::vector<double> inject_us;
    std::vector<std::uint64_t> flips;
    std::vector<std::optional<core::ModelState>> states;
};

/// Moves the calling thread round-robin over the CPUs it may run on.
/// On a shared VM the vCPUs run at different speeds that change from
/// minute to minute (one thread's set-up time stepped by up to 1.7x
/// within a run on the reference host), and a lone busy thread stays on
/// one of them. Moving it before each operation
/// makes a single-threaded time average over every vCPU instead of
/// taking one vCPU's current speed. The work itself is unchanged.
class CpuRotor {
public:
    CpuRotor() {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
    ~CpuRotor() { restore(); }
    CpuRotor(const CpuRotor&) = delete;
    CpuRotor& operator=(const CpuRotor&) = delete;

    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        (void)sched_setaffinity(0, sizeof one, &one);
    }
    /// Lets the thread run anywhere again; threads it starts afterwards
    /// inherit that.
    void restore() {
        if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

Round run_round(const OfflineEnv& env, const RunArgs& args, std::uint64_t& generation,
                CpuRotor& rotor) {
    const Params& p = args.params;
    const std::vector<double> levels = p.nums("levels_mv");
    const std::vector<double> rates = p.nums("inject_rates");
    Round r;
    const double cpu0 = process_cpu_s();
    const auto t_round = Clock::now();
    for (const auto& job : env.jobs)
        for (const double level : levels) {
            rotor.next();
            const auto t0 = Clock::now();
            r.states.push_back(job->build(level, generation++));
            r.build_ms.push_back(seconds_since(t0) * 1e3);
        }
    r.algo1_s = seconds_since(t_round);
    const auto t_sweep = Clock::now();
    const raq::tensor::TensorView batch =
        env.data->eval_images.batch_view(0, p.integer("inject_images"));
    for (std::size_t i = 0; i < rates.size(); ++i) {
        raq::inject::InjectionConfig cfg;
        cfg.flip_probability = rates[i];
        cfg.seed = mix_seed(args.seed, 0xB17 + i);
        raq::inject::BitFlipInjector injector(cfg);
        q::QuantExecStats stats;
        rotor.next();
        const auto t0 = Clock::now();
        (void)env.inject_runner->run(batch, &injector, &stats);
        r.inject_us.push_back(seconds_since(t0) * 1e6);
        r.flips.push_back(stats.flips);
    }
    r.bitflip_s = seconds_since(t_sweep);
    r.wall_s = seconds_since(t_round);
    r.cpu_s = process_cpu_s() - cpu0;
    return r;
}

/// Planned-engine logits against the seed interpreter, clean and under
/// identically seeded injection.
void check_bit_identity(const OfflineEnv& env, const Round& first, const RunArgs& args,
                        Ledger& ledger) {
    const Params& p = args.params;
    const int n_check = kCheckImages;
    const int start = static_cast<int>(mix_seed(args.seed, 0xC4E) %
                                       static_cast<std::uint64_t>(kEvalImages - n_check));
    const raq::tensor::Tensor subset = slice_copy(env.data->eval_images, start, n_check);
    int identical = 0, total = 0;
    for (const auto& state : first.states) {
        if (!state) continue;
        ++total;
        q::QuantRunner runner(*state->qgraph, n_check);
        const raq::tensor::Tensor planned = runner.run(subset.batch_view(0, n_check));
        const raq::tensor::Tensor ref = raq::seedref::run_quantized(*state->qgraph, subset);
        if (bit_identical(planned.data(), planned.size(), ref.data(), ref.size())) ++identical;
    }
    ledger.check("offline.deployments_bit_identical", total > 0 && identical == total,
                 std::to_string(identical) + "/" + std::to_string(total) +
                     " deployments match the seed interpreter on " +
                     std::to_string(n_check) + " images from #" + std::to_string(start));

    const int n_inj = kInjectCheckImages;
    const int inj_start = static_cast<int>(mix_seed(args.seed, 0x1C4) %
                                           static_cast<std::uint64_t>(kEvalImages - n_inj));
    const raq::tensor::Tensor inj_subset = slice_copy(env.data->eval_images, inj_start, n_inj);
    const std::vector<double> rates = p.nums("inject_rates");
    bool all_ok = true;
    std::string detail;
    q::QuantRunner runner(*env.inject_graph, n_inj);
    for (std::size_t i = 0; i < rates.size(); ++i) {
        raq::inject::InjectionConfig cfg;
        cfg.flip_probability = rates[i];
        cfg.seed = mix_seed(args.seed, 0xB17 + i);
        raq::inject::BitFlipInjector a(cfg), b(cfg);
        q::QuantExecStats sa, sb;
        const raq::tensor::Tensor planned = runner.run(inj_subset.batch_view(0, n_inj), &a, &sa);
        const raq::tensor::Tensor ref =
            raq::seedref::run_quantized(*env.inject_graph, inj_subset, &b, &sb);
        const bool same = bit_identical(planned.data(), planned.size(), ref.data(), ref.size()) &&
                          a.flips_injected() == b.flips_injected() && sa.flips == sb.flips;
        all_ok = all_ok && same;
        detail += (i ? ", " : "") + std::to_string(a.flips_injected()) + "/" +
                  std::to_string(b.flips_injected()) + " flips";
    }
    ledger.check("offline.injected_bit_identical", all_ok,
                 detail + " (planned/seed, " + std::to_string(n_inj) + " images)");
}

/// Mean quality and simulated throughput of a round's deployments.
struct Quality {
    double loss_pp = 0.0;  ///< top-1 loss vs FP32, percentage points
    double acc_pct = 0.0;
    double sim_ips = 0.0;  ///< aged-NPU inferences/s (cycle model × aged clock)
};

Quality evaluate_quality(const OfflineEnv& env, const Round& round,
                         const std::vector<double>& levels) {
    const raq::npu::SystolicArrayModel array;
    Quality out;
    int deployed = 0;
    for (std::size_t m = 0; m < env.models.size(); ++m) {
        const double cycles =
            static_cast<double>(array.analyze(env.models[m]->graph).total_cycles);
        const double fp32 = env.jobs[m]->fp32_accuracy();
        for (std::size_t l = 0; l < levels.size(); ++l) {
            const auto& state = round.states[m * levels.size() + l];
            if (!state) continue;
            const double acc = q::quantized_accuracy(*state->qgraph, env.data->eval_images,
                                                     env.data->eval_labels);
            out.loss_pp += 100.0 * (fp32 - acc);
            out.acc_pct += 100.0 * acc;
            out.sim_ips += 1e12 / (cycles * state->aged_delay_ps);
            ++deployed;
        }
    }
    if (deployed > 0) {
        out.loss_pp /= deployed;
        out.acc_pct /= deployed;
        out.sim_ips /= deployed;
    }
    return out;
}

}  // namespace

void run_paper_offline(const RunArgs& args, Ledger& ledger) {
    const Params& p = args.params;
    const std::vector<double> levels = p.nums("levels_mv");
    const std::vector<std::string> rate_names = p.tokens("inject_rates");
    std::unique_ptr<OfflineEnv> env;
    std::vector<double> setup_s;
    CpuRotor rotor;
    const auto set_up_env = [&args, &rotor] {
        rotor.next();
        return set_up(args);
    };
    time_set_ups(args.trace ? 1 : kSetupsBefore, env, set_up_env, setup_s);

    // Timed phase: a fixed number of whole rounds. The first round's
    // deployments are checked and evaluated between rounds, outside every
    // timed interval; each later round must select the same deployments
    // and flips. Every round's deployments are freed before the next.
    const int n_rounds =
        args.trace ? 1 : std::max(1, static_cast<int>(std::lround(p.num("rounds") * args.scale)));
    const std::uint64_t misses0 = raq::exec::PlanCache::global().stats().misses;
    std::uint64_t generation = 1, infeasible = 0, ops = 0;
    bool deterministic = true;
    std::vector<std::optional<std::pair<raq::common::Compression, q::Method>>> deployed;
    Quality quality;
    std::vector<Round> rounds;
    for (int round = 0; round < n_rounds; ++round) {
        Round r = run_round(*env, args, generation, rotor);
        ops += r.states.size() + r.inject_us.size();
        for (std::size_t i = 0; i < r.states.size(); ++i) {
            const auto& st = r.states[i];
            if (!st) ++infeasible;
            if (rounds.empty()) {
                deployed.push_back(st ? std::make_optional(std::make_pair(st->compression,
                                                                          st->method))
                                      : std::nullopt);
            } else if (st && (!deployed[i] || !(deployed[i]->first == st->compression) ||
                              deployed[i]->second != st->method)) {
                deterministic = false;
            }
        }
        if (rounds.empty()) {
            check_bit_identity(*env, r, args, ledger);
            if (!args.trace) quality = evaluate_quality(*env, r, levels);
        } else if (r.flips != rounds.front().flips) {
            deterministic = false;
        }
        r.states.clear();
        rounds.push_back(std::move(r));
    }
    const std::uint64_t plan_misses = raq::exec::PlanCache::global().stats().misses - misses0;
    const Round& first = rounds.front();

    ledger.count(ops, infeasible);
    ledger.check("offline.builds_feasible", infeasible == 0,
                 std::to_string(ops - infeasible) + "/" + std::to_string(ops) + " operations");
    ledger.check("offline.rounds_deterministic", deterministic,
                 std::to_string(rounds.size()) + " rounds select the same deployments and flips");

    if (!args.trace) {
        // Build percentiles per model: pooled, an even mix of two models
        // puts the median in the gap between their clusters. The reported
        // p50_ms/p90_ms are those of the last model (resnet20-mini).
        std::vector<std::vector<double>> builds(env->models.size());
        std::vector<double> algo1, bitflip, cpu;
        for (const Round& r : rounds) {
            for (std::size_t i = 0; i < r.build_ms.size(); ++i)
                builds[i / levels.size()].push_back(r.build_ms[i]);
            algo1.push_back(r.algo1_s);
            bitflip.push_back(r.bitflip_s);
            cpu.push_back(r.cpu_s);
        }
        for (std::size_t m = 0; m < env->models.size(); ++m)
            ledger.metric("build_p50_ms." + env->models[m]->name, median(builds[m]), "ms");
        ledger.metric("p50_ms", median(builds.back()), "ms");
        ledger.metric("p90_ms", percentile(builds.back(), 90.0), "ms");
        ledger.metric("p99_ms", percentile(builds.back(), 99.0), "ms");
        ledger.metric("cpu_s", median(cpu), "s");
        ledger.metric("sim_ips", quality.sim_ips, "inf/s");
        ledger.metric("ok_pct", 100.0 * static_cast<double>(ops - infeasible) /
                                    static_cast<double>(ops),
                      "%");
        ledger.metric("acc_pct", quality.acc_pct, "%");
        ledger.metric("peak_rss_mb", peak_rss_mb(), "MB");
        // The workload's own figures, by the names the paper pipeline uses.
        ledger.metric("algo1_s", median(algo1), "s");
        ledger.metric("bitflip_s", median(bitflip), "s");
        ledger.metric("acc_loss_pp", quality.loss_pp, "pp");
        ledger.metric("rounds", static_cast<double>(rounds.size()), "count");
        time_set_ups(kSetupsAfter, env, set_up_env, setup_s);
        record_setup(ledger, setup_s);
        return;
    }

    // Traced run (one round): per-layer metrics from outside the library.
    rotor.restore();
    const Model& inject_model = *env->models[env->inject_index];
    const std::vector<double> inject_builds(
        first.build_ms.begin() + static_cast<long>(env->inject_index * levels.size()),
        first.build_ms.begin() + static_cast<long>((env->inject_index + 1) * levels.size()));
    core::RequantJobConfig jc;
    jc.full_algorithm1 = true;
    jc.guardband_fraction = p.num("guardband");
    probe_core_quant(ledger, inject_model, *env->selector, *env->data, jc, levels,
                     median(inject_builds));
    const int n_inj = p.integer("inject_images");
    const double clean_us = probe_exec(ledger, *env->inject_graph, env->data->eval_images, n_inj);
    ledger.metric("exec.plan_misses", static_cast<double>(plan_misses), "count");
    ledger.metric("obs.overhead_frac", ledger.get("exec.hooked_run_us") / clean_us - 1.0,
                  "share");
    std::vector<double> slowdown;
    for (std::size_t i = 0; i < rate_names.size(); ++i) {
        ledger.metric("inject.run_us." + rate_names[i], first.inject_us[i], "us");
        ledger.metric("inject.flips." + rate_names[i], static_cast<double>(first.flips[i]),
                      "count");
        slowdown.push_back(first.inject_us[i] / clean_us);
    }
    ledger.metric("inject.slowdown", median(slowdown), "x");
    probe_npu(ledger, inject_model.graph);
    for (std::size_t m = 0; m < env->models.size(); ++m) {
        std::vector<double> per_model(first.build_ms.begin() + static_cast<long>(m * levels.size()),
                                      first.build_ms.begin() +
                                          static_cast<long>((m + 1) * levels.size()));
        ledger.metric("core.build_ms." + env->models[m]->name, median(per_model), "ms");
    }

    // Share of a round the timed layer calls account for.
    double calls_s = 0.0;
    for (const double ms : first.build_ms) calls_s += ms / 1e3;
    for (const double us : first.inject_us) calls_s += us / 1e6;
    ledger.metric("cover.e2e", calls_s / first.wall_s, "share");

    // The serve and net layers do no work here; probe them on a small
    // replicated fleet of the serving model so every layer is measured.
    // The probe's own exec.plan_misses, obs.overhead_frac and cover.e2e
    // describe its fleet, so only the figures this workload lacks are kept.
    const raq::aging::AgingModel aging;
    const Model* serve_model = env->models.front().get();
    raq::serve::ServeContext ctx;
    ctx.graph = &serve_model->graph;
    ctx.calib = &serve_model->calib;
    ctx.selector = env->selector.get();
    ctx.aging = &aging;
    ctx.eval_images = &env->data->eval_images;
    ctx.eval_labels = &env->data->eval_labels;
    raq::serve::ServeConfig cfg;
    cfg.num_devices = kProbeDevices;
    cfg.num_workers = kProbeDevices;
    cfg.max_batch = 8;
    const auto samples = make_samples(*env->data, 64, mix_seed(args.seed, 0x5A));
    const auto schedule =
        poisson_schedule(kProbeRps, kProbeSeconds, 1.0, 64, mix_seed(args.seed, 0x9B));
    Ledger probe;
    serve_probe(probe, ctx, cfg, kProbeNetLoops, kProbeConnections, schedule, samples,
                fresh_fleet_validator(*serve_model, *env->selector, aging.dvth_mv(0.0), samples));
    ledger.adopt(probe);
}

}  // namespace perfbench
