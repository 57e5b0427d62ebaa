// serve-steady and serve-aging: open-loop Poisson traffic over localhost
// TCP into net::Server → NpuServer, driven by the benchmark's own
// single-threaded open-loop client. Rates, phase lengths and the aging
// acceleration are frozen parameters; `--seconds` scales the phase
// lengths (and the acceleration inversely, so the reliability events
// land in the same phase).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "core/compression_selector.hpp"
#include "exec/plan_cache.hpp"
#include "layers.hpp"
#include "net/server.hpp"
#include "netlist/builders.hpp"
#include "obs/trace.hpp"
#include "quant/methods.hpp"
#include "quant/quant_executor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace q = raq::quant;
namespace serve = raq::serve;

std::vector<net::EncodedSample> make_samples(const Data& data, int count, std::uint64_t seed) {
    std::vector<net::EncodedSample> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const int idx = static_cast<int>(mix_seed(seed, static_cast<std::uint64_t>(i)) %
                                         static_cast<std::uint64_t>(kEvalImages));
        out.push_back(net::encode_sample(data.eval_images.batch_view(idx, 1)));
    }
    return out;
}

namespace {

/// One set-up of a serving workload: data, model, selector, the fleet
/// and its socket front-end.
struct ServeEnv {
    std::unique_ptr<Data> data;
    raq::netlist::Netlist mac;
    std::unique_ptr<raq::core::CompressionSelector> selector;
    raq::aging::AgingModel aging;
    std::unique_ptr<Model> model;
    serve::ServeContext ctx;
    std::unique_ptr<serve::NpuServer> npu;
    std::unique_ptr<raq::net::Server> front;

    ~ServeEnv() {
        if (front) front->stop();
        if (npu) npu->shutdown();
    }
};

std::unique_ptr<ServeEnv> set_up_context(const RunArgs& args) {
    auto env = std::make_unique<ServeEnv>();
    env->data = std::make_unique<Data>(args.models_dir);
    env->mac = raq::netlist::build_mac_circuit();
    env->selector = std::make_unique<raq::core::CompressionSelector>(
        env->mac, raq::cell::Library::finfet14());
    env->model = load_model(*env->data, args.params.str("model"));
    env->ctx.graph = &env->model->graph;
    env->ctx.calib = &env->model->calib;
    env->ctx.selector = env->selector.get();
    env->ctx.aging = &env->aging;
    env->ctx.eval_images = &env->data->eval_images;
    env->ctx.eval_labels = &env->data->eval_labels;
    return env;
}

raq::net::NetConfig net_config(int loops) {
    raq::net::NetConfig n;
    n.num_loops = loops;
    return n;
}

/// One whole set-up of a serving workload, as time_set_ups repeats it.
template <typename MakeConfig>
auto fleet_set_up(const RunArgs& args, MakeConfig make_config) {
    return [&args, make_config] {
        auto env = set_up_context(args);
        env->npu = std::make_unique<serve::NpuServer>(env->ctx, make_config(*env));
        env->front = std::make_unique<raq::net::Server>(
            *env->npu, net_config(args.params.integer("net_loops")));
        return env;
    };
}

/// p50 of one span kind across the sampled traces (NaN when absent).
double span_p50_us(const std::vector<raq::obs::TraceContext>& traces, raq::obs::SpanKind kind) {
    std::vector<double> us;
    for (const auto& t : traces)
        for (const auto& s : t.spans)
            if (s.kind == kind) us.push_back(static_cast<double>(s.end_us - s.start_us));
    return percentile(us, 50.0);
}

/// Layer counters and trace spans of one traced fleet after traffic.
void record_fleet_layers(Ledger& ledger, serve::NpuServer& npu, const raq::net::Server& front,
                         const PhaseResult& phase) {
    const serve::FleetStats fleet = npu.fleet_stats();
    double requests = 0.0, batches = 0.0;
    std::uint64_t requants = 0;
    std::vector<double> build_ms, swap_us;
    for (const serve::DeviceStats& d : fleet.devices) {
        requests += static_cast<double>(d.requests);
        batches += static_cast<double>(d.batches);
        requants += static_cast<std::uint64_t>(d.requant_count);
        for (const serve::RequantEvent& e : d.requant_events) {
            build_ms.push_back(e.build_ms);
            swap_us.push_back(e.swap_us);
        }
    }
    // In a shard group every request visits every stage.
    ledger.metric("serve.batch_mean", batches > 0.0 ? requests / batches : 0.0, "req");
    ledger.metric("serve.requants", static_cast<double>(requants), "count");
    if (!build_ms.empty()) {
        ledger.metric("serve.requant_build_ms", median(build_ms), "ms");
        ledger.metric("serve.swap_us", median(swap_us), "us");
    }
    std::uint64_t recuts = 0, triggers = 0;
    for (int g = 0; g < npu.num_shard_groups(); ++g) {
        const serve::RepartitionStats rp = npu.shard_group(g).repartition_stats();
        recuts += rp.recuts;
        triggers += rp.triggers;
    }
    ledger.metric("shard.recuts", static_cast<double>(recuts), "count");
    ledger.metric("shard.recut_useful_frac",
                  triggers > 0 ? static_cast<double>(recuts) / static_cast<double>(triggers)
                               : 0.0,
                  "share");
    double deferred = 0.0;
    if (serve::ReliabilityPlanner* planner = npu.planner()) {
        const serve::PlannerStats ps = planner->stats();
        deferred = static_cast<double>(ps.builds_deferred + ps.recuts_deferred);
    }
    ledger.metric("planner.deferred", deferred, "count");
    ledger.metric("scheduler.starvation_grants",
                  static_cast<double>(npu.scheduler().stats().starvation_grants), "count");
    ledger.metric("net.busy", static_cast<double>(front.stats().shed), "count");
    ledger.metric("loadgen.late_p99_ms", percentile(phase.late_ms, 99.0), "ms");

    if (const raq::obs::Telemetry* t = npu.telemetry()) {
        const auto traces = t->traces().snapshot();
        ledger.metric("serve.queue_us", span_p50_us(traces, raq::obs::SpanKind::Queue), "us");
        ledger.metric("serve.execute_us", span_p50_us(traces, raq::obs::SpanKind::Execute), "us");
        const double handoff = span_p50_us(traces, raq::obs::SpanKind::Handoff);
        if (!std::isnan(handoff)) ledger.metric("serve.handoff_us", handoff, "us");
        std::vector<double> total_ms;
        for (const auto& tr : traces) total_ms.push_back(static_cast<double>(tr.total_us()) / 1e3);
        // Share of the socket latency the server's own spans account for.
        ledger.metric("cover.e2e", percentile(total_ms, 50.0) / percentile(phase.latency_ms, 50.0),
                      "share");
        ledger.metric("serve.traces", static_cast<double>(traces.size()), "count");
    }
}

}  // namespace

Validator fresh_fleet_validator(const Model& model,
                                const raq::core::CompressionSelector& selector, double dvth_mv,
                                const std::vector<net::EncodedSample>& samples) {
    const auto choice = selector.select(dvth_mv, 0.0);
    const q::QuantizedGraph reference = q::quantize_graph(
        model.graph, q::Method::M5_AciqNoBias,
        q::QuantConfig::from_compression(choice->compression), model.calib);
    auto logits = std::make_shared<std::vector<std::vector<float>>>();
    q::QuantRunner runner(reference, 1);
    for (const auto& s : samples) {
        const raq::tensor::Tensor out = runner.run(s.reference.batch_view(0, 1));
        logits->emplace_back(out.data(), out.data() + out.size());
    }
    return [logits](const Arrival& a, const net::InferReply& r) {
        const auto& ref = (*logits)[a.sample];
        return r.generation == 1 &&
               bit_identical(r.logits.data(), r.logits.size(), ref.data(), ref.size());
    };
}

namespace {

raq::obs::TelemetryConfig traced_telemetry() {
    raq::obs::TelemetryConfig t;
    t.metrics = true;
    t.trace_sample_rate = 0.05;
    t.trace_reservoir = 512;
    return t;
}

}  // namespace

void serve_probe(Ledger& ledger, const serve::ServeContext& ctx,
                 const serve::ServeConfig& config, int net_loops, int connections,
                 const std::vector<Arrival>& schedule,
                 const std::vector<net::EncodedSample>& samples, const Validator& validate) {
    Outcomes socket;
    std::uint64_t mismatches = 0;
    // 1. Socket, telemetry off.
    double p50_off = 0.0;
    {
        serve::ServeConfig cfg = config;
        cfg.telemetry = raq::obs::TelemetryConfig{};
        serve::NpuServer npu(ctx, cfg);
        raq::net::Server front(npu, net_config(net_loops));
        PhaseResult r;
        {
            OpenLoopClient client(front.port(), connections);
            r = client.run(schedule, samples, validate);
        }
        front.stop();
        npu.shutdown();
        socket += r.outcomes;
        mismatches += r.mismatches;
        p50_off = percentile(r.latency_ms, 50.0);
    }
    // 2. Socket, metrics + 5 % trace sampling on.
    double p50_on = 0.0;
    {
        serve::ServeConfig cfg = config;
        cfg.telemetry = traced_telemetry();
        serve::NpuServer npu(ctx, cfg);
        raq::net::Server front(npu, net_config(net_loops));
        const std::uint64_t misses0 = raq::exec::PlanCache::global().stats().misses;
        PhaseResult r;
        {
            OpenLoopClient client(front.port(), connections);
            r = client.run(schedule, samples, validate);
        }
        front.stop();
        npu.shutdown();
        socket += r.outcomes;
        mismatches += r.mismatches;
        ledger.metric("exec.plan_misses",
                      static_cast<double>(raq::exec::PlanCache::global().stats().misses - misses0),
                      "count");
        p50_on = percentile(r.latency_ms, 50.0);
        record_fleet_layers(ledger, npu, front, r);
    }
    // 3. In-process, telemetry off: the same schedule without the socket.
    {
        serve::ServeConfig cfg = config;
        cfg.telemetry = raq::obs::TelemetryConfig{};
        serve::NpuServer npu(ctx, cfg);
        const InprocResult r = replay_inproc(npu, schedule, samples);
        npu.shutdown();
        const double inproc_p50 = percentile(r.latency_ms, 50.0);
        ledger.metric("serve.submit_us", percentile(r.submit_us, 50.0), "us");
        ledger.metric("serve.inproc_p50_ms", inproc_p50, "ms");
        ledger.metric("serve.inproc_p99_ms", percentile(r.latency_ms, 99.0), "ms");
        ledger.metric("net.overhead_p50_ms", p50_off - inproc_p50, "ms");
        socket += r.outcomes;
    }
    ledger.metric("obs.overhead_frac", p50_on / p50_off - 1.0, "share");
    ledger.count(socket.sent, socket.failed());
    ledger.check("probe.every_request_answered",
                 socket.balanced() && socket.unanswered == 0 && socket.errors == 0,
                 std::to_string(socket.sent) + " sent over three passes, " +
                     std::to_string(socket.busy) + " busy");
    if (validate)
        ledger.check("probe.responses_bit_identical", mismatches == 0,
                     std::to_string(mismatches) + " socket answers differ from serial logits");
}

namespace {

/// Engine-side probes shared by both serving workloads (core, quant,
/// exec, inject, npu on the serving model).
void probe_serving_model(Ledger& ledger, const ServeEnv& env, const RunArgs& args,
                         double guardband, double dvth_mv) {
    raq::core::RequantJobConfig jc;
    jc.guardband_fraction = guardband;
    probe_core_quant(ledger, *env.model, *env.selector, *env.data, jc, {dvth_mv}, 0.0);
    const auto choice = env.selector->select(dvth_mv, guardband);
    const q::QuantizedGraph deployed = q::quantize_graph(
        env.model->graph, q::Method::M5_AciqNoBias,
        q::QuantConfig::from_compression(choice->compression), env.model->calib);
    (void)probe_exec(ledger, deployed, env.data->eval_images, 100);
    const q::QuantizedGraph m2 = m2_baseline(*env.model);
    q::QuantRunner clean(m2, 100);
    const auto view = env.data->eval_images.batch_view(0, 100);
    (void)clean.run(view);
    std::vector<double> clean_us;
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        (void)clean.run(view);
        clean_us.push_back(seconds_since(t0) * 1e6);
    }
    probe_inject(ledger, m2, env.data->eval_images, 100, kProbeInjectRates, args.seed,
                 median(clean_us));
    probe_npu(ledger, env.model->graph);
}

double cpu_per_1000(double cpu_s, std::uint64_t ok) {
    return ok > 0 ? cpu_s * 1000.0 / static_cast<double>(ok) : cpu_s * 1000.0;
}

}  // namespace

void run_serve_steady(const RunArgs& args, Ledger& ledger) {
    const Params& p = args.params;
    const double scale = args.scale;
    const int conns = p.integer("connections");
    const auto make_config = [&p](const ServeEnv&) {
        serve::ServeConfig cfg;
        cfg.num_devices = p.integer("devices");
        cfg.num_workers = p.integer("workers");
        cfg.max_batch = p.integer("max_batch");
        return cfg;
    };
    std::unique_ptr<ServeEnv> env;
    std::vector<double> setup_s;
    const auto set_up = fleet_set_up(args, make_config);
    time_set_ups(args.trace ? 1 : kSetupsBefore, env, set_up, setup_s);
    const int n_samples = p.integer("samples");
    const auto samples = make_samples(*env->data, n_samples, mix_seed(args.seed, 0x5A));

    if (args.trace) {
        env->front->stop();
        env->npu->shutdown();
        const auto schedule = poisson_schedule(p.num("rate_mid"), kProbeSeconds, 1.0,
                                               static_cast<std::uint32_t>(n_samples),
                                               mix_seed(args.seed, 0x9B));
        serve_probe(ledger, env->ctx, make_config(*env), p.integer("net_loops"), conns,
                    schedule, samples,
                    fresh_fleet_validator(*env->model, *env->selector, env->aging.dvth_mv(0.0),
                                          samples));
        probe_serving_model(ledger, *env, args, 0.0, 0.0);
        return;
    }

    const Validator validate =
        fresh_fleet_validator(*env->model, *env->selector, env->aging.dvth_mv(0.0), samples);

    auto client = std::make_unique<OpenLoopClient>(env->front->port(), conns);
    const auto phase = [&](const char* rate_key, double seconds, std::uint64_t salt) {
        return client->run(poisson_schedule(p.num(rate_key), seconds, 1.0,
                                           static_cast<std::uint32_t>(n_samples),
                                           mix_seed(args.seed, salt)),
                          samples, validate);
    };
    const double cpu0 = process_cpu_s(), client0 = thread_cpu_s();
    const PhaseResult low = phase("rate_low", p.num("dur_low") * scale, 1);
    const PhaseResult mid = phase("rate_mid", p.num("dur_mid") * scale, 2);
    const PhaseResult high = phase("rate_high", p.num("dur_high") * scale, 3);
    const double server_cpu = (process_cpu_s() - cpu0) - (thread_cpu_s() - client0);
    const serve::FleetStats fleet = env->npu->fleet_stats();
    // Before the ladder: its overload steps queue requests, and how far
    // it climbs varies, so its memory would blur the fixed-rate figure.
    const double rss_mb = peak_rss_mb();

    // Rate ladder: the highest rate whose p99 meets the limit with
    // every request answered and no backlog building within the step.
    const double limit_ms = p.num("p99_limit_ms");
    double max_rps = 0.0;
    std::uint64_t ladder_mismatches = 0;
    Outcomes ladder_out;
    std::uint64_t salt = 10;
    for (const double rate : p.nums("ladder_rps")) {
        const PhaseResult r = client->run(
            poisson_schedule(rate, p.num("ladder_step_s") * scale, 1.0,
                             static_cast<std::uint32_t>(n_samples), mix_seed(args.seed, salt++)),
            samples, validate);
        ladder_out += r.outcomes;
        ladder_mismatches += r.mismatches;
        std::vector<double> early, late;
        const std::int64_t half = r.due_latency.empty() ? 0 : r.due_latency.back().first / 2;
        for (const auto& [due, ms] : r.due_latency) (due < half ? early : late).push_back(ms);
        const bool backlog = !early.empty() && !late.empty() &&
                             percentile(late, 50.0) > 2.0 * percentile(early, 50.0) + 0.5;
        const bool pass = r.outcomes.failed() == 0 &&
                          percentile(r.latency_ms, 99.0) <= limit_ms && !backlog;
        std::printf("ladder %8.0f rps: p99 %.3f ms, failed %llu, backlog %s -> %s\n", rate,
                    percentile(r.latency_ms, 99.0),
                    static_cast<unsigned long long>(r.outcomes.failed()), backlog ? "yes" : "no",
                    pass ? "meets" : "misses");
        if (!pass) break;
        max_rps = rate;
    }
    const double acc = env->npu->sample_accuracy(0, kEvalImages);

    Outcomes rated = low.outcomes;
    rated += mid.outcomes;
    rated += high.outcomes;
    const std::uint64_t mismatches = low.mismatches + mid.mismatches + high.mismatches;
    ledger.count(rated.sent + ladder_out.sent, rated.failed() + ladder_out.failed());
    ledger.check("steady.responses_bit_identical",
                 mismatches + ladder_mismatches == 0 && rated.ok > 0,
                 std::to_string(rated.ok + ladder_out.ok) +
                     " OK responses vs serial QuantRunner logits, generation 1; mismatches " +
                     std::to_string(mismatches + ladder_mismatches));
    ledger.check("steady.every_request_answered",
                 rated.balanced() && rated.unanswered == 0 && rated.errors == 0 &&
                     ladder_out.unanswered == 0 && ladder_out.errors == 0,
                 std::to_string(rated.sent) + " sent at fixed rates, " +
                     std::to_string(rated.busy) + " busy");

    ledger.metric("p50_ms", percentile(mid.latency_ms, 50.0), "ms");
    ledger.metric("p99_ms", percentile(mid.latency_ms, 99.0), "ms");
    ledger.metric("cpu_s", cpu_per_1000(server_cpu, rated.ok), "s");
    ledger.metric("sim_ips", fleet.sim_throughput_ips(), "inf/s");
    ledger.metric("ok_pct", 100.0 * (1.0 - fail_frac(rated)), "%");
    ledger.metric("acc_pct", 100.0 * acc, "%");
    ledger.metric("peak_rss_mb", rss_mb, "MB");
    ledger.metric("p50_ms.low", percentile(low.latency_ms, 50.0), "ms");
    ledger.metric("p99_ms.high", percentile(high.latency_ms, 99.0), "ms");
    ledger.metric("p90_ms", percentile(mid.latency_ms, 90.0), "ms");
    ledger.metric("max_rps", max_rps, "req/s");
    ledger.metric("fail_frac", fail_frac(rated), "share");
    ledger.metric("loadgen.late_p99_ms", percentile(mid.late_ms, 99.0), "ms");
    ledger.metric("samples.mid", static_cast<double>(mid.latency_ms.size()), "count");

    client.reset();
    time_set_ups(kSetupsAfter, env, set_up, setup_s);
    record_setup(ledger, setup_s);
}

void run_serve_aging(const RunArgs& args, Ledger& ledger) {
    const Params& p = args.params;
    const double scale = args.scale;
    const int conns = p.integer("connections");
    const double aged_dvth = p.num("aged_dvth_mv");
    const auto make_config = [&p, &args, scale, aged_dvth](const ServeEnv& env) {
        serve::ServeConfig cfg;
        cfg.num_devices = p.integer("devices");
        cfg.num_workers = p.integer("workers");
        cfg.max_batch = p.integer("max_batch");
        cfg.num_shards = p.integer("shards");
        cfg.initial_age_step_years = env.aging.years_for_dvth(aged_dvth);
        cfg.device.guardband_fraction = p.num("guardband");
        cfg.device.requant_threshold_mv = p.num("threshold_mv");
        cfg.device.age_acceleration = p.num("acceleration") / scale;
        cfg.background_requant = true;
        cfg.repartition.enabled = true;
        cfg.repartition.imbalance_ratio = p.num("imbalance_ratio");
        cfg.repartition.min_batches = p.integer("min_batches");
        cfg.repartition.poll_ms = p.integer("poll_ms");
        cfg.planner.enabled = true;
        if (args.trace) cfg.telemetry = traced_telemetry();
        return cfg;
    };
    std::unique_ptr<ServeEnv> env;
    std::vector<double> setup_s;
    const auto set_up = fleet_set_up(args, make_config);
    time_set_ups(args.trace ? 1 : kSetupsBefore, env, set_up, setup_s);
    const int n_samples = p.integer("samples");
    const auto samples = make_samples(*env->data, n_samples, mix_seed(args.seed, 0x5A));
    const double frac = p.num("interactive_frac");

    PhaseResult high, low;
    const double cpu0 = process_cpu_s(), client0 = thread_cpu_s();
    {
        OpenLoopClient client(env->front->port(), conns);
        high = client.run(poisson_schedule(p.num("rate_high"), p.num("dur_high") * scale, frac,
                                           static_cast<std::uint32_t>(n_samples),
                                           mix_seed(args.seed, 1)),
                          samples, {});
        low = client.run(poisson_schedule(p.num("rate_low"), p.num("dur_low") * scale, frac,
                                          static_cast<std::uint32_t>(n_samples),
                                          mix_seed(args.seed, 2)),
                         samples, {});
    }
    const double server_cpu = (process_cpu_s() - cpu0) - (thread_cpu_s() - client0);
    const serve::FleetStats fleet = env->npu->fleet_stats();

    // Quiesced spot-check: socket answers against in-process submission
    // of the same reconstructed tensors on the same fleet.
    std::vector<std::pair<std::uint32_t, std::vector<float>>> captured;
    const int spot_n = kSpotChecks;
    std::vector<Arrival> spot;
    for (int i = 0; i < spot_n; ++i)
        spot.push_back(Arrival{static_cast<std::int64_t>(i) * 5000,
                               static_cast<std::uint32_t>(i % n_samples),
                               static_cast<std::uint8_t>(i & 1)});
    PhaseResult spot_r;
    {
        OpenLoopClient client(env->front->port(), 1);
        spot_r = client.run(spot, samples, [&captured](const Arrival& a, const net::InferReply& r) {
            captured.emplace_back(a.sample, r.logits);
            return true;
        });
    }
    std::size_t spot_identical = 0;
    for (const auto& [sample, logits] : captured) {
        const serve::InferenceResult ref = env->npu->submit(samples[sample].reference).get();
        if (bit_identical(logits.data(), logits.size(), ref.logits.data(), ref.logits.size()))
            ++spot_identical;
    }
    const double acc = env->npu->sample_accuracy(0, kEvalImages);

    Outcomes all = high.outcomes;
    all += low.outcomes;
    int requants = 0;
    for (const serve::DeviceStats& d : fleet.devices) requants += d.requant_count;
    const std::uint64_t recuts = env->npu->shard_group(0).repartition_stats().recuts;
    ledger.count(all.sent + spot_r.outcomes.sent, all.failed() + spot_r.outcomes.failed());
    ledger.check("aging.lossless",
                 all.balanced() && all.unanswered == 0 && all.errors == 0 &&
                     spot_r.outcomes.ok == static_cast<std::uint64_t>(spot_n),
                 std::to_string(all.sent) + " sent, " + std::to_string(all.ok) + " ok, " +
                     std::to_string(all.busy) + " busy");
    ledger.check("aging.generation_partition_monotonic", high.monotonic && low.monotonic,
                 "per connection, in arrival order");
    ledger.check("aging.spot_check_matches_inproc",
                 !captured.empty() && spot_identical == captured.size(),
                 std::to_string(spot_identical) + "/" + std::to_string(captured.size()) +
                     " quiesced socket answers equal in-process results");
    ledger.check("aging.reliability_work_ran", requants >= 1,
                 std::to_string(requants) + " requants, " + std::to_string(recuts) +
                     " re-cuts beside the traffic");

    std::vector<double> late = high.late_ms;
    late.insert(late.end(), low.late_ms.begin(), low.late_ms.end());
    if (args.trace) {
        record_fleet_layers(ledger, *env->npu, *env->front, high);
        ledger.metric("loadgen.late_p99_ms", percentile(late, 99.0), "ms");
        // Engine-side and in-process figures come from probes: a fresh
        // fleet of the same layout without aging acceleration, at the
        // high rate, so the probe itself triggers no reliability work.
        Ledger probe;
        env->front->stop();
        env->npu->shutdown();
        serve::ServeConfig cfg = make_config(*env);
        cfg.device.age_acceleration = 0.0;
        cfg.repartition.enabled = false;
        const auto schedule =
            poisson_schedule(p.num("rate_high"), kProbeSeconds, frac,
                             static_cast<std::uint32_t>(n_samples), mix_seed(args.seed, 0x9B));
        serve_probe(probe, env->ctx, cfg, p.integer("net_loops"), conns, schedule, samples, {});
        ledger.adopt(probe);  // the in-process, net and obs figures, and plan misses
        probe_serving_model(ledger, *env, args, p.num("guardband"), 0.0);
        return;
    }

    std::vector<double> lat = high.latency_ms;
    lat.insert(lat.end(), low.latency_ms.begin(), low.latency_ms.end());
    std::vector<double> inter = high.class_latency_ms[0], batch = high.class_latency_ms[1];
    inter.insert(inter.end(), low.class_latency_ms[0].begin(), low.class_latency_ms[0].end());
    batch.insert(batch.end(), low.class_latency_ms[1].begin(), low.class_latency_ms[1].end());
    ledger.metric("p50_ms", percentile(lat, 50.0), "ms");
    ledger.metric("p99_ms", percentile(lat, 99.0), "ms");
    ledger.metric("cpu_s", cpu_per_1000(server_cpu, all.ok), "s");
    ledger.metric("sim_ips", fleet.sim_throughput_ips(), "inf/s");
    ledger.metric("ok_pct", 100.0 * (1.0 - fail_frac(all)), "%");
    ledger.metric("acc_pct", 100.0 * acc, "%");
    ledger.metric("peak_rss_mb", peak_rss_mb(), "MB");
    ledger.metric("p90_ms", percentile(lat, 90.0), "ms");
    ledger.metric("interactive_p99_ms", percentile(inter, 99.0), "ms");
    ledger.metric("batch_p99_ms", percentile(batch, 99.0), "ms");
    ledger.metric("fail_frac", fail_frac(all), "share");
    ledger.metric("serve.requants", requants, "count");
    ledger.metric("shard.recuts", static_cast<double>(recuts), "count");
    ledger.metric("loadgen.late_p99_ms", percentile(late, 99.0), "ms");

    time_set_ups(kSetupsAfter, env, set_up, setup_s);
    record_setup(ledger, setup_s);
}

}  // namespace perfbench
