// perfbench: the benchmark binary. perfbench/run.py builds it and
// passes each workload's frozen parameters from perfbench/workloads.json.
//
//   perfbench --workload W --seed N --seconds S --nominal-seconds R
//             --trace 0|1 --models DIR --out FILE [--param key=value ...]
//   perfbench --warm --models DIR --param models=a,b     (train missing models)
//   perfbench --calibrate --models DIR [--param ...]     (derive frozen inputs)
//
// The frozen phase lengths are written for a run of R seconds
// (BENCHMARK.json's run_seconds); a run of S seconds scales them by S/R.
// Prints its report to stdout and writes the result JSON to --out. Exit
// status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "aging/aging_model.hpp"
#include "cell/library.hpp"
#include "common.hpp"
#include "core/compression_selector.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "netlist/builders.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
    std::fprintf(stderr, "perfbench: %s\n", msg);
    std::exit(2);
}

/// Closed-loop socket capacity of one fleet layout (requests/s).
double capacity(const raq::serve::ServeContext& ctx, const raq::serve::ServeConfig& cfg,
                const std::vector<net::EncodedSample>& samples, int connections) {
    raq::serve::NpuServer npu(ctx, cfg);
    raq::net::NetConfig ncfg;
    raq::net::Server front(npu, ncfg);
    raq::net::LoadGenConfig lg;
    lg.port = front.port();
    lg.connections = connections;
    lg.model = raq::net::TrafficModel::ClosedLoop;
    lg.total_requests = 20000;
    const raq::net::LoadReport r = raq::net::run_load(lg, samples);
    front.stop();
    npu.shutdown();
    return r.qps();
}

/// ΔVth at which the uncompressed MAC runs `ratio` × the fresh delay.
double dvth_for_ratio(const raq::core::CompressionSelector& selector, double ratio) {
    const raq::common::Compression none{};
    const double fresh = selector.delay_ps(0.0, none);
    double lo = 0.0, hi = 300.0;
    while (selector.delay_ps(hi, none) < ratio * fresh) hi += 50.0;
    for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        (selector.delay_ps(mid, none) < ratio * fresh ? lo : hi) = mid;
    }
    return hi;
}

/// Derives the numbers workloads.json freezes. Run once per reference
/// host; the benchmark itself never re-derives them.
void calibrate_inputs(const RunArgs& args) {
    Data data(args.models_dir);
    const auto model = load_model(data, "alexnet-mini");
    const raq::netlist::Netlist mac = raq::netlist::build_mac_circuit();
    const raq::core::CompressionSelector selector(mac, raq::cell::Library::finfet14());
    const raq::aging::AgingModel aging;
    raq::serve::ServeContext ctx;
    ctx.graph = &model->graph;
    ctx.calib = &model->calib;
    ctx.selector = &selector;
    ctx.aging = &aging;
    const auto samples = make_samples(data, 64, 1);

    raq::serve::ServeConfig steady;
    steady.num_devices = 2;
    steady.num_workers = 2;
    steady.max_batch = 8;
    const double cap_steady = capacity(ctx, steady, samples, 4);
    std::printf("serve-steady capacity: %.0f req/s -> low %.0f, mid %.0f, high %.0f\n",
                cap_steady, 0.15 * cap_steady, 0.30 * cap_steady, 0.60 * cap_steady);

    const double dvth = dvth_for_ratio(selector, 1.8);
    raq::serve::ServeConfig aged = steady;
    aged.num_shards = 2;
    aged.initial_age_step_years = aging.years_for_dvth(dvth);
    aged.device.guardband_fraction = 1.2;
    aged.device.age_acceleration = 0.0;
    const double cap_aged = capacity(ctx, aged, samples, 4);
    const double rate_high = 0.35 * cap_aged, rate_low = std::max(10.0, 0.02 * cap_aged);
    const double dur_high = args.params.num("dur_high"), dur_low = args.params.num("dur_low");
    raq::serve::NpuServer probe(ctx, raq::serve::ServeConfig{});
    const double busy_hours_per_request = static_cast<double>(probe.device(0).per_image_cycles()) *
                                          probe.device(0).clock_period_ps() * 1e-12 / 3600.0;
    probe.shutdown();
    const double expected = rate_high * dur_high + rate_low * dur_low + 64.0;
    const double acceleration =
        aging.years_for_dvth(7.0) * 8760.0 / (expected * busy_hours_per_request);
    std::printf("serve-aging: aged_dvth_mv %.6f, capacity %.0f req/s -> rate_high %.0f, "
                "rate_low %.0f, acceleration %.6g (dur_high %.1f s, dur_low %.1f s)\n",
                dvth, cap_aged, rate_high, rate_low, acceleration, dur_high, dur_low);
}

}  // namespace

int main(int argc, char** argv) try {
    RunArgs args;
    std::string out_path;
    double nominal_seconds = 0.0;
    bool warm = false, calibrate = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") args.workload = value();
        else if (a == "--seed") args.seed = std::stoull(value());
        else if (a == "--seconds") args.seconds = std::stod(value());
        else if (a == "--nominal-seconds") nominal_seconds = std::stod(value());
        else if (a == "--trace") args.trace = value() == "1";
        else if (a == "--models") args.models_dir = value();
        else if (a == "--out") out_path = value();
        else if (a == "--warm") warm = true;
        else if (a == "--calibrate") calibrate = true;
        else if (a == "--param") {
            const std::string kv = value();
            const auto eq = kv.find('=');
            if (eq == std::string::npos) usage("--param needs key=value");
            args.params.set(kv.substr(0, eq), kv.substr(eq + 1));
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (args.models_dir.empty()) usage("--models is required");
    if (warm) {
        Data data(args.models_dir);
        data.cache.ensure(args.params.tokens("models"));
        return 0;
    }
    if (calibrate) {
        calibrate_inputs(args);
        return 0;
    }
    if (out_path.empty()) usage("--out is required");
    if (!(args.seconds > 0.0)) usage("--seconds must be > 0");
    if (!(nominal_seconds > 0.0)) usage("--nominal-seconds must be > 0");
    args.scale = args.seconds / nominal_seconds;

    Ledger ledger;
    record_host(ledger);
    ledger.info("workload", args.workload);
    ledger.info("seed", std::to_string(args.seed));
    ledger.info("trace", args.trace ? "1" : "0");
    std::printf("perfbench: %s, seed %llu, %.1f s, trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    const double canary_before = host_canary_ms();
    if (args.workload == "paper-offline") run_paper_offline(args, ledger);
    else if (args.workload == "serve-steady") run_serve_steady(args, ledger);
    else if (args.workload == "serve-aging") run_serve_aging(args, ledger);
    else usage(("unknown workload " + args.workload).c_str());
    ledger.info("host_canary_ms", std::to_string(canary_before) + " before, " +
                                      std::to_string(host_canary_ms()) + " after");

    ledger.print(stdout);
    std::ofstream out(out_path);
    out << ledger.to_json() << "\n";
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
        return 2;
    }
    return ledger.correct() ? 0 : 1;
} catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
}
