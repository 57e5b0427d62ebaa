// Inputs shared by every workload: the frozen parameters handed over by
// the runner, the evaluation/calibration split, and loaded models.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/plan_cache.hpp"
#include "harness.hpp"
#include "ir/graph.hpp"
#include "nn/model_cache.hpp"
#include "quant/calibration.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Frozen workload parameters (`--param key=value`, from workloads.json).
class Params {
public:
    void set(const std::string& key, const std::string& value) { kv_[key] = value; }
    [[nodiscard]] const std::string& str(const std::string& key) const;
    [[nodiscard]] double num(const std::string& key) const;
    [[nodiscard]] int integer(const std::string& key) const;
    /// Comma-separated list, kept as the literal tokens (metric names
    /// reuse them, e.g. inject.run_us.1e-3).
    [[nodiscard]] std::vector<std::string> tokens(const std::string& key) const;
    [[nodiscard]] std::vector<double> nums(const std::string& key) const;

private:
    std::map<std::string, std::string> kv_;
};

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// `seconds` over the run length the frozen phase lengths are written
    /// for (BENCHMARK.json's run_seconds, passed as --nominal-seconds).
    double scale = 1.0;
    bool trace = false;
    std::string models_dir;
    Params params;
};

/// Stable 64-bit mix for deriving per-purpose seeds from the run seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

inline constexpr int kEvalImages = 500;   ///< the paper pipeline's eval split
inline constexpr int kCalibImages = 64;   ///< calibration batch

// Harness constants: how the benchmark measures and checks, not what it
// measures (the frozen workload inputs are in workloads.json).
/// setup_s is the median of kSetupsBefore set-ups before the timed phase
/// (the last is kept) and kSetupsAfter after it, so that it samples the
/// host across the whole run rather than its first seconds.
inline constexpr int kSetupsBefore = 5;
inline constexpr int kSetupsAfter = 4;
inline constexpr int kCheckImages = 32;        ///< images per seed-interpreter check
inline constexpr int kInjectCheckImages = 16;  ///< images per injected seed-interpreter check
inline constexpr int kSpotChecks = 32;         ///< quiesced socket-vs-in-process requests
inline constexpr int kProbeDevices = 2;        ///< replicated fleet of the offline serve probe
inline constexpr int kProbeNetLoops = 2;       ///< its event loops
inline constexpr int kProbeConnections = 4;    ///< its client connections
inline constexpr double kProbeRps = 3000.0;    ///< its offered rate
inline constexpr double kProbeSeconds = 3.0;   ///< each serve-probe pass, every workload
/// Flip rates of the inject probe in the serving workloads' traced runs:
/// paper-offline's frozen sweep rates, so every traced run reports the
/// same inject.* names.
inline const std::vector<std::string> kProbeInjectRates = {"1e-4", "1e-3", "1e-2"};

/// The dataset split every workload uses: the first 500 test images
/// (evaluation) and the first 64 training images (calibration).
struct Data {
    explicit Data(const std::string& models_dir);
    raq::nn::ModelCache cache;
    raq::tensor::Tensor eval_images;
    std::vector<int> eval_labels;
    raq::tensor::Tensor calib_images;
    std::vector<int> calib_labels;
};

/// A trained model, exported to IR and calibrated on the calibration batch.
struct Model {
    std::string name;
    raq::ir::Graph graph;
    raq::quant::CalibrationData calib;
};

[[nodiscard]] std::unique_ptr<Model> load_model(Data& data, const std::string& name);

/// Runs `n` full set-ups, each replacing `env` (so the last is kept) and
/// compiling its plans afresh, and appends their durations to `setup_s`.
template <typename Env, typename SetUp>
void time_set_ups(int n, std::unique_ptr<Env>& env, SetUp set_up, std::vector<double>& setup_s) {
    for (int i = 0; i < n; ++i) {
        env.reset();
        raq::exec::PlanCache::global().clear();
        const auto t0 = Clock::now();
        env = set_up();
        setup_s.push_back(seconds_since(t0));
    }
}

/// Records setup_s, the median of `setup_s`, and every sample as info.
void record_setup(Ledger& ledger, const std::vector<double>& setup_s);

/// Bitwise equality of two float buffers (NaN-safe, -0 ≠ +0).
[[nodiscard]] bool bit_identical(const float* a, std::size_t na, const float* b, std::size_t nb);

/// Copies `count` images starting at `start` out of `images`.
[[nodiscard]] raq::tensor::Tensor slice_copy(const raq::tensor::Tensor& images, int start,
                                             int count);

/// Host metadata every result records.
void record_host(Ledger& ledger);

/// Milliseconds the slowest of one fixed integer loop per hardware
/// thread takes, all run at once: recorded before and after each
/// workload so a result taken while other tenants slowed the host can
/// be recognised. Never a metric.
[[nodiscard]] double host_canary_ms();

}  // namespace perfbench
