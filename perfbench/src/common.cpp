#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exec/kernels_simd.hpp"

namespace perfbench {

const std::string& Params::str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::invalid_argument("missing workload parameter '" + key + "'");
    return it->second;
}

double Params::num(const std::string& key) const {
    const std::string& s = str(key);
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument("parameter '" + key + "' is not a number");
    return v;
}

int Params::integer(const std::string& key) const {
    const double v = num(key);
    if (v != static_cast<double>(static_cast<int>(v)))
        throw std::invalid_argument("parameter '" + key + "' is not an integer");
    return static_cast<int>(v);
}

std::vector<std::string> Params::tokens(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream ss(str(key));
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty()) out.push_back(tok);
    if (out.empty()) throw std::invalid_argument("parameter '" + key + "' is an empty list");
    return out;
}

std::vector<double> Params::nums(const std::string& key) const {
    std::vector<double> out;
    for (const std::string& tok : tokens(key)) out.push_back(std::stod(tok));
    return out;
}

Data::Data(const std::string& models_dir) : cache(models_dir) {
    const auto& ds = cache.dataset();
    eval_images = ds.test_batch(0, kEvalImages);
    eval_labels.assign(ds.test_labels().begin(), ds.test_labels().begin() + kEvalImages);
    calib_images = ds.train_batch(0, kCalibImages);
    calib_labels.assign(ds.train_labels().begin(), ds.train_labels().begin() + kCalibImages);
}

void record_setup(Ledger& ledger, const std::vector<double>& setup_s) {
    std::string samples;
    for (const double s : setup_s) samples += (samples.empty() ? "" : ", ") + std::to_string(s);
    ledger.info("setup_s.samples", samples);
    ledger.metric("setup_s", median(setup_s), "s");
}

std::unique_ptr<Model> load_model(Data& data, const std::string& name) {
    auto model = std::make_unique<Model>();
    model->name = name;
    model->graph = data.cache.get(name).export_ir();
    model->calib = raq::quant::calibrate(model->graph, data.calib_images, data.calib_labels);
    return model;
}

bool bit_identical(const float* a, std::size_t na, const float* b, std::size_t nb) {
    return na == nb && (na == 0 || std::memcmp(a, b, na * sizeof(float)) == 0);
}

raq::tensor::Tensor slice_copy(const raq::tensor::Tensor& images, int start, int count) {
    const raq::tensor::TensorView view = images.batch_view(start, count);
    raq::tensor::Tensor out({count, view.shape.c, view.shape.h, view.shape.w});
    std::copy(view.data, view.data + view.size(), out.data());
    return out;
}

double host_canary_ms() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    std::vector<double> ms(n, 0.0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t)
        threads.emplace_back([&ms, t] {
            const auto t0 = Clock::now();
            std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
            for (int i = 0; i < 20'000'000; ++i) {  // xorshift64: a serial dependency chain
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            // x is never 0; the test keeps the loop from being removed.
            ms[t] = x == 0 ? 0.0 : seconds_since(t0) * 1e3;
        });
    for (std::thread& th : threads) th.join();
    return *std::max_element(ms.begin(), ms.end());
}

void record_host(Ledger& ledger) {
    namespace simd = raq::exec::kernels_simd;
    ledger.info("nproc", std::to_string(std::thread::hardware_concurrency()));
    ledger.info("kernel_tier", simd::tier_name(simd::active_tier()));
    ledger.info("compiler", PERFBENCH_COMPILER);
    ledger.info("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
