// The three workloads. Each fills the ledger with its metrics and
// correctness checks; with `trace` set it records the per-layer metrics
// instead of the end-to-end ones.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/compression_selector.hpp"
#include "loadgen.hpp"
#include "serve/server.hpp"

namespace perfbench {

void run_paper_offline(const RunArgs& args, Ledger& ledger);
void run_serve_steady(const RunArgs& args, Ledger& ledger);
void run_serve_aging(const RunArgs& args, Ledger& ledger);

/// Serve-layer probe over one fleet configuration and one schedule:
/// the schedule is served three times on fresh fleets — over the socket
/// with telemetry off, over the socket with metrics and trace sampling
/// on, and in-process through try_submit — giving the serve.*, net.*,
/// obs.overhead_frac, loadgen.late_p99_ms and cover.e2e metrics. OK
/// answers of the socket passes are checked with `validate` when set.
void serve_probe(Ledger& ledger, const raq::serve::ServeContext& ctx,
                 const raq::serve::ServeConfig& config, int net_loops, int connections,
                 const std::vector<Arrival>& schedule,
                 const std::vector<net::EncodedSample>& samples, const Validator& validate);

/// Checks answers of a fresh, unaged replicated fleet: generation 1 and
/// logits bit-identical to serial QuantRunner execution of the sample on
/// the deployment such a fleet installs (M5 at the compression selected
/// for its initial ΔVth, `dvth_mv`).
[[nodiscard]] Validator fresh_fleet_validator(const Model& model,
                                              const raq::core::CompressionSelector& selector,
                                              double dvth_mv,
                                              const std::vector<net::EncodedSample>& samples);

/// `count` wire samples drawn (by `seed`) from the evaluation split.
[[nodiscard]] std::vector<net::EncodedSample> make_samples(const Data& data, int count,
                                                           std::uint64_t seed);

}  // namespace perfbench
