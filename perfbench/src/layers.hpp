// Per-layer probes: each times calls into one layer's public functions
// from outside (no tracing inside the library) and records the result
// under the layer's metric names.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/compression_selector.hpp"
#include "core/requant_job.hpp"
#include "quant/quantized_graph.hpp"

namespace perfbench {

/// core + quant: CompressionSelector::select, calibrate, and the
/// Algorithm 1 method search's own quantize_graph / quantized_accuracy
/// calls re-run at `levels[0]`. For full Algorithm 1 `build_ms` is the
/// workload's measured RequantJob::build median; on the fast path the
/// probe times RequantJob::build itself. quant.cover is the share of a
/// build the timed calls account for.
void probe_core_quant(Ledger& ledger, const Model& model,
                      const raq::core::CompressionSelector& selector, const Data& data,
                      const raq::core::RequantJobConfig& job, const std::vector<double>& levels,
                      double build_ms);

/// exec: QuantRunner::run on a `batch`-image batch (median of repeats),
/// GMAC/s, and the level-hook profile's share of the run. Returns the
/// clean run time in µs.
double probe_exec(Ledger& ledger, const raq::quant::QuantizedGraph& qgraph,
                  const raq::tensor::Tensor& images, int batch);

/// inject: one injected QuantRunner::run per flip rate over `batch`
/// images of `qgraph`, its exact flip count, and the slowdown against
/// `clean_run_us` on the same graph and batch.
void probe_inject(Ledger& ledger, const raq::quant::QuantizedGraph& qgraph,
                  const raq::tensor::Tensor& images, int batch,
                  const std::vector<std::string>& rates, std::uint64_t seed,
                  double clean_run_us);

/// npu: systolic-array cycles for one image of `graph`.
void probe_npu(Ledger& ledger, const raq::ir::Graph& graph);

/// The 8-bit M2 (min/max asymmetric) baseline the fault sweep injects into.
[[nodiscard]] raq::quant::QuantizedGraph m2_baseline(const Model& model);

}  // namespace perfbench
