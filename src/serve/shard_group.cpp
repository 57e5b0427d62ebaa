#include "serve/shard_group.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/requant_job.hpp"
#include "exec/plan_cache.hpp"
#include "ir/float_executor.hpp"
#include "npu/systolic.hpp"
#include "quant/quant_executor.hpp"
#include "serve/batcher.hpp"

namespace raq::serve {

ShardPartition make_shard_partition(const ir::Graph& graph,
                                    const npu::SystolicConfig& systolic, int num_shards,
                                    int batch_capacity) {
    // Balance the cut on the systolic cycle model — the pipeline
    // bottleneck is the slowest shard, so per-layer cycles (not MACs)
    // are the cost that matters.
    ShardPartition out;
    out.specs = ir::partition_graph(graph, num_shards, npu::op_cycle_costs(graph, systolic));
    if (num_shards == 1) {
        // The whole model: the stage serves the caller's graph itself
        // (a non-owning alias — no extracted copy) on its cached plan.
        exec::Subplan whole;
        whole.graph = std::shared_ptr<const ir::Graph>(std::shared_ptr<const ir::Graph>(), &graph);
        whole.plan = exec::PlanCache::global().get(graph, std::max(1, batch_capacity));
        whole.full_tensor_of.resize(static_cast<std::size_t>(graph.num_tensors()));
        std::iota(whole.full_tensor_of.begin(), whole.full_tensor_of.end(), 0);
        out.subplans.push_back(std::move(whole));
        return out;
    }
    out.subplans.reserve(out.specs.size());
    for (const ir::ShardSpec& spec : out.specs)
        out.subplans.push_back(
            exec::compile_subplan(graph, spec, std::max(1, batch_capacity)));
    return out;
}

ShardPartition make_shard_partition(const ir::Graph& graph,
                                    const std::vector<npu::SystolicConfig>& stage_systolic,
                                    int batch_capacity) {
    // Fresh-silicon heterogeneous cut: every stage priced on its own
    // array's cycle model at a unit clock (no aging yet — re-cuts fold
    // the aged clock periods in later).
    const std::vector<double> unit_clocks(stage_systolic.size(), 1.0);
    ShardPartition out;
    out.specs = ir::partition_graph_heterogeneous(
        graph, aged_cost_tables(graph, stage_systolic, unit_clocks));
    out.subplans.reserve(out.specs.size());
    for (const ir::ShardSpec& spec : out.specs)
        out.subplans.push_back(
            exec::compile_subplan(graph, spec, std::max(1, batch_capacity)));
    return out;
}

ShardGroup::ShardGroup(int group_id, const ServeContext& ctx, const ShardGroupConfig& config,
                       RequantService& requant_service,
                       std::atomic<std::uint64_t>* completed)
    : group_id_(group_id),
      completed_(completed),
      telemetry_(config.telemetry),
      full_ctx_(ctx),
      config_(config) {
    if (!ctx.graph || !ctx.calib || !ctx.selector || !ctx.aging)
        throw std::invalid_argument("ShardGroup: graph/calib/selector/aging are required");
    const bool whole_model = config.num_shards == 1;
    if (!whole_model && config.device.flip_probability > 0.0)
        throw std::invalid_argument(
            "ShardGroup: fault injection is per-request on a whole-model device and is "
            "not supported on a sharded pipeline");
    if (!whole_model && config.device.full_algorithm1)
        throw std::invalid_argument(
            "ShardGroup: the full Algorithm 1 method search needs end-to-end evaluation; "
            "shards re-quantize via the fast path");
    if (!config.per_shard_systolic.empty() &&
        static_cast<int>(config.per_shard_systolic.size()) != config.num_shards)
        throw std::invalid_argument(
            "ShardGroup: per_shard_systolic must have one entry per shard");
    const ShardPartition* partition = config.partition;
    if (partition == nullptr || static_cast<int>(partition->specs.size()) != config.num_shards ||
        partition->subplans.size() != partition->specs.size())
        throw std::invalid_argument(
            "ShardGroup: a partition matching num_shards is required");
    // The config copy outlives the constructor; the partition pointer
    // must not (the caller only guarantees it for the call).
    config_.partition = nullptr;
    stage_systolic_ = config.per_shard_systolic.empty()
                          ? std::vector<npu::SystolicConfig>(
                                static_cast<std::size_t>(config.num_shards),
                                config.device.systolic)
                          : config.per_shard_systolic;
    if (telemetry_) {
        obs::MetricsRegistry& reg = telemetry_->metrics();
        for (std::size_t c = 0; c < kNumRequestClasses; ++c)
            metrics_.completed[c] = &reg.counter(
                "raq_requests_completed_total",
                {{"class", request_class_name(static_cast<RequestClass>(c))}});
        if (!whole_model) {
            const obs::Labels labels{{"group", std::to_string(group_id)}};
            metrics_.checks = &reg.counter("raq_repartition_checks_total", labels);
            metrics_.triggers = &reg.counter("raq_repartition_triggers_total", labels);
            metrics_.futile = &reg.counter("raq_repartition_futile_total", labels);
            metrics_.recuts = &reg.counter("raq_repartition_recuts_total", labels);
            metrics_.imbalance = &reg.gauge("raq_repartition_imbalance", labels);
            metrics_.partition_generation = &reg.gauge("raq_partition_generation", labels);
            metrics_.partition_generation->set(1.0);
        }
    }

    shards_.reserve(partition->specs.size());
    for (std::size_t k = 0; k < partition->specs.size(); ++k) {
        const exec::Subplan& sub = partition->subplans[k];
        auto shard = std::make_unique<ShardState>();
        shard->spec = partition->specs[k];
        shard->graph = sub.graph;  // shared across groups; pins the sub-plan's graph
        shard->ctx = ctx;          // selector, aging model and (whole model) eval set
        shard->ctx.graph = shard->graph.get();
        if (!whole_model) {
            shard->calib = quant::slice_calibration(*ctx.calib, sub.full_tensor_of);
            shard->ctx.calib = &shard->calib;
            shard->ctx.eval_images = nullptr;
            shard->ctx.eval_labels = nullptr;
        }
        DeviceConfig dev = config.device;
        dev.systolic = stage_systolic_[k];
        dev.initial_age_years = config.device.initial_age_years +
                                static_cast<double>(k) * config.initial_age_step_years;
        // The ShardState owns the context the device points at; both live
        // behind a stable unique_ptr for the group's lifetime. A whole-
        // model device carries no stage label (stage -1).
        shard->device = std::make_unique<NpuDevice>(
            config.first_device_id + static_cast<int>(k), shard->ctx, dev, requant_service,
            telemetry_, config_.planner, whole_model ? -1 : static_cast<int>(k));
        shards_.push_back(std::move(shard));
    }

    start_stages();

    window_batches_.assign(shards_.size(), 0);
    window_busy_ps_.assign(shards_.size(), 0.0);
    if (config_.repartition.enabled)
        monitor_ = std::make_unique<RepartitionMonitor>(config_.repartition,
                                                        [this] { repartition_step(); });
}

ShardGroup::~ShardGroup() { drain(); }

void ShardGroup::start_stages() {
    channels_.clear();
    for (std::size_t k = 1; k < shards_.size(); ++k)
        channels_.push_back(std::make_unique<BoundedChannel<ShardBatch>>(
            std::max<std::size_t>(1, config_.handoff_capacity)));
    stage_threads_.reserve(channels_.size());
    for (std::size_t k = 1; k < shards_.size(); ++k)
        stage_threads_.emplace_back([this, k] { stage_loop(k); });
}

void ShardGroup::serve(std::vector<InferenceRequest>& requests) {
    if (requests.empty()) return;
    ShardBatch batch;
    batch.requests = std::move(requests);
    try {
        batch.activations = stack_batch(batch.requests);
    } catch (...) {
        fail_batch(batch.requests, std::current_exception());
        return;
    }
    // Batch span: worker pop → stacked and ready to execute.
    for (InferenceRequest& request : batch.requests)
        if (request.trace) request.trace->mark(obs::SpanKind::Batch, obs::monotonic_us());
    // The swap mutex keeps stage 0 off the devices while a re-cut
    // drains and remaps the pipeline.
    const common::MutexLock lock(swap_mutex_);
    run_stage(0, batch);
}

void ShardGroup::stage_loop(std::size_t k) {
    ShardBatch batch;
    while (channels_[k - 1]->pop(batch)) {
        // Handoff span: time in this stage's channel since the previous
        // stage finished.
        for (InferenceRequest& request : batch.requests)
            if (request.trace) request.trace->mark(obs::SpanKind::Handoff, obs::monotonic_us());
        run_stage(k, batch);
    }
    // This stage is drained; cascade the close so the next one drains.
    if (k < channels_.size()) channels_[k]->close();
}

void ShardGroup::run_stage(std::size_t k, ShardBatch& batch) {
    NpuDevice& device = *shards_[k]->device;
    try {
        const int n = batch.activations.shape().n;
        NpuDevice::BatchTrace trace;
        tensor::Tensor out = device.execute_batch(batch.activations.batch_view(0, n),
                                                  batch.requests, &trace);
        batch.latency_cycles += trace.cycles;
        batch.latency_us += trace.latency_us;
        batch.min_generation = std::min(batch.min_generation, trace.generation);
        bool any_trace = false;
        for (const InferenceRequest& request : batch.requests)
            any_trace |= request.trace != nullptr;
        if (any_trace) {
            const std::int64_t now = obs::monotonic_us();
            for (InferenceRequest& request : batch.requests)
                if (request.trace)
                    request.trace->mark(obs::SpanKind::Execute, now, device.id(),
                                        device.stage(), trace.generation);
        }
        if (k + 1 == shards_.size()) {
            complete(batch, out);
        } else {
            batch.activations = std::move(out);
            // Fails only for stage 0 after drain(): channel k+1 is
            // closed by stage k itself, after its loop exits. A failed
            // push leaves the batch (and its promises) intact.
            if (!channels_[k]->push(std::move(batch)))
                throw std::runtime_error("ShardGroup: serve after drain");
        }
    } catch (...) {
        // A malformed batch (e.g. an image whose shape the engine
        // rejects) fails its own requests, not the serving thread. A
        // batch already forwarded downstream has no requests left here.
        fail_batch(batch.requests, std::current_exception());
    }
    // Boundary maintenance after the handoff: the downstream stage
    // already works on this batch while this shard adopts/builds.
    try {
        device.requant_boundary();
    } catch (...) {
        // A synchronous build that throws (the batch is already
        // resolved) must not kill the serving thread: the shard keeps
        // serving its current deployment and retries at the next
        // boundary.
    }
}

void ShardGroup::complete(ShardBatch& batch, const tensor::Tensor& logits) {
    // The whole batch ran inside one partition era (a re-cut drains
    // every in-flight batch before remapping), so one load here labels
    // every rider correctly.
    const std::uint64_t partition = partition_generation_.load(std::memory_order_acquire);
    // Count completion BEFORE fulfilling the promises: a client that has
    // observed its result then always finds these counters covering it
    // on the next scrape.
    if (completed_) completed_->fetch_add(batch.requests.size(), std::memory_order_relaxed);
    if (telemetry_) {
        std::size_t per_class[kNumRequestClasses] = {};
        for (const InferenceRequest& request : batch.requests)
            ++per_class[static_cast<std::size_t>(request.klass)];
        for (std::size_t c = 0; c < kNumRequestClasses; ++c)
            if (per_class[c] > 0) metrics_.completed[c]->add(per_class[c]);
    }
    bool any_trace = false;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        InferenceRequest& request = batch.requests[i];
        InferenceResult result = make_result(request.id, logits, static_cast<int>(i));
        result.klass = request.klass;
        result.device_id = group_id_;
        result.generation = batch.min_generation;
        result.partition = partition;
        result.latency_cycles = batch.latency_cycles;
        result.latency_us = batch.latency_us;
        request.resolve(std::move(result));
        any_trace |= request.trace != nullptr;
    }
    if (any_trace && telemetry_) {
        const std::int64_t now = obs::monotonic_us();
        for (InferenceRequest& request : batch.requests)
            if (request.trace) {
                request.trace->mark(obs::SpanKind::Complete, now);
                telemetry_->traces().finish(std::move(request.trace));
            }
    }
}

void ShardGroup::repartition_step() {
    // Measurement window: cumulative device counters since the last
    // mature window (or the last re-cut).
    std::vector<StageWindow> window(shards_.size());
    std::vector<double> clocks(shards_.size(), 0.0);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        const DeviceStats s = shards_[k]->device->stats();
        window[k].batches = s.batches - window_batches_[k];
        window[k].busy_ps = s.busy_ps - window_busy_ps_[k];
        clocks[k] = s.clock_period_ps;
    }
    const double imbalance =
        stage_imbalance(window, config_.repartition.min_batches);
    if (imbalance <= 0.0) return;  // window not mature yet
    {
        const common::MutexLock lock(repart_mutex_);
        ++repart_stats_.checks;
        repart_stats_.last_imbalance = imbalance;
    }
    if (telemetry_) {
        metrics_.checks->add(1);
        metrics_.imbalance->set(imbalance);
    }
    // Roll the window so the next judgement sees fresh traffic only.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        window_batches_[k] += window[k].batches;
        window_busy_ps_[k] += window[k].busy_ps;
    }
    if (imbalance < config_.repartition.imbalance_ratio) return;
    // A persistent imbalance the last attempt could not fix (no better
    // cut, or an infeasible shard) stays unfixable until some clock
    // changes: skip re-deriving the same answer every window. Clocks
    // change only at install, so exact comparison is the right test.
    if (clocks == futile_clocks_) return;
    // Predictive gate: a drain-and-swap stalls admission, so the planner
    // parks a merely-threshold-crossing re-cut until a predicted
    // low-traffic window (an urgent bottleneck still re-cuts at peak).
    // Returning WITHOUT updating the futile memo or counting a trigger
    // retries on the next poll — deferred, never dropped.
    if (config_.planner != nullptr &&
        !config_.planner->allow_recut(group_id_, imbalance,
                                      config_.repartition.imbalance_ratio))
        return;
    {
        const common::MutexLock lock(repart_mutex_);
        ++repart_stats_.triggers;
    }
    if (telemetry_) {
        metrics_.triggers->add(1);
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::RecutTrigger;
        re.group_id = group_id_;
        re.generation = partition_generation();
        re.value = imbalance;
        telemetry_->timeline().record(std::move(re));
    }
    // A triggered attempt that cannot improve the cut counts as futile —
    // in the stats, the metric AND the timeline, so a dashboard can tell
    // "the monitor is stuck" from "the monitor is idle".
    const auto note_futile = [&](const char* reason) {
        futile_clocks_ = clocks;
        {
            const common::MutexLock lock(repart_mutex_);
            ++repart_stats_.futile;
        }
        if (telemetry_) {
            metrics_.futile->add(1);
            obs::ReliabilityEvent re;
            re.t_us = obs::monotonic_us();
            re.kind = obs::EventKind::RecutFutile;
            re.group_id = group_id_;
            re.generation = partition_generation();
            re.value = imbalance;
            re.detail = reason;
            telemetry_->timeline().record(std::move(re));
        }
    };

    // Prepare the entire swap off the serving path — cut, warm-compiled
    // sub-plans, re-sliced calibration, pre-built deployments. Anything
    // that fails here simply aborts the round with the pipeline
    // untouched; perform_recut itself has nothing left that can throw.
    PreparedRecut prepared;
    try {
        // Price every op per device — its own array's cycles at its
        // current aged clock — and re-run the min-bottleneck DP.
        prepared.specs = ir::partition_graph_heterogeneous(
            *full_ctx_.graph, aged_cost_tables(*full_ctx_.graph, stage_systolic_, clocks));
        bool moved = false;
        for (std::size_t k = 0; k < shards_.size(); ++k)
            moved = moved || prepared.specs[k].last_op != shards_[k]->spec.last_op;
        if (!moved) {
            note_futile("best cut unchanged at these clocks");
            return;
        }
        // Warm-compile the new sub-plans through the shared PlanCache
        // and pre-build every shard's deployment at its device's current
        // aging level. A RequantJob over monitor-local inputs proves
        // feasibility BEFORE the pipeline drains (the produced
        // QuantizedGraph is self-contained, so the temporaries may die).
        core::RequantJobConfig jc;
        jc.guardband_fraction = config_.device.guardband_fraction;
        jc.accuracy_loss_threshold = config_.device.accuracy_loss_threshold;
        for (const ir::ShardSpec& spec : prepared.specs) {
            const std::size_t k = prepared.subplans.size();
            prepared.subplans.push_back(exec::compile_subplan(
                *full_ctx_.graph, spec, std::max(1, config_.device.plan_batch_capacity)));
            prepared.calibs.push_back(quant::slice_calibration(
                *full_ctx_.calib, prepared.subplans[k].full_tensor_of));
            const auto build_start = std::chrono::steady_clock::now();
            const core::RequantJob job(*prepared.subplans[k].graph, prepared.calibs[k],
                                       *full_ctx_.selector, jc);
            // The generation is a placeholder: reshard() re-stamps it at
            // adoption so the stream stays monotonic even if a
            // background generation lands while the pipeline drains.
            auto built = job.build(shards_[k]->device->dvth_mv(), /*generation=*/0);
            if (!built) {
                note_futile("shard infeasible at its aging level");
                return;
            }
            prepared.states.push_back(std::move(*built));
            prepared.build_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - build_start)
                    .count());
        }
    } catch (...) {
        // Defensive: the construction-time cut succeeded, so failures
        // here are unexpected — keep serving the current cut and keep
        // the monitor alive rather than tearing down the process.
        note_futile("recut preparation threw");
        return;
    }
    perform_recut(std::move(prepared));
    futile_clocks_.clear();
}

void ShardGroup::perform_recut(PreparedRecut prepared) {
    // Admission pauses for the whole swap: no producer can observe the
    // closed old channels or a half-remapped pipeline.
    const common::MutexLock lock(swap_mutex_);
    if (drained_.load(std::memory_order_acquire)) return;

    // Drain at a batch boundary: stage 0 is idle (this thread holds the
    // swap mutex), so close stage 1's channel, let the close cascade
    // stage to stage, and join. Every accepted batch completes on the
    // OLD cut — no batch ever straddles two partitions, so there are no
    // torn boundary tensors by construction.
    channels_.front()->close();
    for (std::thread& t : stage_threads_) t.join();
    stage_threads_.clear();

    // Remap every device onto its new slice of the model. The ShardState
    // owns what the device's context points at, so updating it in place
    // re-targets the device; reshard() rebuilds what derives from it and
    // adopts the pre-built deployment.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        ShardState& shard = *shards_[k];
        shard.spec = prepared.specs[k];
        shard.graph = prepared.subplans[k].graph;
        shard.calib = std::move(prepared.calibs[k]);
        shard.ctx.graph = shard.graph.get();
        shard.ctx.calib = &shard.calib;
        shard.device->reshard(std::move(prepared.states[k]), prepared.build_ms[k]);
    }

    // Fresh channels (the old ones are closed and empty) and fresh stage
    // threads; stage 0 resumes when the mutex releases.
    start_stages();

    partition_generation_.fetch_add(1, std::memory_order_acq_rel);
    {
        const common::MutexLock lock2(repart_mutex_);
        ++repart_stats_.recuts;
    }
    if (telemetry_) {
        metrics_.recuts->add(1);
        metrics_.partition_generation->set(
            static_cast<double>(partition_generation()));
        obs::ReliabilityEvent re;
        re.t_us = obs::monotonic_us();
        re.kind = obs::EventKind::Recut;
        re.group_id = group_id_;
        re.generation = partition_generation();
        re.detail = "drain-and-swap complete";
        telemetry_->timeline().record(std::move(re));
    }
    // The new cut starts a fresh measurement window.
    for (std::size_t k = 0; k < shards_.size(); ++k) {
        const DeviceStats s = shards_[k]->device->stats();
        window_batches_[k] = s.batches;
        window_busy_ps_[k] = s.busy_ps;
    }
}

void ShardGroup::drain() {
    if (drained_.exchange(true)) return;
    // Stop the monitor first: it joins an in-flight re-cut (which
    // restores a serving pipeline), so afterwards the channel/thread
    // vectors are stable and no new swap can start.
    if (monitor_) monitor_->stop();
    if (!channels_.empty()) channels_.front()->close();
    for (std::thread& t : stage_threads_) t.join();
    stage_threads_.clear();
}

void ShardGroup::finish_requants() {
    for (const auto& shard : shards_) shard->device->finish_requants();
}

RepartitionStats ShardGroup::repartition_stats() const {
    const common::MutexLock lock(repart_mutex_);
    RepartitionStats out = repart_stats_;
    out.partition_generation = partition_generation();
    return out;
}

std::vector<DeviceStats> ShardGroup::stats() const {
    std::vector<DeviceStats> out;
    out.reserve(shards_.size());
    for (const auto& shard : shards_) out.push_back(shard->device->stats());
    return out;
}

double ShardGroup::sample_accuracy(const tensor::Tensor& images,
                                   const std::vector<int>& labels, int samples) const {
    if (samples < 1) throw std::invalid_argument("ShardGroup: samples must be >= 1");
    samples = std::min(samples, images.shape().n);
    if (labels.size() < static_cast<std::size_t>(samples))
        throw std::invalid_argument("ShardGroup: fewer labels than samples");
    // Snapshot one consistent cut's chain under the swap mutex, then
    // release it before evaluating: the graphs are immutable and pinned
    // by the shared_ptrs, and holding the mutex across `samples`
    // inferences would stall admission for the whole evaluation.
    std::vector<std::shared_ptr<const quant::QuantizedGraph>> chain;
    {
        const common::MutexLock lock(swap_mutex_);
        chain.reserve(shards_.size());
        for (const auto& shard : shards_) chain.push_back(shard->device->deployed_graph());
    }
    // Evaluate in chunks through one runner per stage, so memory stays
    // bounded by the chunk whatever `samples` is.
    constexpr int kChunk = 100;
    std::vector<std::unique_ptr<quant::QuantRunner>> runners;
    runners.reserve(chain.size());
    for (const auto& qgraph : chain)
        runners.push_back(std::make_unique<quant::QuantRunner>(*qgraph, std::min(kChunk, samples)));
    int correct = 0;
    for (int start = 0; start < samples; start += kChunk) {
        const int count = std::min(kChunk, samples - start);
        tensor::Tensor acts = runners.front()->run(images.batch_view(start, count));
        for (std::size_t k = 1; k < runners.size(); ++k)
            acts = runners[k]->run(acts.batch_view(0, count));
        const std::vector<int> predictions = ir::argmax_classes(acts);
        for (int i = 0; i < count; ++i)
            correct += predictions[static_cast<std::size_t>(i)] ==
                       labels[static_cast<std::size_t>(start + i)];
    }
    return static_cast<double>(correct) / static_cast<double>(samples);
}

}  // namespace raq::serve
