// Fleet-wide reliability-event timeline: every requant build/swap and
// every re-partition trigger/re-cut is recorded as one timestamped event
// in a single bounded log, so "what did the fleet's reliability machinery
// do, and when, relative to serving traffic" is answerable from one
// ordered text rendering — the view Algorithm 1's online deployment needs
// and that per-device RequantEvent vectors cannot give (they lack a
// shared clock ordering across devices).
//
// record() takes a short mutex; reliability events fire at most a few
// times per second, far off the serving hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace raq::obs {

enum class EventKind : std::uint8_t {
    RequantBuild,   ///< Algorithm 1 rebuild finished (build_ms set)
    RequantSwap,    ///< new ModelState adopted at a batch boundary
    RecutTrigger,   ///< RepartitionMonitor saw imbalance past threshold
    Recut,          ///< drain-and-swap re-cut installed a new partition
    RecutFutile,    ///< trigger fired but the optimal cut was unchanged
    NetListen,      ///< net front-end began accepting connections (value = port)
    NetOverload,    ///< admission queue saturated, BUSY shed began (rate-limited)
    NetDrain,       ///< net front-end shutdown cascade completed (value = drained)
    WindowPredicted,///< planner saw traffic enter a predicted low window
    BuildScheduled, ///< planner released a requant build / re-cut into a window
    BuildDeferred,  ///< planner held back due reliability work for a quieter window
};

inline constexpr std::size_t kNumEventKinds = 11;

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

struct ReliabilityEvent {
    std::int64_t t_us = 0;        ///< obs::monotonic_us() at the event
    EventKind kind = EventKind::RequantSwap;
    int device_id = -1;           ///< owning device (or -1 for group-level)
    int group_id = -1;            ///< shard group (or -1 for flat devices)
    std::uint64_t generation = 0; ///< model/partition generation after the event
    double value = 0.0;           ///< kind-specific: build_ms, imbalance ratio...
    std::string detail;           ///< human-readable one-liner ("2b @60% -> 4b @80%")

    [[nodiscard]] std::string to_string() const;
};

class EventTimeline {
public:
    explicit EventTimeline(std::size_t capacity = 1024) : capacity_(capacity) {}

    void record(ReliabilityEvent event) RAQ_EXCLUDES(mutex_);

    [[nodiscard]] std::size_t size() const RAQ_EXCLUDES(mutex_);
    [[nodiscard]] std::uint64_t total_recorded() const RAQ_EXCLUDES(mutex_);
    [[nodiscard]] std::uint64_t count(EventKind kind) const RAQ_EXCLUDES(mutex_);
    /// Events in record order (== t_us order up to clock resolution).
    [[nodiscard]] std::vector<ReliabilityEvent> snapshot() const RAQ_EXCLUDES(mutex_);
    /// Text exposition, one event per line, oldest first.
    [[nodiscard]] std::string render() const RAQ_EXCLUDES(mutex_);

private:
    const std::size_t capacity_;
    mutable common::Mutex mutex_;
    /// Oldest dropped past capacity_.
    std::deque<ReliabilityEvent> events_ RAQ_GUARDED_BY(mutex_);
    std::uint64_t total_ RAQ_GUARDED_BY(mutex_) = 0;
    /// One slot per EventKind.
    std::uint64_t counts_[kNumEventKinds] RAQ_GUARDED_BY(mutex_) = {};
};

}  // namespace raq::obs
