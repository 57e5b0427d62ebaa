// The benchmark's open-loop traffic: seeded Poisson schedules, one
// single-threaded socket client that times every request from its
// *scheduled* send time, and the same schedule replayed in-process
// through NpuServer::try_submit for the socket-overhead split.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "net/load_gen.hpp"
#include "net/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace net = raq::net;

/// One scheduled request: due time (µs after the phase start), which
/// sample it carries and its serve class (0 interactive, 1 batch).
struct Arrival {
    std::int64_t due_us = 0;
    std::uint32_t sample = 0;
    std::uint8_t klass = 0;
};

/// Deterministic open-loop Poisson schedule: exponential gaps at `rate`
/// requests/s for `seconds`, samples drawn uniformly from [0, n_samples),
/// each request batch-class with probability 1 − interactive_frac. The
/// generator is the benchmark's own (splitmix64), so a seed gives the
/// same schedule on every compiler and standard library.
[[nodiscard]] std::vector<Arrival> poisson_schedule(double rate, double seconds,
                                                    double interactive_frac,
                                                    std::uint32_t n_samples,
                                                    std::uint64_t seed);

/// What one phase of traffic measured.
struct PhaseResult {
    Outcomes outcomes;
    std::vector<double> latency_ms;        ///< per OK response, from the scheduled send
    std::vector<double> class_latency_ms[2];
    std::vector<double> late_ms;           ///< per sent request: send lag behind schedule
    std::uint64_t mismatches = 0;          ///< OK responses the validator rejected
    bool monotonic = true;                 ///< generation/partition never went back per connection
    /// OK responses in arrival order (for the backlog test): latency by
    /// position in the schedule.
    std::vector<std::pair<std::int64_t, double>> due_latency;
};

/// Checks one OK response against the request that produced it.
using Validator = std::function<bool(const Arrival&, const net::InferReply&)>;

/// Single-threaded open-loop client over `connections` localhost
/// sockets (round-robin). It sends each request when it falls due —
/// never waiting for earlier answers — reads answers as they arrive
/// and counts every request exactly once.
class OpenLoopClient {
public:
    OpenLoopClient(std::uint16_t port, int connections);
    ~OpenLoopClient();
    OpenLoopClient(const OpenLoopClient&) = delete;
    OpenLoopClient& operator=(const OpenLoopClient&) = delete;

    [[nodiscard]] PhaseResult run(const std::vector<Arrival>& schedule,
                                  const std::vector<net::EncodedSample>& samples,
                                  const Validator& validate, int drain_ms = 5000);

private:
    struct Conn;
    std::vector<std::unique_ptr<Conn>> conns_;
    std::uint64_t next_tag_ = 1;
};

/// The same schedule submitted in-process (NpuServer::try_submit with an
/// on_done hook stamping completion), from one thread.
struct InprocResult {
    Outcomes outcomes;
    std::vector<double> latency_ms;  ///< completion − scheduled submit
    std::vector<double> submit_us;   ///< host time inside try_submit
};

[[nodiscard]] InprocResult replay_inproc(raq::serve::NpuServer& npu,
                                         const std::vector<Arrival>& schedule,
                                         const std::vector<net::EncodedSample>& samples,
                                         int drain_ms = 5000);

}  // namespace perfbench
