#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

namespace {

/// splitmix64: tiny, portable, and fixed by its definition.
struct SplitMix {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1) with 53 random bits.
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

}  // namespace

std::vector<Arrival> poisson_schedule(double rate, double seconds, double interactive_frac,
                                      std::uint32_t n_samples, std::uint64_t seed) {
    if (!(rate > 0.0) || !(seconds > 0.0) || n_samples == 0)
        throw std::invalid_argument("poisson_schedule: rate, seconds and samples must be > 0");
    SplitMix rng{seed};
    std::vector<Arrival> out;
    out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
    double t_s = 0.0;
    for (;;) {
        t_s += -std::log(1.0 - rng.uniform()) / rate;
        if (t_s >= seconds) break;
        Arrival a;
        a.due_us = static_cast<std::int64_t>(t_s * 1e6);
        a.sample = static_cast<std::uint32_t>(rng.next() % n_samples);
        a.klass = rng.uniform() < interactive_frac ? 0 : 1;
        out.push_back(a);
    }
    return out;
}

struct OpenLoopClient::Conn {
    Conn() = default;
    ~Conn() {
        if (fd >= 0) ::close(fd);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    bool dead = false;
    std::uint64_t last_generation = 0;
    std::uint64_t last_partition = 0;
};

OpenLoopClient::OpenLoopClient(std::uint16_t port, int connections) {
    if (connections < 1) throw std::invalid_argument("OpenLoopClient: connections must be >= 1");
    for (int i = 0; i < connections; ++i) {
        auto conn = std::make_unique<Conn>();
        conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (conn->fd < 0) throw std::runtime_error("OpenLoopClient: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
            throw std::runtime_error("OpenLoopClient: connect() failed: " +
                                     std::string(std::strerror(errno)));
        const int one = 1;
        ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
        conns_.push_back(std::move(conn));
    }
}

OpenLoopClient::~OpenLoopClient() = default;

PhaseResult OpenLoopClient::run(const std::vector<Arrival>& schedule,
                                const std::vector<net::EncodedSample>& samples,
                                const Validator& validate, int drain_ms) {
    enum : std::uint8_t { kPending, kSent, kDone };
    const std::size_t n = schedule.size();
    const std::uint64_t tag_base = next_tag_;
    next_tag_ += n;
    std::vector<std::uint8_t> state(n, kPending);
    std::vector<std::uint32_t> conn_of(n, 0);

    PhaseResult res;
    res.latency_ms.reserve(n);
    res.late_ms.reserve(n);
    res.due_latency.reserve(n);
    std::size_t next = 0;
    std::size_t outstanding = 0;
    // All times in ns; the schedule's due times are µs after t0.
    const std::int64_t t0 = now_ns() + 2'000'000;
    const auto due_ns = [&](std::size_t i) { return t0 + schedule[i].due_us * 1000; };
    const std::int64_t end_due = n ? due_ns(n - 1) : t0;
    const std::int64_t deadline = end_due + static_cast<std::int64_t>(drain_ms) * 1'000'000;

    const auto fail_conn = [&](std::size_t ci) {
        Conn& c = *conns_[ci];
        c.dead = true;
        for (std::size_t i = 0; i < next; ++i)
            if (state[i] == kSent && conn_of[i] == ci) {
                state[i] = kDone;
                ++res.outcomes.errors;
                --outstanding;
            }
    };

    const auto handle = [&](std::size_t ci, const std::uint8_t* data, std::size_t size,
                            std::int64_t recv_ns) {
        net::Response resp;
        if (!net::decode_response(data, size, net::Op::InferClass, resp)) {
            fail_conn(ci);
            return;
        }
        if (resp.tag < tag_base || resp.tag >= tag_base + n) return;  // not this phase
        const std::size_t idx = static_cast<std::size_t>(resp.tag - tag_base);
        if (state[idx] != kSent) return;
        state[idx] = kDone;
        --outstanding;
        switch (resp.status) {
            case net::Status::Ok: {
                ++res.outcomes.ok;
                const Arrival& a = schedule[idx];
                const double ms = static_cast<double>(recv_ns - due_ns(idx)) / 1e6;
                res.latency_ms.push_back(ms);
                res.class_latency_ms[a.klass & 1].push_back(ms);
                res.due_latency.emplace_back(a.due_us, ms);
                if (validate && !validate(a, resp.infer)) ++res.mismatches;
                Conn& c = *conns_[ci];
                if (resp.infer.generation < c.last_generation ||
                    resp.infer.partition < c.last_partition)
                    res.monotonic = false;
                c.last_generation = resp.infer.generation;
                c.last_partition = resp.infer.partition;
                break;
            }
            case net::Status::Busy: ++res.outcomes.busy; break;
            default: ++res.outcomes.errors; break;
        }
    };

    std::vector<pollfd> fds(conns_.size());
    for (;;) {
        std::int64_t now = now_ns();
        while (next < n && due_ns(next) <= now) {
            const Arrival& a = schedule[next];
            std::size_t ci = next % conns_.size();
            for (std::size_t k = 0; k < conns_.size() && conns_[ci]->dead; ++k)
                ci = (ci + 1) % conns_.size();
            ++res.outcomes.sent;
            res.late_ms.push_back(lateness_ms(due_ns(next), now));
            if (conns_[ci]->dead) {
                state[next] = kDone;
                ++res.outcomes.errors;
            } else {
                const net::EncodedSample& s = samples.at(a.sample);
                net::encode_infer_class_request(conns_[ci]->out, tag_base + next, a.klass,
                                                s.header, s.payload);
                state[next] = kSent;
                conn_of[next] = static_cast<std::uint32_t>(ci);
                ++outstanding;
            }
            ++next;
        }
        for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
            Conn& c = *conns_[ci];
            while (!c.dead && c.out_off < c.out.size()) {
                const ssize_t w = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                         MSG_NOSIGNAL);
                if (w > 0) {
                    c.out_off += static_cast<std::size_t>(w);
                } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                    break;
                } else if (w < 0 && errno == EINTR) {
                    continue;
                } else {
                    fail_conn(ci);
                }
            }
            if (c.out_off == c.out.size()) {
                c.out.clear();
                c.out_off = 0;
            }
        }
        if (next >= n && outstanding == 0) break;
        now = now_ns();
        if (next >= n && now >= deadline) break;

        const std::int64_t wake = next < n ? due_ns(next) : deadline;
        const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now);
        for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
            fds[ci].fd = conns_[ci]->dead ? -1 : conns_[ci]->fd;
            fds[ci].events = static_cast<short>(
                POLLIN | (conns_[ci]->out_off < conns_[ci]->out.size() ? POLLOUT : 0));
            fds[ci].revents = 0;
        }
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000);
        ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000);
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready <= 0) continue;
        const std::int64_t recv_ns = now_ns();
        for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
            Conn& c = *conns_[ci];
            if (c.dead || !(fds[ci].revents & (POLLIN | POLLERR | POLLHUP))) continue;
            for (;;) {
                std::uint8_t buf[65536];
                const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
                if (r > 0) {
                    c.in.insert(c.in.end(), buf, buf + r);
                    continue;
                }
                if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (r < 0 && errno == EINTR) continue;
                fail_conn(ci);  // EOF or error
                break;
            }
            std::size_t off = 0;
            while (!c.dead && c.in.size() - off >= 4) {
                std::uint32_t len = 0;
                std::memcpy(&len, c.in.data() + off, 4);
                if (len > net::kMaxFrameBytes) {
                    fail_conn(ci);
                    break;
                }
                if (c.in.size() - off - 4 < len) break;
                handle(ci, c.in.data() + off + 4, len, recv_ns);
                off += 4 + len;
            }
            c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(off));
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        if (state[i] == kSent) ++res.outcomes.unanswered;
    return res;
}

InprocResult replay_inproc(raq::serve::NpuServer& npu, const std::vector<Arrival>& schedule,
                           const std::vector<net::EncodedSample>& samples, int drain_ms) {
    const std::size_t n = schedule.size();
    // Shared with the on_done hooks, which may outlive this call if the
    // drain deadline passes with requests still in flight.
    auto done_ns = std::make_shared<std::vector<std::atomic<std::int64_t>>>(n);
    auto completed = std::make_shared<std::atomic<std::size_t>>(0);
    InprocResult res;
    res.submit_us.reserve(n);
    std::vector<std::future<raq::serve::InferenceResult>> futures(n);
    std::size_t n_accepted = 0;
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    const std::int64_t t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   t0.time_since_epoch())
                                   .count();
    for (std::size_t i = 0; i < n; ++i) {
        const Arrival& a = schedule[i];
        std::this_thread::sleep_until(t0 + std::chrono::microseconds(a.due_us));
        raq::tensor::Tensor image = samples.at(a.sample).reference;
        const auto klass = a.klass ? raq::serve::RequestClass::Batch
                                   : raq::serve::RequestClass::Interactive;
        const std::int64_t s0 = now_ns();
        auto r = npu.try_submit(
            std::move(image),
            [done_ns, completed, i] {
                (*done_ns)[i].store(now_ns(), std::memory_order_release);
                completed->fetch_add(1, std::memory_order_acq_rel);
            },
            klass);
        res.submit_us.push_back(static_cast<double>(now_ns() - s0) / 1e3);
        ++res.outcomes.sent;
        using Status = raq::serve::NpuServer::TrySubmit::Status;
        if (r.status == Status::Accepted) {
            futures[i] = std::move(r.future);
            ++n_accepted;
        } else if (r.status == Status::Saturated) {
            ++res.outcomes.busy;
        } else {
            ++res.outcomes.errors;
        }
    }
    const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(drain_ms);
    while (completed->load(std::memory_order_acquire) < n_accepted && Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (std::size_t i = 0; i < n; ++i) {
        if (!futures[i].valid()) continue;
        const std::int64_t t = (*done_ns)[i].load(std::memory_order_acquire);
        if (t == 0) {
            ++res.outcomes.unanswered;
            continue;
        }
        try {
            (void)futures[i].get();
        } catch (const std::exception&) {
            ++res.outcomes.errors;
            continue;
        }
        ++res.outcomes.ok;
        res.latency_ms.push_back(static_cast<double>(t - (t0_ns + schedule[i].due_us * 1000)) /
                                 1e6);
    }
    return res;
}

}  // namespace perfbench
