// The benchmark's own arithmetic and result plumbing: percentiles,
// open-loop lateness and failure accounting, the metric/check ledger
// and its JSON output. Header-only and free of library dependencies so
// tests/selftest.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Percentile `q` (0..100) with linear interpolation between closest
/// ranks — numpy's default and Python's statistics "inclusive" rule.
/// An empty sample has no percentile: returns NaN, which the JSON
/// writer refuses, so a metric computed from nothing cannot pass.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
    if (values.empty()) return std::nan("");
    if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q outside [0, 100]");
    std::sort(values.begin(), values.end());
    const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 50.0);
}

/// How late an open-loop sender ran: actual send time minus the time the
/// schedule made the request due, never negative (an early send is on
/// time). Latency is measured from the due time, so this lag is part of it.
[[nodiscard]] inline double lateness_ms(std::int64_t due_ns, std::int64_t sent_ns) {
    return static_cast<double>(std::max<std::int64_t>(0, sent_ns - due_ns)) / 1e6;
}

/// Outcome counts of one open-loop phase.
struct Outcomes {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t busy = 0;        ///< shed by admission control
    std::uint64_t errors = 0;      ///< error / bad-request / shutdown answers, transport loss
    std::uint64_t unanswered = 0;  ///< no answer by the drain deadline

    Outcomes& operator+=(const Outcomes& o) {
        sent += o.sent;
        ok += o.ok;
        busy += o.busy;
        errors += o.errors;
        unanswered += o.unanswered;
        return *this;
    }
    [[nodiscard]] std::uint64_t failed() const { return busy + errors + unanswered; }
    /// Every request sent got exactly one answer (or counted unanswered).
    [[nodiscard]] bool balanced() const { return sent == ok + busy + errors + unanswered; }
};

/// (BUSY + errors + unanswered) / sent. Sending nothing is a total
/// failure (1.0), never a perfect score.
[[nodiscard]] inline double fail_frac(const Outcomes& o) {
    if (o.sent == 0) return 1.0;
    return static_cast<double>(o.failed()) / static_cast<double>(o.sent);
}

/// Peak resident set of this process in MB (Linux ru_maxrss is in KiB).
[[nodiscard]] inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] inline double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPU seconds the calling thread has used so far.
[[nodiscard]] inline double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Metric {
    double value = 0.0;
    std::string unit;
};

struct Check {
    std::string name;
    bool passed = false;
    std::string detail;
};

/// Everything one run measured and checked. Metrics are keyed by the
/// names BENCHMARK.json uses (plus the workload's own printed figures);
/// the runner selects the ones its contract asks for.
class Ledger {
public:
    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_[name] = Metric{value, unit};
    }
    [[nodiscard]] double get(const std::string& name) const { return metrics_.at(name).value; }
    void check(const std::string& name, bool passed, const std::string& detail = {}) {
        checks_.push_back(Check{name, passed, detail});
    }
    void info(const std::string& key, const std::string& value) { info_[key] = value; }
    void count(std::uint64_t attempted, std::uint64_t failed) {
        attempted_ += attempted;
        failed_ += failed;
    }
    /// Takes over a probe's checks and counts, and those of its metrics
    /// this ledger has not recorded itself (its own figures win).
    void adopt(const Ledger& probe) {
        for (const auto& [name, m] : probe.metrics_) metrics_.emplace(name, m);
        checks_.insert(checks_.end(), probe.checks_.begin(), probe.checks_.end());
        count(probe.attempted_, probe.failed_);
    }

    [[nodiscard]] bool correct() const {
        if (checks_.empty()) return false;
        for (const Check& c : checks_)
            if (!c.passed) return false;
        return true;
    }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] const std::map<std::string, Metric>& metrics() const { return metrics_; }
    [[nodiscard]] const std::vector<Check>& checks() const { return checks_; }

    /// Human-readable report: checks, then every metric with its unit.
    void print(std::FILE* out) const;
    /// The result file the runner reads. Throws on a non-finite metric.
    [[nodiscard]] std::string to_json() const;

private:
    std::map<std::string, Metric> metrics_;
    std::vector<Check> checks_;
    std::map<std::string, std::string> info_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

[[nodiscard]] inline std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    return out;
}

/// Full-precision JSON number; non-finite values have no JSON form.
[[nodiscard]] inline std::string json_number(double v) {
    if (!std::isfinite(v)) throw std::domain_error("non-finite metric value");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

inline std::string Ledger::to_json() const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
        if (!first) s += ", ";
        first = false;
        s += "\"" + json_escape(name) + "\": {\"value\": " + json_number(m.value) +
             ", \"unit\": \"" + json_escape(m.unit) + "\"}";
    }
    s += "}, \"checks\": [";
    first = true;
    for (const Check& c : checks_) {
        if (!first) s += ", ";
        first = false;
        s += "{\"name\": \"" + json_escape(c.name) + "\", \"passed\": " +
             (c.passed ? "true" : "false") + ", \"detail\": \"" + json_escape(c.detail) + "\"}";
    }
    s += "], \"info\": {";
    first = true;
    for (const auto& [k, v] : info_) {
        if (!first) s += ", ";
        first = false;
        s += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    }
    s += "}}";
    return s;
}

inline void Ledger::print(std::FILE* out) const {
    for (const Check& c : checks_)
        std::fprintf(out, "check %-34s %s  %s\n", c.name.c_str(), c.passed ? "PASS" : "FAIL",
                     c.detail.c_str());
    for (const auto& [name, m] : metrics_)
        std::fprintf(out, "  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace perfbench
