// Self-test of the benchmark's own arithmetic: percentiles, open-loop
// lateness, fail_frac and the result JSON. Exits non-zero on the first
// failed expectation; perfbench/run.py runs it after every build.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "selftest FAIL: %s\n", what);
        ++failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

}  // namespace

int main() {
    using namespace perfbench;

    // Percentiles: linear interpolation between closest ranks.
    const std::vector<double> v{5, 1, 4, 2, 3};
    expect(near(percentile(v, 0), 1.0), "p0 is the minimum");
    expect(near(percentile(v, 100), 5.0), "p100 is the maximum");
    expect(near(median(v), 3.0), "odd-count median");
    expect(near(median({1, 2, 3, 4}), 2.5), "even-count median interpolates");
    expect(near(percentile({10, 20}, 25), 12.5), "p25 of two values");
    std::vector<double> hundred;
    for (int i = 1; i <= 101; ++i) hundred.push_back(i);
    expect(near(percentile(hundred, 99), 100.0), "p99 of 1..101");
    expect(near(percentile({7}, 99), 7.0), "single sample");
    expect(std::isnan(percentile({}, 50)), "empty sample has no percentile");
    bool threw = false;
    try {
        (void)percentile(v, 101);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    expect(threw, "q outside [0, 100] is rejected");

    // Lateness: send lag behind the schedule, never negative.
    expect(near(lateness_ms(1000000, 3500000), 2.5), "2.5 ms late");
    expect(near(lateness_ms(5000000, 4000000), 0.0), "an early send is on time");

    // fail_frac: BUSY, errors and unanswered all count as failed.
    Outcomes o;
    o.sent = 200;
    o.ok = 190;
    o.busy = 5;
    o.errors = 3;
    o.unanswered = 2;
    expect(o.balanced(), "outcomes balance");
    expect(near(fail_frac(o), 0.05), "fail_frac = 10/200");
    expect(near(fail_frac(Outcomes{}), 1.0), "sending nothing is a total failure");
    Outcomes p;
    p.sent = 10;
    p.ok = 10;
    o += p;
    expect(o.sent == 210 && o.ok == 200 && near(fail_frac(o), 10.0 / 210.0), "outcomes add up");
    Outcomes lost;
    lost.sent = 3;
    lost.ok = 1;
    expect(!lost.balanced(), "a request without an outcome unbalances");

    // Result JSON: exact keys, full precision, refuses non-finite values.
    Ledger ledger;
    expect(!ledger.correct(), "a run with no checks is not correct");
    ledger.check("a", true);
    ledger.metric("latency_ms", 1.2345678901234567, "ms");
    ledger.count(1000, 2);
    const std::string json = ledger.to_json();
    expect(json.rfind("{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": {", 0) ==
               0,
           "JSON opens with correct, attempted, failed, metrics");
    expect(json.find("\"latency_ms\": {\"value\": 1.2345678901234567, \"unit\": \"ms\"}") !=
               std::string::npos,
           "metric keeps all its digits and its unit");
    ledger.check("b", false, "quote \" and newline \n");
    expect(!ledger.correct(), "one failed check makes the run incorrect");
    expect(ledger.to_json().find("quote \\\" and newline \\n") != std::string::npos,
           "strings are escaped");
    ledger.metric("bad", std::nan(""), "ms");
    threw = false;
    try {
        (void)ledger.to_json();
    } catch (const std::domain_error&) {
        threw = true;
    }
    expect(threw, "non-finite metric refused");

    // A probe's figures never overwrite the workload's own.
    Ledger own, probe;
    own.metric("exec.plan_misses", 3.0, "count");
    own.count(10, 0);
    probe.metric("exec.plan_misses", 7.0, "count");
    probe.metric("serve.submit_us", 2.5, "us");
    probe.check("probe.ok", false);
    probe.count(5, 1);
    own.adopt(probe);
    expect(own.get("exec.plan_misses") == 3.0, "own metric kept over the probe's");
    expect(own.get("serve.submit_us") == 2.5, "probe-only metric adopted");
    expect(own.attempted() == 15 && own.failed() == 1, "probe counts added");
    expect(own.checks().size() == 1 && !own.correct(), "probe checks adopted");

    if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
