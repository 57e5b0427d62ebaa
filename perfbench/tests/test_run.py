"""Self-test of perfbench/run.py's result schema handling.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def result(**overrides):
    base = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "latency_ms": {"value": 1.25, "unit": "ms"},
            "setup_s": {"value": 0.5, "unit": "s"},
            "extra": {"value": 3.0, "unit": "count"},
        },
        "checks": [],
        "info": {},
    }
    base.update(overrides)
    return base


WANTED = {"latency_ms": "ms", "setup_s": "s"}


class FinalResultTest(unittest.TestCase):
    def test_exact_keys_and_selected_metrics(self):
        final = run.final_result(result(), WANTED)
        self.assertEqual(list(final), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(final["metrics"], {"latency_ms": {"value": 1.25, "unit": "ms"},
                                            "setup_s": {"value": 0.5, "unit": "s"}})
        # The last line is one JSON object that round-trips.
        self.assertEqual(json.loads(json.dumps(final)), final)

    def test_missing_metric_is_refused(self):
        r = result()
        del r["metrics"]["setup_s"]
        with self.assertRaises(run.BenchError):
            run.final_result(r, WANTED)

    def test_unit_mismatch_is_refused(self):
        r = result()
        r["metrics"]["latency_ms"]["unit"] = "s"
        with self.assertRaises(run.BenchError):
            run.final_result(r, WANTED)

    def test_non_numbers_are_refused(self):
        for bad in (float("nan"), float("inf"), "1.0", None, True):
            r = result()
            r["metrics"]["latency_ms"]["value"] = bad
            with self.assertRaises(run.BenchError, msg=repr(bad)):
                run.final_result(r, WANTED)

    def test_counts_must_be_whole_and_attempted_positive(self):
        for overrides in ({"attempted": 0}, {"attempted": 1.5}, {"failed": -1},
                          {"failed": True}, {"correct": 1}):
            with self.assertRaises(run.BenchError, msg=repr(overrides)):
                run.final_result(result(**overrides), WANTED)

    def test_incorrect_run_is_reported_not_hidden(self):
        final = run.final_result(result(correct=False, failed=2), WANTED)
        self.assertFalse(final["correct"])
        self.assertEqual(final["failed"], 2)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_workloads(self):
        contract = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        workloads = json.loads((HERE.parent / "workloads.json").read_text())["workloads"]
        self.assertEqual([w["name"] for w in contract["workloads"]], list(workloads))
        for w in contract["workloads"]:
            self.assertEqual(w["why"], workloads[w["name"]]["why"])
        names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        e2e = {m["name"]: m for m in contract["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in e2e.values()), e2e["setup_s"]["bound"])
        self.assertEqual(run.contract_metrics(contract, 0), {n: m["unit"] for n, m in e2e.items()})


if __name__ == "__main__":
    unittest.main()
