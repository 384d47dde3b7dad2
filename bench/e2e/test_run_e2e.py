"""Tests of the benchmark's statistics: percentiles, pooling, verification
accounting, and the comparison verdicts.

    cd bench/e2e && python3 -m unittest test_run_e2e
"""

import io
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run_e2e  # noqa: E402


def child(step_ms, setup_s=(0.2,), timed_s=1.0, maxrss_kib=1024, batch=32,
          verify=("aa", "bb"), nonfinite=0):
    return {"step_ms": list(step_ms), "setup_s": list(setup_s),
            "timed_s": timed_s,
            "maxrss_kib": maxrss_kib, "batch": batch, "verify": list(verify),
            "nonfinite": nonfinite, "warmup_steps": 5}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(run_e2e.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(run_e2e.percentile([5], 95), 5)
        self.assertAlmostEqual(run_e2e.percentile(range(101), 95), 95.0)

    def test_p95_has_ten_beyond_from_200_samples(self):
        xs = list(range(1, 201))
        self.assertGreaterEqual(
            run_e2e.beyond(xs, run_e2e.percentile(xs, 95)), 10)
        few = list(range(1, 101))
        self.assertLess(
            run_e2e.beyond(few, run_e2e.percentile(few, 95)), 10)


class PoolTest(unittest.TestCase):
    def test_pools_samples_across_rounds(self):
        rounds = [child([10, 30], setup_s=(0.1, 0.9, 0.8), timed_s=0.5,
                        maxrss_kib=2048),
                  child([20], setup_s=(0.7, 0.75, 0.15), timed_s=0.5,
                        maxrss_kib=1024),
                  child([40], setup_s=(0.2, 0.6, 0.05), timed_s=1.0,
                        maxrss_kib=3072)]
        m = run_e2e.pool(rounds)
        self.assertEqual(m["step_ms_p50"], 25.0)
        self.assertEqual(m["samples"], 4)
        self.assertEqual(m["beyond_p95"], 1)
        self.assertEqual(m["samples_per_s"], 32 * 4 / 2.0)
        # The median of all nine set-ups, not of the round medians (0.7).
        self.assertEqual(m["setup_s"], 0.6)
        self.assertEqual(m["peak_rss_mib"], 3.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(run_e2e.BenchError):
            run_e2e.pool([child([])])


class CheckRoundsTest(unittest.TestCase):
    def test_counts_steps_and_failures(self):
        ref = {"w": ["aa", "bb"]}
        ok = child([1, 2, 3])
        self.assertEqual(run_e2e.check_rounds("w", [ok], ref), (10, 0))
        bad = child([1], verify=("aa", "cc"), nonfinite=1)
        self.assertEqual(run_e2e.check_rounds("w", [ok, bad], ref), (18, 2))

    def test_missing_reference_fails_every_verification(self):
        self.assertEqual(run_e2e.check_rounds("w", [child([1])], {}), (8, 2))


class CacheValueTest(unittest.TestCase):
    def test_reads_typed_and_untyped_entries(self):
        with tempfile.TemporaryDirectory() as d:
            cache = Path(d) / "CMakeCache.txt"
            self.assertEqual(run_e2e.cache_value(cache, "X"), "")
            cache.write_text("// comment\nCMAKE_BUILD_TYPE:STRING=Debug\n"
                             "CMAKE_PROJECT_INCLUDE:UNINITIALIZED=/a=b\n"
                             "CMAKE_BUILD_TYPE_X:STRING=no\n")
            self.assertEqual(run_e2e.cache_value(cache, "CMAKE_BUILD_TYPE"),
                             "Debug")
            self.assertEqual(
                run_e2e.cache_value(cache, "CMAKE_PROJECT_INCLUDE"), "/a=b")
            self.assertEqual(run_e2e.cache_value(cache, "MISSING"), "")


class VerdictTest(unittest.TestCase):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_regression_past_bound(self):
        change = [x * 1.2 for x in self.parent]
        self.assertEqual(
            compare.verdict(self.parent, change, "lower", 0.1)["verdict"],
            "regression")
        self.assertEqual(
            compare.verdict(self.parent, change, "higher", 0.1)["verdict"],
            "gain")

    def test_within_bound_is_unchanged(self):
        change = [x * 1.05 for x in self.parent]
        self.assertEqual(
            compare.verdict(self.parent, change, "lower", 0.1)["verdict"],
            "unchanged")

    def test_nine_of_ten_wins_with_large_difference_is_a_gain(self):
        change = [x * 0.9 for x in self.parent]
        change[3] = self.parent[3]  # a tie counts for neither side
        row = compare.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(row["win_fraction"], 0.9)
        self.assertEqual(row["verdict"], "gain")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [x * 0.9 for x in self.parent]
        change[3] = self.parent[3] + 5
        change[4] = self.parent[4] + 5
        row = compare.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(row["win_fraction"], 0.8)
        self.assertEqual(row["verdict"], "unchanged")

    def test_difference_within_parent_iqr_is_not_a_gain(self):
        change = [x - 0.5 for x in self.parent]
        row = compare.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(row["win_fraction"], 1.0)
        self.assertEqual(row["verdict"], "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [x * 1.02 for x in parent]
        self.assertEqual(
            compare.verdict(parent, change, "lower", 0.1)["verdict"],
            "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        parent = [100, 140, 110, 120, 130, 105, 135, 115, 125, 100]
        change = [x - 1 for x in [99, 99, 99, 99, 99, 99, 99, 99, 99, 99]]
        row = compare.verdict(parent, change, "lower", 0.1)
        self.assertNotEqual(row["verdict"], "unresolved")

    def test_fewer_than_ten_pairs_never_claims_a_gain(self):
        row = compare.verdict(self.parent[:5],
                              [x * 0.5 for x in self.parent[:5]], "lower",
                              0.1)
        self.assertEqual(row["verdict"], "unchanged")


class AgreeTest(unittest.TestCase):
    metrics = {"step_ms_p50": ("lower", 0.1)}

    def report(self, value, workload="w"):
        return {"workloads": {workload: {"metrics": {
            "step_ms_p50": {"value": value, "unit": "ms"}}}}}

    def test_agreement_is_judged_against_the_bound(self):
        rows = compare.agree(self.report(100), self.report(109), ["w"],
                             self.metrics)
        self.assertTrue(rows[0][-1])
        rows = compare.agree(self.report(100), self.report(89), ["w"],
                             self.metrics)
        self.assertFalse(rows[0][-1])

    def test_missing_workload_or_metric_disagrees(self):
        a = self.report(100)
        a["workloads"]["v"] = self.report(50)["workloads"]["w"]
        rows = compare.agree(a, self.report(100), ["w", "v"], self.metrics)
        self.assertEqual([(r[0], r[-1]) for r in rows],
                         [("w", True), ("v", False)])
        self.assertIsNone(rows[1][4])
        metrics = dict(self.metrics, samples_per_s=("higher", 0.2))
        rows = compare.agree(self.report(100), self.report(100), ["w"],
                             metrics)
        self.assertEqual([r[-1] for r in rows], [True, False])
        rows = compare.agree(self.report(100), self.report(100), ["w", "v"],
                             self.metrics)
        self.assertFalse(rows[1][-1])


class PairsTest(unittest.TestCase):
    metrics = {"step_ms_p50": ("lower", 0.1)}

    def run_pairs(self, change_report):
        """run_pairs over 10 pairs with a fixed parent report."""
        parent = AgreeTest().report(100)

        def run_side(checkout, pair, seed, extra):
            return change_report if checkout.name == "change" else parent

        args = SimpleNamespace(workload=None, seconds=None, pairs=10, seed=1,
                               parent=Path("parent"), change=Path("change"))
        with mock.patch.object(compare, "run_side", run_side), \
                mock.patch("sys.stdout", io.StringIO()):
            return compare.run_pairs(args, ["w"], self.metrics)

    def test_unchanged_passes_and_regression_fails(self):
        self.assertEqual(self.run_pairs(AgreeTest().report(101)), 0)
        self.assertEqual(self.run_pairs(AgreeTest().report(120)), 1)

    def test_missing_workload_fails_without_raising(self):
        self.assertEqual(self.run_pairs(AgreeTest().report(100, "v")), 1)


if __name__ == "__main__":
    unittest.main()
