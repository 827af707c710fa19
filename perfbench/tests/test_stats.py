"""Tests for the benchmark's own arithmetic and traffic generation.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import schedule  # noqa: E402
import stats  # noqa: E402
from stats import Span  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_full_p99_when_ten_samples_lie_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        value, p = stats.tail_percentile(samples, 0.99)
        self.assertEqual(p, 0.99)
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_falls_back_to_highest_supported_percentile(self):
        samples = list(range(1, 501))
        value, p = stats.tail_percentile(samples, 0.99)
        self.assertAlmostEqual(p, 0.98)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_never_below_median(self):
        value, p = stats.tail_percentile([5, 1, 3], 0.99)
        self.assertEqual(p, 0.5)
        self.assertEqual(value, 3)

    def test_order_does_not_matter(self):
        a = [float(i) for i in range(2000)]
        self.assertEqual(stats.tail_percentile(a),
                         stats.tail_percentile(list(reversed(a))))

    def test_failures_count_as_infinite_latency(self):
        samples = [1.0] * 985 + [float("inf")] * 15
        self.assertEqual(stats.tail_percentile(samples)[0], float("inf"))


class WindowedTailTest(unittest.TestCase):
    def test_one_stalled_window_does_not_move_the_median(self):
        steady = [1.0] * 1000
        stalled = [1.0] * 950 + [50.0] * 50
        value, p = stats.windowed_tail(steady * 2 + stalled, 3)
        self.assertEqual(value, 1.0)
        self.assertEqual(p, 0.99)
        self.assertEqual(stats.windowed_tail(stalled * 2 + steady, 3)[0], 50.0)

    def test_reports_the_lowest_percentile_used(self):
        value, p = stats.windowed_tail(list(range(600)), 3)
        self.assertAlmostEqual(p, 0.95)
        self.assertEqual(value, 389)  # rank 190 of the middle slice 200..399


class SelfTimeTest(unittest.TestCase):
    def test_children_on_other_threads_are_not_subtracted(self):
        spans = [
            Span("train/forward", 0, 0, 100),
            Span("ops/matmul", 0, 10, 20),       # same thread: a child
            Span("gemm/kernel", 0, 12, 5),       # grandchild
            Span("pool/shard", 1, 15, 70),       # worker thread, concurrent
        ]
        own = stats.self_times(spans)
        self.assertEqual(own[0], 80)  # 100 - 20, the shard is not a child
        self.assertEqual(own[1], 15)
        self.assertEqual(own[3], 70)

    def test_siblings_and_nesting(self):
        spans = [Span("a", 0, 0, 50), Span("b", 0, 0, 10),
                 Span("c", 0, 10, 10), Span("d", 0, 60, 5)]
        parent = stats.nest(spans)
        self.assertEqual(parent, [None, 0, 0, None])
        self.assertEqual(stats.self_times(spans, parent)[0], 30)

    def test_group_total_skips_nested_members(self):
        spans = [Span("gemm/batched_gemm", 0, 0, 40),
                 Span("gemm/gemm", 0, 5, 10), Span("gemm/gemm", 0, 50, 7)]
        parent = stats.nest(spans)
        self.assertEqual(stats.group_total(range(3), stats.GEMM, spans, parent),
                         (47, 2))


class PoolOverheadTest(unittest.TestCase):
    def test_overhead_is_duration_minus_longest_shard(self):
        pfs = [Span("pool/parallel_for", 0, 0, 100),
               Span("pool/parallel_for", 0, 200, 50)]
        shards = [Span("pool/shard", 1, 5, 60), Span("pool/shard", 2, 8, 90),
                  Span("pool/shard", 1, 210, 30)]
        calls, overhead, shard_ns = stats.pool_overhead(pfs, shards)
        self.assertEqual(calls, 2)
        self.assertEqual(overhead, (100 - 90) + (50 - 30))
        self.assertEqual(shard_ns, 180)

    def test_shard_outside_every_call_is_ignored(self):
        calls, overhead, shard_ns = stats.pool_overhead(
            [Span("pool/parallel_for", 0, 100, 10)],
            [Span("pool/shard", 1, 50, 5)])
        self.assertEqual((calls, overhead, shard_ns), (1, 10, 0))


class FoldTrainTest(unittest.TestCase):
    def test_attribution_of_a_two_step_fit(self):
        ms = 1_000_000
        spans = [Span("bench/fit", 0, 0, 100 * ms)]
        for k in range(2):
            t = 10 * ms + k * 40 * ms
            spans += [
                Span("data/next_batch", 0, t - ms, ms),
                Span("train/step", 0, t, 38 * ms),
                Span("train/forward", 0, t, 20 * ms),
                Span("nn/attention_block", 0, t + ms, 8 * ms),
                Span("gemm/gemm", 0, t + 2 * ms, 4 * ms),
                Span("ops/softmax_xent", 0, t + 10 * ms, 6 * ms),
                Span("train/backward", 0, t + 21 * ms, 12 * ms),
                Span("autograd/backward", 0, t + 21 * ms, 12 * ms),
                Span("softmax_cross_entropy", 0, t + 22 * ms, 3 * ms),
                Span("train/optimizer", 0, t + 34 * ms, 3 * ms),
            ]
        spans += [Span("bench/evaluate", 0, 200 * ms, 10 * ms),
                  Span("eval/score_user", 0, 200 * ms, 4 * ms),
                  Span("eval/score_user", 1, 201 * ms, 6 * ms)]
        out = stats.fold_train(spans, threads=2)
        self.assertEqual(out["core.fit.steps"], 2)
        self.assertAlmostEqual(out["nn.attention_ms"], 8)
        self.assertAlmostEqual(out["autograd.head_xent_ms"], 9)
        self.assertAlmostEqual(out["tensor.gemm_ms"], 4)
        self.assertAlmostEqual(out["tensor.gemm_calls"], 1)
        self.assertAlmostEqual(out["optim.step_ms"], 3)
        self.assertAlmostEqual(out["data.next_batch_ms"], 1)
        self.assertAlmostEqual(out["autograd.forward_ms"], 20 - 8 - 6)
        self.assertAlmostEqual(out["autograd.backward_ms"], 12 - 3)
        # Named children cover 35 of each 38 ms step; the fit adds 24 ms
        # outside the steps.
        self.assertAlmostEqual(out["core.step.attributed_frac"], 35 / 38)
        self.assertAlmostEqual(out["core.fit.unattributed_frac"],
                               (2 * 3 + 24) / 100)
        self.assertAlmostEqual(out["eval.busy_frac"], 10 / 20)
        self.assertEqual(out["eval.users"], 2)


class GoodputTest(unittest.TestCase):
    def test_ladder_is_fixed_and_finer_than_the_bound(self):
        rates = stats.ladder(100, 3200, 1.06)
        self.assertEqual(rates[0], 100)
        self.assertGreaterEqual(rates[-1] * 1.06, 3200)
        for a, b in zip(rates, rates[1:]):
            self.assertLess(b / a, 1.07)

    def test_search_finds_highest_passing_rung(self):
        rates = stats.ladder(100, 3200, 1.06)
        for knee in (100, 431, 1000, 3200):
            best, probed = stats.search_ladder(rates, lambda r: r <= knee)
            self.assertEqual(best, max(r for r in rates if r <= knee))
            self.assertLessEqual(len(probed), 7)

    def test_nothing_passes(self):
        self.assertEqual(stats.search_ladder([100, 200], lambda r: False)[0],
                         None)

    def test_phase_limits(self):
        ok = dict(p99_limit_ms=10, fail_limit=0.01, lag_growth_limit_ms=2)
        self.assertTrue(stats.phase_passes(9.9, 10, 1000, 0.5, **ok))
        self.assertFalse(stats.phase_passes(10.1, 0, 1000, 0.0, **ok))
        self.assertFalse(stats.phase_passes(5.0, 11, 1000, 0.0, **ok))
        self.assertFalse(stats.phase_passes(5.0, 0, 1000, 2.5, **ok))

    def test_growing_backlog_shows_as_lag_growth(self):
        due = list(range(0, 100000, 1000))
        steady = [d + 200 for d in due]
        growing = [d + 50 * i for i, d in enumerate(due)]
        self.assertAlmostEqual(stats.lag_growth_ms(due, steady), 0.0)
        self.assertGreater(stats.lag_growth_ms(due, growing), 2.0)
        # A burst queued behind the four connections near the end of the
        # phase is not a growing backlog.
        burst = [d + (8000 if 90 <= i < 95 else 200) for i, d in enumerate(due)]
        self.assertAlmostEqual(stats.lag_growth_ms(due, burst), 0.0)


class FailFracTest(unittest.TestCase):
    def test_every_failure_kind_counts_against_attempted(self):
        statuses = [200, 200, 429, 504, 0, 503, 200, 200]
        failed = stats.count_failures(statuses, mismatches=1, skipped_steps=2)
        self.assertEqual(failed, 4 + 1 + 2)
        # Unanswered requests stay in the denominator.
        self.assertAlmostEqual(stats.fail_frac(len(statuses) + 10, failed),
                               7 / 18)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)


class ScheduleTest(unittest.TestCase):
    def lines(self, seed, kind="repeat", reload_every=0.0):
        traffic = schedule.Traffic(seed, kind, 12069, 5, 13)
        out = []
        for label, rate in (("low", 150), ("high", 450)):
            out += schedule.phase_lines(traffic, label, rate, 2.0,
                                        reload_every)
        return "\n".join(out).encode()

    def test_same_seed_gives_identical_bytes(self):
        for kind in ("repeat", "fresh"):
            self.assertEqual(self.lines(7, kind, 0.5), self.lines(7, kind, 0.5))

    def test_other_seed_gives_other_traffic(self):
        self.assertNotEqual(self.lines(7), self.lines(8))

    def test_poisson_rate_and_reload_cadence(self):
        traffic = schedule.Traffic(3, "fresh", 879, 20, 170)
        lines = schedule.phase_lines(traffic, "p", 500, 4.0, 0.5)
        recs = [l for l in lines if l.startswith("rec ")]
        reloads = [l for l in lines if l.startswith("reload ")]
        self.assertEqual(len(reloads), 8)
        self.assertLess(abs(len(recs) - 2000), 200)
        dues = [int(l.split()[1]) for l in lines]
        self.assertEqual(dues, sorted(dues))

    def test_repeat_traffic_replays_histories(self):
        traffic = schedule.Traffic(5, "repeat", 12069, 5, 13)
        bodies = [l.split(" ", 4)[4] for l in
                  schedule.phase_lines(traffic, "p", 1000, 2.0)]
        self.assertGreater(1 - len(set(bodies)) / len(bodies), 0.5)
        fresh = schedule.Traffic(5, "fresh", 12069, 5, 13)
        bodies = [l.split(" ", 4)[4] for l in
                  schedule.phase_lines(fresh, "p", 1000, 2.0)]
        self.assertEqual(len(set(bodies)), len(bodies))


class CompareTest(unittest.TestCase):
    def compare(self, base, new):
        with tempfile.TemporaryDirectory() as d:
            spec = os.path.join(d, "BENCHMARK.json")
            with open(spec, "w") as f:
                json.dump({"end_to_end": [{"name": "setup_s", "unit": "s",
                                           "better": "lower",
                                           "bound": 0.25}]}, f)
            paths = {}
            for side, (nproc, value) in (("base", base), ("new", new)):
                paths[side] = os.path.join(d, side + ".json")
                with open(paths[side], "w") as f:
                    json.dump({"workload": "w", "trace": 0,
                               "fingerprint": {"cpu": "x", "nproc": nproc,
                                               "seed": 1},
                               "metrics": {"setup_s": value}}, f)
            return subprocess.run(
                [sys.executable, os.path.join(PERFBENCH, "compare.py"),
                 "--benchmark", spec, "--base", paths["base"],
                 "--new", paths["new"]], capture_output=True).returncode

    def test_within_bound(self):
        self.assertEqual(self.compare((4, 1.0), (4, 1.2)), 0)

    def test_worse_than_bound(self):
        self.assertEqual(self.compare((4, 1.0), (4, 1.3)), 1)

    def test_refuses_another_host(self):
        self.assertEqual(self.compare((4, 1.0), (1, 1.0)), 3)


if __name__ == "__main__":
    unittest.main()
