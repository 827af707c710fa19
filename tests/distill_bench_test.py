#!/usr/bin/env python3
"""Tests for tools/distill_bench.py's GFLOP/s arithmetic.

google-benchmark reports items_per_second over the main thread's CPU time.
With the thread pool running, workers' time is not metered, so the CPU time
shrinks and the rate inflates; the distiller must rate GEMM rows over wall
time, the same clock as ns_per_iter.

Run directly (python3 tests/distill_bench_test.py) or through ctest.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True  # keep tools/ free of __pycache__
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))

import distill_bench  # noqa: E402

# 2 * 256^3 FLOPs per iteration: items_processed counts multiply-adds.
MADDS = 256 ** 3


def gbench_entry(name, real_ns, cpu_ns):
    """A google-benchmark JSON entry as the library writes it: the rate
    divides items by CPU time."""
    return {
        "name": name,
        "run_type": "iteration",
        "real_time": real_ns,
        "cpu_time": cpu_ns,
        "time_unit": "ns",
        "items_per_second": MADDS / (cpu_ns * 1e-9),
    }


class GflopsFromWallTimeTest(unittest.TestCase):
    def test_single_thread_rate_uses_real_time(self):
        rec = distill_bench.parse_record(
            gbench_entry("BM_MatMul2D/256/1", real_ns=360000.0,
                         cpu_ns=355000.0))
        self.assertEqual(rec["threads"], 1)
        self.assertEqual(rec["ns_per_iter"], 360000.0)
        self.assertAlmostEqual(rec["gflops"], 2 * MADDS / 360000.0, places=2)

    def test_threaded_rate_is_not_inflated_by_cpu_time(self):
        # The main thread ran a quarter of the work: CPU time is ~1/4 of
        # wall time, so the raw rate reads ~4x too high.
        entry = gbench_entry("BM_MatMul2D/256/4", real_ns=405536.1,
                             cpu_ns=101384.0)
        rec = distill_bench.parse_record(entry)
        self.assertEqual(rec["threads"], 4)
        self.assertAlmostEqual(rec["gflops"], 2 * MADDS / 405536.1, places=2)
        self.assertLess(rec["gflops"], 2.0 * entry["items_per_second"] / 1e9)
        # GFLOP/s and ns_per_iter now describe the same clock.
        self.assertAlmostEqual(rec["gflops"] * rec["ns_per_iter"], 2 * MADDS,
                               delta=2 * MADDS * 1e-4)

    def test_rows_without_items_counter_get_no_rate(self):
        entry = gbench_entry("BM_MatMul2D/256/4", real_ns=1.0, cpu_ns=1.0)
        del entry["items_per_second"]
        self.assertNotIn("gflops", distill_bench.parse_record(entry))


if __name__ == "__main__":
    unittest.main()
