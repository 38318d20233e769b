#!/usr/bin/env python3
"""Exactness self-check of the benchmark's model counts.

    python3 perfbench/test_exactness.py

On sim-query, two runs with the same seed, a traced and an untraced run, and
two runs of different lengths (so of different round counts) must report
identical model counts per op. On threaded-batch, batch composition depends
on real timing, so the counts need only stay close. Builds the benchmark
first, like run.py.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the build step is shared with the runner)

EXACT = ("msg_cost_per_op", "work_per_op", "net.messages_per_op",
         "vsync.gcasts_per_op")
SEED = 7
# So short that every phase runs its minimum of 3 timed rounds.
SHORT_S = 0.001
# Long enough for several more rounds than that.
LONG_S = 4


def model_counts(workload, trace, seconds=SHORT_S):
    command = [str(run.BINARY), "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_LIMIT_S, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    assert lines[-1]["correct"] is True, lines[-1]
    model = next(line["model"] for line in lines if "model" in line)
    return {name: model[name]["value"] for name in EXACT}


class Exactness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_sim_query_is_exact(self):
        first = model_counts("sim-query", 0)
        self.assertEqual(first, model_counts("sim-query", 0), "same seed")
        self.assertEqual(first, model_counts("sim-query", 1), "traced")
        self.assertEqual(first, model_counts("sim-query", 0, LONG_S),
                         "more rounds")

    def test_threaded_batch_is_steady(self):
        first = model_counts("threaded-batch", 0)
        second = model_counts("threaded-batch", 0, LONG_S)
        for name in EXACT:
            self.assertAlmostEqual(first[name], second[name],
                                   delta=0.1 * first[name], msg=name)


if __name__ == "__main__":
    unittest.main()
