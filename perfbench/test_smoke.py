"""Smoke test of the pipeline benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark binary if needed, then runs `run.py --smoke`: every workload
for about a second with tracing off and on, through the same code path
and output checks as a full run.
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_and_checks_out(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertEqual(proc.stdout.count(": ok"), 6, proc.stdout)


if __name__ == "__main__":
    unittest.main()
