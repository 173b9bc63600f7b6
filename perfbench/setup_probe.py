"""One set-up of a benchmark run, in a fresh interpreter.

Imports the package with its command-line module, loads the corpus and
makes the first round's inputs, then exits.  ``run.py`` times whole runs
of this script, interpreter start-up included, to measure ``setup_s``.

Usage: python3 -B perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import latspi.cli  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]))
