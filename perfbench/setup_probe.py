"""Build one workload's set-up in a fresh interpreter, then exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD  (sictomo on PYTHONPATH)
The caller times the whole process, interpreter start and imports included.
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from perfbench.workloads import build_setup, make_workload
    build_setup(make_workload(sys.argv[1]))
