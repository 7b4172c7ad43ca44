"""Shared fixtures plus a terminal summary of the acceptance checks."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

_ACCEPT = re.compile(r"test_acceptance\.py::test_c(\d{2})_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one verdict line per numbered acceptance test, setup errors count as FAIL
    passed, failed, names = set(), set(), {}
    for status, bucket in (("passed", passed), ("failed", failed),
                           ("error", failed)):
        for rep in terminalreporter.stats.get(status, []):
            m = _ACCEPT.search(rep.nodeid)
            if m:
                num = int(m.group(1))
                bucket.add(num)
                names[num] = m.group(2)
    if not (passed | failed):
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(passed | failed):
        verdict = "FAIL" if num in failed else "PASS"
        terminalreporter.write_line(
            f"criterion {num:02d} ({names[num]}): {verdict}")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


_HWM_CHILD = """\
import re
def hwm():
    status = open('/proc/self/status').read()
    return 1024 * int(re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))
{setup}
base = hwm()
{work}
print(hwm() - base)
"""


@pytest.fixture
def hwm_growth():
    """hwm_growth(setup, work): run `setup`, then `work`, in a fresh
    interpreter, and return the bytes by which `work` raised its VmHWM above
    the high-water mark that `setup` left. The child reads its own mark: its
    ru_maxrss would start from this process's, which it inherits across
    exec."""
    def run(setup, work):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = _HWM_CHILD.format(setup=setup, work=work)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return int(out)
    return run
