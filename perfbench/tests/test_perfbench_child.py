"""The command process reports its own peak memory, not its parent's."""

import json
import subprocess
import sys

import numpy as np

from conftest import PERFBENCH


def test_peak_rss_excludes_the_parent():
    ballast = np.ones(160 * 2**17)  # 160 MB resident in this process
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import child, json; "
            "print(json.dumps(child._peak_rss_mb()))")
    proc = subprocess.run([sys.executable, "-c", code, str(PERFBENCH)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert ballast.sum() > 0
    assert json.loads(proc.stdout) < 100
