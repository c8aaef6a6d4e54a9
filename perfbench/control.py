"""Control kernel: a fixed piece of benchmark-owned numpy and Python work.

The benchmark shares a small machine with other tenants, and the speed of
the whole machine drifts by tens of percent over seconds.  The untraced
pass runs this kernel before every op; each cycle's end-to-end latencies
are rescaled by ``CONTROL_REF_MS / median(control ms in that cycle)``,
which reports them at a fixed reference speed.  msot never runs here, so
a change to msot moves the ops and not the control.
"""

import csv
import io
import json
import time

import numpy as np

# reported ms = wall ms x CONTROL_REF_MS / control ms; the kernel takes
# about this long on the 2-vCPU Xeon sandbox the benchmark was tuned on
CONTROL_REF_MS = 7.0

_rng = np.random.default_rng(12345)
_BIG = _rng.standard_normal((100, 4000))  # 3.2 MB, sorted from memory like the large 1D kernels
_ROWS = _rng.standard_normal((200, 400))
_DIRS = _rng.standard_normal((20, 200))
_SYM = _rng.standard_normal((40, 3, 3))
_SYM = _SYM + _SYM.transpose(0, 2, 1)
_LEVELS = np.sort(_rng.random(128))
_CSV = "\n".join(",".join(repr(v) for v in row) for row in _rng.standard_normal((150, 10)).tolist())


def numeric_kernel():
    """Large and small sorts, a matmul, a batched eigh, small-array calls."""
    np.sort(_BIG, axis=-1)
    np.sort(_ROWS, axis=-1)
    _DIRS @ _ROWS
    np.linalg.eigh(_SYM)
    total = 0.0
    for k in range(200):
        total += int(np.searchsorted(_LEVELS, k / 200.0))
    for k in range(100):
        gap = np.abs(np.sort(_BIG[k, :400]) - _LEVELS[k % 128])
        total += float(gap @ gap)
    return total


def interpreter_kernel():
    """CSV parsing, float conversion and JSON emit, as the CLI does."""
    rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(_CSV))]
    return len(json.dumps({"rows": rows}, sort_keys=True, indent=2))


def timed_ns():
    """Run the kernel; return its total, numeric and interpreter time in ns."""
    start = time.perf_counter_ns()
    numeric_kernel()
    mid = time.perf_counter_ns()
    interpreter_kernel()
    end = time.perf_counter_ns()
    return end - start, mid - start, end - mid
