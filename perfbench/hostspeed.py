"""Host-speed correction for wall times measured on a shared machine.

On a virtual machine whose cores are shared with other tenants, the same
code runs up to 1.6 times slower for seconds or minutes at a time, and the
end-to-end times of identical runs drift with it.  A fixed kernel built from
the primitives that dominate spindd's hot paths (Philox generator
construction, small-array NumPy arithmetic, big-integer ``Fraction`` sums) is
timed right before and after every sample, on the same core (run.py pins the
benchmark to one); the sample is scaled by ``KERNEL_REF_S`` over the mean of
the two kernel times.  The kernel is benchmark code, so a change to spindd
moves the corrected times and a change of host speed mostly does not.  Raw
times are reported next to the corrected ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

#: kernel time on the reference host, so corrected times read as seconds
#: there (a 2-core Xeon VM at 2.0 GHz runs the kernel in 8 to 13 ms)
KERNEL_REF_S = 0.008

_M = np.ones((200, 3))
_W = np.full((200, 3), 0.5)


def kernel_seconds() -> float:
    """Run the fixed kernel once and return its wall time."""
    start = time.perf_counter()
    for i in range(120):
        np.random.Generator(np.random.Philox(key=(7 << 64) | i, counter=0)).standard_normal(5)
    x = _M
    for _ in range(300):
        cross = np.stack(
            [
                x[:, 1] * _W[:, 2] - x[:, 2] * _W[:, 1],
                x[:, 2] * _W[:, 0] - x[:, 0] * _W[:, 2],
                x[:, 0] * _W[:, 1] - x[:, 1] * _W[:, 0],
            ],
            axis=1,
        )
        x = x + 1e-3 * cross
    acc = Fraction(0)
    for j in range(1, 240):
        acc += Fraction((-1) ** j * (2 * j + 1) ** 13, 480**13)
    return time.perf_counter() - start


class HostSpeed:
    """Scale factors for consecutive samples, from the kernel timed between them."""

    def __init__(self):
        kernel_seconds()  # first call pays for imports and caches
        self._last = kernel_seconds()
        self.kernel_s = []

    def factor(self) -> float:
        """KERNEL_REF_S over the mean kernel time around the sample just taken."""
        now = kernel_seconds()
        mean = 0.5 * (self._last + now)
        self._last = now
        self.kernel_s.append(mean)
        return KERNEL_REF_S / mean
