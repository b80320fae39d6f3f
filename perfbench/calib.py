"""Machine-speed calibration.

On the small shared virtual machines this benchmark is run on, the same
code runs up to 1.5 times slower from one second to the next (frequency
changes and other tenants' load).  Raw medians of 30-second runs then
differ by 25 % or more between runs of the same code, far beyond any useful
regression bound.  So every timed operation is bracketed by a fixed
pure-Python kernel, and times are rescaled to a machine on which that
kernel takes ``REFERENCE_MS``:

    rescaled = measured * REFERENCE_MS / kernel_ms

where ``kernel_ms`` is the mean of the kernel's time just before and just
after the operation.  The kernel does not touch trendsig, so a change to the
package moves rescaled times exactly as it moves raw ones.  Raw times are
kept next to the rescaled ones in every result record.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_MS = 4.0


def _kernel() -> int:
    total = 0
    table = {}
    for i in range(30000):
        table[i & 1023] = i
        total += i * i
    return total


def sample_ms() -> float:
    """Median time of three kernel runs, in ms."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(1e3 * (perf_counter() - t0))
    return sorted(times)[1]


def rescale(value: float, kernel_ms: float) -> float:
    """A time measured next to a ``kernel_ms`` sample, in reference units."""
    return value * REFERENCE_MS / kernel_ms
