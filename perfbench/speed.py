"""How fast each CPU of a shared machine runs at each moment.

On a 2-vCPU Firecracker guest of a shared Intel Xeon host, a fixed piece
of pure-Python work ran up to 1.9 times slower from one second to the
next, and the two vCPUs changed speed independently; the guest counts
the lost speed as CPU time, not as steal.  A 25 % bound on a wall-time
metric cannot hold under that.  So one sampler process is pinned to each
CPU; every ``PERIOD_S`` it times ``kernel()`` by its own CPU time.  A
timed interval is then scaled to the reference speed: its measured
duration times ``REFERENCE_KERNEL_S`` over the kernel time seen during
it, the CPUs weighted by how busy each was in the interval
(``/proc/stat``), or only the CPU a pinned process ran on.

    python3 perfbench/speed.py CPU    # one sampler; stop by closing stdin
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.001  # kernel time that defines "reference speed"
MAX_CPUS = 16
WINDOW_S = 0.25  # short intervals also use samples this close to them


def kernel() -> None:
    """Fixed integer matrix-product work, about 1 ms of pure Python."""
    n = 8
    a = [[(i * 7 + j * 3) % 5 - 2 for j in range(n)] for i in range(n)]
    w = [row[:] for row in a]
    for _ in range(10):
        bt = list(zip(*w))
        w = [[sum(x * y for x, y in zip(r, c)) % 1000003 for c in bt] for r in a]


def sample(cpu: int) -> None:
    """Time ``kernel()`` every PERIOD_S on ``cpu`` until stdin closes, then
    print the ``(monotonic start, kernel cpu seconds)`` samples as JSON."""
    os.sched_setaffinity(0, {cpu})
    out = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        t = time.monotonic()
        c = time.thread_time()
        kernel()
        out.append((t, time.thread_time() - c))
    print(json.dumps(out))


def busy_jiffies() -> dict[int, int]:
    """Busy clock ticks per CPU since boot (user, nice, system, irq, softirq)."""
    busy = {}
    with open("/proc/stat") as fh:
        for line in fh:
            if line.startswith("cpu") and line[3].isdigit():
                f = line.split()
                busy[int(f[0][3:])] = sum(int(f[i]) for i in (1, 2, 3, 6, 7))
    return busy


class SpeedMonitor:
    """Samplers on up to MAX_CPUS CPUs of this process's affinity set."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "SpeedMonitor":
        script = str(Path(__file__).resolve())
        for cpu in self.cpus:
            self._procs.append(
                subprocess.Popen(
                    [sys.executable, script, str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                )
            )
        return self

    def __exit__(self, *exc) -> None:
        for cpu, proc in zip(self.cpus, self._procs):
            try:
                out, _ = proc.communicate(timeout=30)
                self.samples[cpu] = [tuple(s) for s in json.loads(out)]
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()
                self.samples[cpu] = []

    def slowdown(self, t0: float, t1: float, weights: dict[int, float]) -> float:
        """Kernel time during [t0, t1] over REFERENCE_KERNEL_S: how much
        slower than the reference speed the CPUs ran, each CPU weighted by
        ``weights`` (busy jiffies over the interval, or 1 for the CPU a
        pinned process ran on)."""
        per_cpu = {}
        for cpu, samples in self.samples.items():
            inside = [d for t, d in samples if t0 <= t <= t1]
            if len(inside) < 3:
                inside = [d for t, d in samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
            if inside:
                per_cpu[cpu] = statistics.fmean(inside)
        used = {c: weights.get(c, 0) for c in per_cpu}
        total = sum(used.values())
        if not total:
            return 1.0
        kernel_s = sum(per_cpu[c] * w for c, w in used.items()) / total
        return kernel_s / REFERENCE_KERNEL_S


if __name__ == "__main__":
    sample(int(sys.argv[1]))
