"""Machine-speed sampling inside a timed process.

On a shared host the same pass can run 1.75x slower for seconds at a time,
while another tenant loads the core under this vCPU.  Those phases come and
go within a pass and differ between the two vCPUs, so only a probe in the
timed thread itself can see them.  ``SpeedSampler`` runs a fixed probe of
about 1.5 ms from a SIGALRM handler every few hundred milliseconds, between
bytecodes of the main thread.  ``lap`` returns the mean probe speed
relative to the reference machine since the previous lap; a span of time
multiplied by it is that span in reference-speed seconds.  The speed is
taken from the whole probe or from its small-FFT part alone, whichever
tracks the workload (``workloads.Workload.speed_probe``).  The probe's own
time is returned too, so the caller can leave it out of what it times.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# Probe time on an uncontended core of the reference machine (Xeon with
# AVX-512, numpy 2.4 pocketfft), whole and of its small-FFT part (0.43 of
# the whole there).  Only ratios against them enter a result.
REFERENCE_PROBE_S = {"whole": 1.5e-3, "small": 6.4e-4}


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((64, 64))
        self._medium = rng.standard_normal((128, 128))
        self._large = rng.standard_normal((256, 256))
        # bound now, so a tracer patching numpy.fft later does not see probes
        self._fft2, self._ifft2 = np.fft.fft2, np.fft.ifft2
        self._probe_s: dict[str, list[float]] = {"whole": [], "small": []}
        self._overhead_s = 0.0
        # (start, end) of every probe since the previous lap, perf_counter
        self.intervals: list[tuple[float, float]] = []
        self._on_alarm()

    def _on_alarm(self, signum=None, frame=None) -> None:
        """One probe: the kinds of work a pass does, in rough proportion --
        FFTs at N = 64 and 128, elementwise passes over an N = 256 array,
        and interpreted Python."""
        small, medium, large = self._small, self._medium, self._large
        fft2, ifft2 = self._fft2, self._ifft2
        t0 = time.perf_counter()
        ifft2(fft2(small))                  # warm the caches the pass evicted
        ifft2(fft2(medium))
        np.exp(-0.5 * large)
        t1 = time.perf_counter()
        for _ in range(6):
            ifft2(fft2(small))
        t_small = time.perf_counter()
        ifft2(fft2(medium))
        np.exp(-0.5 * large)
        np.exp(-0.25 * large)
        np.abs(large * 1j).max()
        sum(i * i for i in range(1000))
        t2 = time.perf_counter()
        self._probe_s["whole"].append(t2 - t1)
        self._probe_s["small"].append(t_small - t1)
        self._overhead_s += t2 - t0
        self.intervals.append((t0, t2))

    def start(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def lap(self, part: str = "whole") -> tuple[float, float]:
        """(speed, probe seconds) since the previous lap, the speed measured
        by ``part`` of the probe; one more probe closes the window, so no
        window is without one."""
        self._on_alarm()
        speed = float(np.mean(REFERENCE_PROBE_S[part] / np.asarray(self._probe_s[part])))
        overhead = self._overhead_s
        self._probe_s = {"whole": [], "small": []}
        self._overhead_s, self.intervals = 0.0, []
        return speed, overhead
