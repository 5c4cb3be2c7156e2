"""Host-speed probes: convert wall time to reference time.

The benchmark shares its host with other tenants.  On the reference
machine a fixed loop ran up to 45% slower for stretches of seconds to
minutes, in CPU time as well as wall time, and runs of identical inputs
differed by 20-30% in raw median latency (quartile spread over rounds).
A probe is a fixed ~2 ms kernel that does the same kind of work as a
workload's ops, without calling qfix.  The benchmark runs it between ops
and scales each op's wall time by REF_SECONDS[kind] / (mean of the probe
times just before and after the op).  On a host where the probe takes
REF_SECONDS, reference time equals wall time.  A change to qfix moves the
op times and not the probe.

The host's slow states do not slow all code alike, so each workload gets
the probe that tracked it best over 14 interleaved rounds on the reference
machine (quartile spread of the median op latency over rounds, raw ->
scaled; the small-complex kernel was half as long then):

* "dense" (256 x 256 matrix-vector products and Python loops over 256
  floats, plus 2x2 products): synthetic-n256 0.32 -> 0.04;
* "small-complex" (Jacobi-rotation sweeps on a 4 x 4 complex Hermitian
  matrix, and 2x2 `cond` and `eigh` calls): mimo-nash 0.22 -> 0.07 and
  mimo-quantized 0.13 -> 0.07, where the dense probe left 0.13 and 0.15.
"""

from __future__ import annotations

import cmath
import math
import time

# Each probe's time on the reference machine in its fast state.
REF_SECONDS = {"dense": 2.0e-3, "small-complex": 1.5e-3}


class HostProbe:
    def __init__(self, np, kind: str):
        if kind not in REF_SECONDS:
            raise ValueError(f"unknown probe {kind!r}; choose from {sorted(REF_SECONDS)}")
        self.kind = kind
        self.ref_seconds = REF_SECONDS[kind]
        self._np = np
        rng = np.random.default_rng(0)
        self._h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._b = rng.standard_normal((256, 256))
        self._x = rng.standard_normal(256)
        self._xs = [float(v) for v in self._x]
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._a = a + a.conj().T
        self._kernel = self._dense if kind == "dense" else self._small_complex
        self._kernel()  # warm caches and numpy's dispatch before the first timing

    def _dense(self) -> float:
        np, s, h = self._np, 0.0, self._h
        for _ in range(300):
            m = h @ h.conj().T
            s += abs(m[0, 1]) + float(np.linalg.norm(m))
        s += sum([i * 1.5 for i in range(3000)])
        for _ in range(10):
            s += float((self._b @ self._x)[0])
        for _ in range(4):
            for v in self._xs:
                s += min(max(v, -1.0), 1.0)
        return s

    def _small_complex(self) -> float:
        np, s, a = self._np, 0.0, self._a.copy()
        for _ in range(12):
            for p in range(3):
                for q in range(p + 1, 4):
                    apq = a[p, q]
                    theta = 0.5 * math.atan2(2.0 * abs(apq), a[p, p].real - a[q, q].real)
                    c, sn = math.cos(theta), math.sin(theta)
                    e = cmath.exp(1j * cmath.phase(apq))
                    col = a[:, p].copy()
                    a[:, p] = c * col + sn * np.conj(e) * a[:, q]
                    s += float(np.sum(np.abs(a) ** 2))
        m = self._h
        for _ in range(40):
            s += float(np.linalg.cond(m))
            w, _ = np.linalg.eigh(m @ m.conj().T)
            s += float(w[0])
        return s

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """Reference seconds per wall second between two probes."""
        return self.ref_seconds / (0.5 * (before + after))
