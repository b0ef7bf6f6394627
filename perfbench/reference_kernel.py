"""Fixed computations that measure how fast the machine runs right now.

On a shared machine the same study call can take from 1.2 to 2 times its
best time, and the level shifts every few minutes as other tenants' load
comes and goes; CPU time shifts with it, so it is contention for the core,
not scheduling. A run's median cannot remove a shift that outlasts the run.
The benchmark therefore times a reference kernel between study calls and
reports the study's median wall time over the kernel's, which cancels most
of the shift.

How much a shift slows code depends on the kind of code, so each kernel
does the kind of work of the studies it serves: ``pipeline`` an
element-by-element phase ascent, a vectorized bisection and small
pseudo-inverses; ``pattern`` a per-angle field sum over a 400-element
surface. Neither calls squintsim, so no change to the package moves them.
"""

import time

import numpy as np


def _pipeline() -> float:
    rng = np.random.default_rng(12345)
    cascade = rng.standard_normal((100, 8)) + 1j * rng.standard_normal((100, 8))
    theta = np.ones(100, dtype=complex)
    residual = theta @ cascade
    for _ in range(6):
        for n in range(100):
            partial = residual - theta[n] * cascade[n]
            s = np.vdot(partial, cascade[n])
            theta[n] = np.conj(s) / abs(s)
            residual = partial + theta[n] * cascade[n]
    goal = -rng.uniform(0.1, 1.0, 100)
    lo, hi = np.zeros(100), np.ones(100)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        right = np.angle((1j * mid - 1.0) / (1j * mid + 1.0)) > goal
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    for _ in range(100):
        np.linalg.pinv(cascade[:2])
    return float(np.sum(lo)) + float(np.abs(residual).sum())


def _pattern() -> float:
    rng = np.random.default_rng(7)
    positions = 0.5 * rng.standard_normal((400, 3))
    gammas = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 400))
    k = 52.4
    d_in = np.linalg.norm(positions - np.array([50.0, -50.0, 18.0]), axis=1)
    incident = np.exp(-1j * k * d_in) / d_in
    power = 0.0
    for angle in np.radians(np.linspace(-90.0, 90.0, 360)):
        point = 4.2 * np.array([np.sin(angle), 0.0, np.cos(angle)])
        d = np.linalg.norm(point[None, :] - positions, axis=1)
        power += abs(complex(np.sum(incident * gammas * (np.exp(-1j * k * d) / d)))) ** 2
    return power


# kernel and repeats, each about 0.25 s on one 2.1 GHz core
KERNELS = {"pipeline": (_pipeline, 25), "pattern": (_pattern, 10)}


def seconds(kind: str) -> float:
    """Wall time of one timing of the named kernel."""
    kernel, repeats = KERNELS[kind]
    start = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return time.perf_counter() - start
