"""Seeded benchmark inputs: system-file text, points, levels and oracles.

Nothing here imports liouville.  System files are written from closed-form
formulas, and every oracle value (member values, actions, periods) is
computed with numpy from the same formulas, so the checks in
``workloads.py`` do not lean on the code they check.

Every draw comes from ``rng(seed, label, index)``: the same seed, class
label and op index always give the same input, whatever ran before.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Flows start vortices no closer than this.  A uniform draw once put two
# vortices of a 4-vortex start 0.033 apart: that op took 7.5 s and 47k
# adaptive steps, about 100 times a normal op, and broke the drift bound.
# Close approaches are a different workload from the one measured here.
MIN_VORTEX_SEPARATION = 0.5


def rng(seed: int, label: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(label.encode()), index])


def _num(v: float) -> str:
    return repr(float(v))


def _sum(terms) -> str:
    return "+".join(terms)


@dataclass
class System:
    """One generated system: its file text and a numpy member evaluator."""

    text: str
    members: Callable[[np.ndarray], np.ndarray]


def _file(name: str, n: int, weights, seed: int, hamiltonian: str,
          invariants: list[tuple[str, str]], chart: list[str] = (),
          probes: list[np.ndarray] = ()) -> str:
    lines = ["[system]", f"name = {name}", f"dimension = {n}",
             f"weights = {', '.join(_num(w) for w in weights)}",
             f"seed = {seed}", f"hamiltonian = {hamiltonian}", "",
             "[invariants]"]
    lines += [f"{key} = {value}" for key, value in invariants]
    if chart:
        lines += ["", "[chart]", *chart]
    if len(probes):
        lines += ["", "[probes]"]
        for y in probes:
            lines.append(f"point = {', '.join(_num(v) for v in y[:n])} | "
                         f"{', '.join(_num(v) for v in y[n:])}")
    return "\n".join(lines) + "\n"


def file_seed(r: np.random.Generator) -> int:
    return int(r.integers(1, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# systems


def vortex_intensities(r: np.random.Generator, n: int) -> np.ndarray:
    """n-1 positive intensities in [0.8, 1.2] and one that zeroes the sum.

    A zero total keeps {P1, P2} = 0, so the algebra closes without a
    central term.
    """
    xi = r.uniform(0.8, 1.2, size=n - 1)
    return np.append(xi, -xi.sum())


def vortices(xi: np.ndarray, seed: int, probes=()) -> System:
    n = len(xi)
    xi = [float(v) for v in xi]
    logs = []
    for i in range(n):
        for j in range(i + 1, n):
            logs.append(f"{_num(xi[i] * xi[j])}*ln((q{i + 1}-q{j + 1})^2"
                        f"+(p{i + 1}-p{j + 1})^2)")
    h = f"{_num(-1.0 / (2.0 * math.pi))}*({_sum(logs)})"
    p1 = _sum(f"{_num(x)}*q{i + 1}" for i, x in enumerate(xi))
    p2 = _sum(f"{_num(x)}*p{i + 1}" for i, x in enumerate(xi))
    moment = _sum(f"{_num(x / 2.0)}*(q{i + 1}^2+p{i + 1}^2)"
                  for i, x in enumerate(xi))
    text = _file(f"vortices{n}", n, xi, seed, h,
                 [("P1", p1), ("P2", p2), ("P", moment), ("H", h)],
                 probes=probes)
    w = np.array(xi)
    iu = np.triu_indices(n, 1)

    def members(y: np.ndarray) -> np.ndarray:
        qs, ps = y[:n], y[n:]
        d2 = (qs[:, None] - qs[None, :]) ** 2 + (ps[:, None] - ps[None, :]) ** 2
        energy = -np.sum(np.outer(w, w)[iu] * np.log(d2[iu])) / (2 * math.pi)
        return np.array([w @ qs, w @ ps, 0.5 * w @ (qs ** 2 + ps ** 2),
                         energy])

    return System(text, members)


def central_field(a: float, b: float, seed: int, probes=()) -> System:
    """A point in R^3 under V = a r^2/2 + b r^4/4, with its angular momenta."""
    r2 = "(q1^2+q2^2+q3^2)"
    h = f"(p1^2+p2^2+p3^2)/2+{_num(a)}*{r2}/2+{_num(b)}*{r2}^2/4"
    text = _file("central_field", 3, (1, 1, 1), seed, h,
                 [("H", h), ("P1", "p2*q3-p3*q2"), ("P2", "p3*q1-p1*q3"),
                  ("P3", "p1*q2-p2*q1")], probes=probes)

    def members(y: np.ndarray) -> np.ndarray:
        qs, ps = y[:3], y[3:]
        s = qs @ qs
        energy = 0.5 * ps @ ps + a * s / 2 + b * s * s / 4
        return np.array([energy, ps[1] * qs[2] - ps[2] * qs[1],
                         ps[2] * qs[0] - ps[0] * qs[2],
                         ps[0] * qs[1] - ps[1] * qs[0]])

    return System(text, members)


def three_particles(masses: np.ndarray, g: float, seed: int) -> System:
    """Particles on a line with g/r^2 pair forces: energy, dilation, momentum."""
    m = [float(v) for v in masses]
    kinetic = _sum(f"p{j + 1}^2/{_num(2 * m[j])}" for j in range(3))
    pairs = _sum(f"{_num(g)}/(q{i}-q{j})^2" for i, j in ((1, 2), (1, 3), (2, 3)))
    h1 = f"{kinetic}+{pairs}"
    text = _file("three_particles", 3, (1, 1, 1), seed, h1,
                 [("H1", h1), ("H2", "q1*p1+q2*p2+q3*p3"),
                  ("H3", "p1+p2+p3")])
    mass = np.array(m)

    def members(y: np.ndarray) -> np.ndarray:
        qs, ps = y[:3], y[3:]
        pot = sum(g / (qs[i] - qs[j]) ** 2 for i, j in ((0, 1), (0, 2), (1, 2)))
        return np.array([np.sum(ps ** 2 / (2 * mass)) + pot, qs @ ps,
                         ps.sum()])

    return System(text, members)


def uncoupled(omegas: np.ndarray, seed: int) -> System:
    """Independent oscillators, one energy per mode, with a separable chart."""
    w = [float(v) for v in omegas]
    n = len(w)
    modes = [f"(p{j + 1}^2+{_num(w[j] ** 2)}*q{j + 1}^2)/2" for j in range(n)]
    chart = [f"h_dim = {n}"]
    for j in range(n):
        chart += [f"residual_{j + 1} = w^2+{_num(w[j] ** 2)}*lam^2-2*h_{j + 1}",
                  f"bracket_{j + 1} = -8, 8"]
    text = _file("uncoupled_oscillators", n, [1] * n, seed, _sum(modes),
                 [(f"H{j + 1}", modes[j]) for j in range(n)], chart)
    om = np.array(w)

    def members(y: np.ndarray) -> np.ndarray:
        return 0.5 * (y[n:] ** 2 + om ** 2 * y[:n] ** 2)

    return System(text, members)


def quartic(seed: int) -> System:
    h = "p1^2/2+q1^4/4"
    text = _file("quartic_oscillator", 1, (1,), seed, h, [("H", h)],
                 ["h_dim = 1", "residual_1 = w^2/2+lam^4/4-h_1",
                  "bracket_1 = -8, 8"])

    def members(y: np.ndarray) -> np.ndarray:
        return np.array([y[1] ** 2 / 2 + y[0] ** 4 / 4])

    return System(text, members)


# ---------------------------------------------------------------------------
# points


def separated_point(r: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """State (q, p) with the n planar points (q_j, p_j) pairwise >= 0.5 apart."""
    while True:
        pts = r.uniform(-radius, radius, size=(n, 2))
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                     pts[:, None, 1] - pts[None, :, 1])
        d[np.diag_indices(n)] = np.inf
        if d.min() >= MIN_VORTEX_SEPARATION:
            return np.concatenate([pts[:, 0], pts[:, 1]])


def ring_vortices(r: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Intensities and start of n co-rotating vortices on a jittered ring.

    Intensities lie in [0.9, 1.1]; angles are jittered by +-0.1 rad and
    radii by +-5 %.  A ring of up to seven like vortices is stable, so the
    motion stays regular and the adaptive step count varies by about 4 %
    between ops.  (A ring around a strong opposite vortex breaks up into
    close encounters within a few turns: 30 % spread in step counts.)
    """
    xi = r.uniform(0.9, 1.1, n)
    ang = 2 * math.pi * np.arange(n) / n + r.uniform(-0.1, 0.1, n)
    rad = r.uniform(0.95, 1.05, n)
    qs, ps = rad * np.cos(ang), rad * np.sin(ang)
    d = np.hypot(qs[:, None] - qs[None, :], ps[:, None] - ps[None, :])
    d[np.diag_indices(n)] = np.inf
    if d.min() < MIN_VORTEX_SEPARATION:
        raise ValueError("ring start closer than the minimum separation")
    return xi, np.concatenate([qs, ps])


def banded(r: np.random.Generator, size: int, lo: float, hi: float) -> np.ndarray:
    """Values with |v| uniform in [lo, hi] and random signs."""
    return r.uniform(lo, hi, size) * r.choice([-1.0, 1.0], size)


def particles_point(r: np.random.Generator) -> np.ndarray:
    """Three particles at least 0.5 apart on the line, momenta in +-[0.3, 1]."""
    gaps = r.uniform(0.5, 1.0, 2)
    qs = np.array([0.0, gaps[0], gaps.sum()]) - r.uniform(0.3, 1.0)
    return np.concatenate([qs, banded(r, 3, 0.3, 1.0)])


# ---------------------------------------------------------------------------
# closed-form oracles


def rotate(y0: np.ndarray, omegas: np.ndarray, t: float) -> np.ndarray:
    """Exact flow of uncoupled oscillators H_j = (p_j^2 + w_j^2 q_j^2)/2."""
    n = len(omegas)
    q0, p0 = y0[:n], y0[n:]
    c, s = np.cos(omegas * t), np.sin(omegas * t)
    return np.concatenate([q0 * c + p0 / omegas * s, -omegas * q0 * s + p0 * c])


def quartic_constant() -> float:
    """B = integral_0^1 sqrt(1 - x^4) dx by a dense midpoint rule (error ~3e-10).

    For H = p^2/2 + q^4/4 the action is gamma(h) = (2/pi) (4h)^(1/4)
    sqrt(2h) B, so gamma = C h^(3/4) with C = (2/pi) 4^(1/4) sqrt(2) B.
    """
    m = 1 << 21
    x = (np.arange(m) + 0.5) / m
    return float(np.sqrt(1.0 - x ** 4).sum() / m)


def quartic_oracle(h: float, b_const: float) -> dict:
    c = 2.0 / math.pi * 4.0 ** 0.25 * math.sqrt(2.0) * b_const
    dgamma = 0.75 * c * h ** -0.25
    return {"gamma": c * h ** 0.75, "omega": 1.0 / dgamma,
            "half_time": math.pi * dgamma, "turning": (4.0 * h) ** 0.25}
