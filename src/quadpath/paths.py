"""Geometric reference paths and the progress (timing-law) dynamics.

A path is a curve in the output space ``[x, y, z, yaw]`` parameterized by a
progress variable ``s`` restricted to ``[-1, 0]``; ``s = 0`` is the path
end.  Progress over time is produced by a double-integrator timing law whose
acceleration is a virtual input chosen by the optimizer.  The corridor
variant adds a second, bounded parameter that offsets selected output
components (here: yaw) to trade tracking strictness for faster progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

S_START = -1.0
_DOMAIN_TOL = 1e-9

TWO_PI = 2.0 * np.pi
CORRIDOR_S2_BOUNDS = (-0.5 * np.pi, 0.5 * np.pi)


def wrap_angle(angle):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    a = np.asarray(angle, dtype=float)
    wrapped = -((-a + np.pi) % TWO_PI - np.pi)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def _check_domain(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < S_START - _DOMAIN_TOL) or np.any(s > _DOMAIN_TOL):
        raise ValueError("path parameter outside [-1, 0]")
    return s


def eval_spiral(s) -> np.ndarray:
    """Rising circular spiral, radius 0.25 m, climbing 0.25 m to 0.65 m."""
    s = _check_domain(s)
    a = TWO_PI * s
    return np.stack(
        [0.25 * np.cos(a), 0.25 * np.sin(a), 0.65 + 0.4 * s, np.zeros_like(s)],
        axis=-1,
    )


def _spiral_derivative(s) -> np.ndarray:
    s = _check_domain(s)
    a = TWO_PI * s
    return np.stack(
        [
            -0.5 * np.pi * np.sin(a),
            0.5 * np.pi * np.cos(a),
            np.full_like(s, 0.4),
            np.zeros_like(s),
        ],
        axis=-1,
    )


def eval_lemniscate(s) -> np.ndarray:
    """Closed figure-eight at constant height 0.5 m."""
    s = _check_domain(s)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    den = sin_a**2 + 1.0
    return np.stack(
        [
            0.5 * cos_a / den,
            0.5 * sin_a * cos_a / den,
            np.full_like(s, 0.5),
            np.zeros_like(s),
        ],
        axis=-1,
    )


def _lemniscate_derivative(s) -> np.ndarray:
    s = _check_domain(s)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    den = (sin_a**2 + 1.0) ** 2
    dx = -0.5 * sin_a * (cos_a**2 + 2.0) / den
    dy = 0.5 * (cos_a**4 - sin_a**4 - sin_a**2) / den
    return np.stack(
        [TWO_PI * dx, TWO_PI * dy, np.zeros_like(s), np.zeros_like(s)],
        axis=-1,
    )


def eval_sinusoid(s) -> np.ndarray:
    """Planar sine sweep with the yaw reference tangential to the curve."""
    s = _check_domain(s)
    a = TWO_PI * s
    return np.stack(
        [
            0.25 * np.sin(a),
            0.25 + 0.5 * s,
            np.full_like(s, 0.5),
            np.arctan2(0.5, 0.5 * np.pi * np.cos(a)),
        ],
        axis=-1,
    )


def _sinusoid_derivative(s) -> np.ndarray:
    s = _check_domain(s)
    a = TWO_PI * s
    dyaw = 2.0 * np.pi**2 * np.sin(a) / (np.pi**2 * np.cos(a) ** 2 + 1.0)
    return np.stack(
        [0.5 * np.pi * np.cos(a), np.full_like(s, 0.5), np.zeros_like(s), dyaw],
        axis=-1,
    )


@dataclass(frozen=True)
class Path:
    """Evaluable curve in the output space, defined on s in [-1, 0]."""

    name: str
    _point: Callable[[np.ndarray], np.ndarray]
    _derivative: Callable[[np.ndarray], np.ndarray]

    def point(self, s) -> np.ndarray:
        return self._point(s)

    def derivative(self, s) -> np.ndarray:
        return self._derivative(s)


def _constant_path(point) -> Path:
    point = np.asarray(point, dtype=float)

    def value(s):
        s = _check_domain(s)
        return np.broadcast_to(point, np.shape(s) + (4,)).copy()

    def deriv(s):
        s = _check_domain(s)
        return np.zeros(np.shape(s) + (4,))

    return Path("hover", value, deriv)


HOVER_POINT = np.array([0.0, 0.0, 0.5, 0.0])


@dataclass(frozen=True)
class CorridorPath:
    """A base path plus a second parameter offsetting chosen output axes.

    ``point(s1) + s2 * direction`` with ``s2`` confined to ``s2_bounds``.
    A degenerate ``(0, 0)`` bound disables the corridor and must reproduce
    the base path exactly.
    """

    base: Path
    direction: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    s2_bounds: tuple[float, float] = CORRIDOR_S2_BOUNDS

    def __post_init__(self) -> None:
        lo, hi = self.s2_bounds
        if not (lo <= 0.0 <= hi):
            raise ValueError("corridor bounds must contain 0")

    @property
    def name(self) -> str:
        return self.base.name + "-corridor"

    def point(self, s1, s2) -> np.ndarray:
        s2 = np.asarray(s2, dtype=float)
        lo, hi = self.s2_bounds
        if np.any(s2 < lo - _DOMAIN_TOL) or np.any(s2 > hi + _DOMAIN_TOL):
            raise ValueError("corridor offset outside bounds")
        base = np.array(self.base.point(s1), dtype=float)
        return base + s2[..., None] * self.direction

    def derivative(self, s1) -> np.ndarray:
        """Derivative w.r.t. the progress parameter; the offset direction is
        constant and available as ``self.direction``."""
        return self.base.derivative(s1)


_BASE_PATHS = {
    "spiral": (eval_spiral, _spiral_derivative),
    "lemniscate": (eval_lemniscate, _lemniscate_derivative),
    "sinusoid": (eval_sinusoid, _sinusoid_derivative),
}

# every name make_path accepts; the scenario names are these
PATH_NAMES = (*_BASE_PATHS, "sinusoid-corridor", "hover")


def make_path(name: str, s2_bounds: tuple[float, float] = CORRIDOR_S2_BOUNDS):
    """Look up a path by its scenario name (one of ``PATH_NAMES``).

    ``s2_bounds`` sets the offset bounds of the corridor path; the other
    paths ignore it.
    """
    if name in _BASE_PATHS:
        return Path(name, *_BASE_PATHS[name])
    if name == "sinusoid-corridor":
        return CorridorPath(make_path("sinusoid"), s2_bounds=s2_bounds)
    if name == "hover":
        return _constant_path(HOVER_POINT)
    raise ValueError(f"unknown path {name!r}")


def step_timing(z, nu, dt: float) -> np.ndarray:
    """Exact discrete update of the timing law over ``dt``.

    The chains are double integrators, so an RK4 step and the closed form
    coincide; positions gain ``v*dt + 0.5*a*dt^2`` and rates gain ``a*dt``.
    """
    z = np.asarray(z, dtype=float)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    out = np.array(z, dtype=float)
    n = z.shape[-1] // 2
    out[..., :n] += z[..., n:] * dt + 0.5 * nu * dt * dt
    out[..., n:] += nu * dt
    return out


def timing_matrices(n_chains: int, dt: float):
    """State-transition and input matrices of :func:`step_timing`."""
    eye = np.eye(n_chains)
    ad = np.block([[eye, dt * eye], [np.zeros((n_chains, n_chains)), eye]])
    bd = np.vstack([0.5 * dt * dt * eye, dt * eye])
    return ad, bd


def path_error(output, reference) -> np.ndarray:
    """Output minus path point, with the yaw component wrapped to (-pi, pi]."""
    e = np.asarray(output, dtype=float) - np.asarray(reference, dtype=float)
    e = np.array(e, dtype=float)
    e[..., 3] = wrap_angle(e[..., 3])
    return e
