"""Geometric reference paths and the progress (timing-law) dynamics.

A path is a curve in the output space ``[x, y, z, yaw]`` parameterized by a
progress variable ``s`` restricted to ``[-1, 0]``; ``s = 0`` is the path
end.  Progress over time is produced by a double-integrator timing law whose
acceleration is a virtual input chosen by the optimizer.  The corridor
variant adds a second parameter that offsets selected output components
(here: yaw) to trade tracking strictness for faster progress; its bounds
are a constraint of the horizon problem (``OcpConfig.s2_bounds``), not of
the curve.  Each curve fills the columns of one preallocated point and
derivative pair, and a NaN progress or offset fails the domain checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

S_START = -1.0
_DOMAIN_TOL = 1e-9

TWO_PI = 2.0 * np.pi


def wrap_angle(angle):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    return -((-np.asarray(angle, dtype=float) + np.pi) % TWO_PI - np.pi)


def _check_domain(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    # NaN fails the test; the initial 0.0 lies in the domain and changes nothing
    if not (s.min(initial=0.0) >= S_START - _DOMAIN_TOL and s.max(initial=0.0) <= _DOMAIN_TOL):
        raise ValueError("path parameter outside [-1, 0]")
    return s


def _spiral(s):
    """Rising circular spiral, radius 0.25 m, climbing 0.25 m to 0.65 m:
    ``(point, derivative)``."""
    s = _check_domain(s)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    point, deriv = np.empty((2,) + s.shape + (4,))
    point[..., 0], point[..., 1], point[..., 2], point[..., 3] = 0.25 * cos_a, 0.25 * sin_a, 0.65 + 0.4 * s, 0.0
    deriv[..., 0], deriv[..., 1], deriv[..., 2:] = -0.5 * np.pi * sin_a, 0.5 * np.pi * cos_a, (0.4, 0.0)
    return point, deriv


def _lemniscate(s):
    """Closed figure-eight at constant height 0.5 m: ``(point,
    derivative)``."""
    s = _check_domain(s)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    den = sin_a**2 + 1.0
    point, deriv = np.empty((2,) + s.shape + (4,))
    point[..., 0], point[..., 1], point[..., 2:] = 0.5 * cos_a / den, 0.5 * sin_a * cos_a / den, (0.5, 0.0)
    den = den**2
    dx = -0.5 * sin_a * (cos_a**2 + 2.0) / den
    dy = 0.5 * (cos_a**4 - sin_a**4 - sin_a**2) / den
    deriv[..., 0], deriv[..., 1], deriv[..., 2:] = TWO_PI * dx, TWO_PI * dy, 0.0
    return point, deriv


def _sinusoid(s):
    """Planar sine sweep with the yaw reference tangential to the curve:
    ``(point, derivative)``."""
    s = _check_domain(s)
    a = TWO_PI * s
    sin_a, cos_a = np.sin(a), np.cos(a)
    point, deriv = np.empty((2,) + s.shape + (4,))
    point[..., 0], point[..., 1], point[..., 2] = 0.25 * sin_a, 0.25 + 0.5 * s, 0.5
    point[..., 3] = np.arctan2(0.5, 0.5 * np.pi * cos_a)
    deriv[..., 0], deriv[..., 1:3] = 0.5 * np.pi * cos_a, (0.5, 0.0)
    deriv[..., 3] = 2.0 * np.pi**2 * sin_a / (np.pi**2 * cos_a**2 + 1.0)
    return point, deriv


@dataclass(frozen=True)
class Path:
    """Evaluable curve in the output space, defined on s in [-1, 0].

    ``point_and_derivative`` gives both values from one domain check and
    one trigonometric pass; ``point`` and ``derivative`` are its parts.
    """

    _evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def point(self, s) -> np.ndarray:
        return self._evaluate(s)[0]

    def derivative(self, s) -> np.ndarray:
        return self._evaluate(s)[1]

    def point_and_derivative(self, s) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluate(s)


def _constant_path(point) -> Path:
    point = np.asarray(point, dtype=float)

    def evaluate(s):
        shape = np.shape(_check_domain(s)) + (4,)
        return np.broadcast_to(point, shape).copy(), np.zeros(shape)

    return Path(evaluate)


HOVER_POINT = np.array([0.0, 0.0, 0.5, 0.0])


_YAW = np.array([0.0, 0.0, 0.0, 1.0])
_YAW.flags.writeable = False


@dataclass(frozen=True)
class CorridorPath:
    """A base path plus a second parameter offsetting chosen output axes.

    ``point(s1) + s2 * direction``; the offset ``s2`` is any finite number
    here, and the horizon problem bounds it by ``OcpConfig.s2_bounds``.  A
    degenerate ``(0, 0)`` bound disables the corridor and must reproduce
    the base path exactly.
    """

    base: Path
    # the offset axes: yaw alone
    direction: ClassVar[np.ndarray] = _YAW

    def point(self, s1, s2) -> np.ndarray:
        return self.point_and_derivative(s1, s2)[0]

    def point_and_derivative(self, s1, s2) -> tuple[np.ndarray, np.ndarray]:
        """The offset point and the derivative w.r.t. the progress
        parameter, from one evaluation of the base path."""
        s2 = np.asarray(s2, dtype=float)
        if not np.isfinite(s2).all():
            raise ValueError("corridor offset must be finite")
        base, deriv = self.base.point_and_derivative(s1)
        return base + s2[..., None] * self.direction, deriv


_BASE_PATHS = {"spiral": _spiral, "lemniscate": _lemniscate, "sinusoid": _sinusoid}

# every name make_path accepts; the scenario names are these
PATH_NAMES = (*_BASE_PATHS, "sinusoid-corridor", "hover")


def make_path(name: str):
    """Look up a path by its scenario name (one of ``PATH_NAMES``); the
    corridor path's offset is bounded by the horizon problem, not here."""
    if name in _BASE_PATHS:
        return Path(_BASE_PATHS[name])
    if name == "sinusoid-corridor":
        return CorridorPath(make_path("sinusoid"))
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
