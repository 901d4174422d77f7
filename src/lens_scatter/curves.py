"""Immersed plane curves: builtins, CSV input, and trigonometric families.

Curves are parametrized over ``t in [0, 1)`` and evaluated through vectorized
``point``/``velocity`` callables, which return one ``(..., 2)`` array.  The
builtin names understood by :func:`named_curve` are ``circle``,
``lemniscate`` (a figure eight with its double point at the origin),
``rose-k`` (k petals with k simple crossings near the center, e.g.
``rose-3``).  Every curve is closed.  The builtins are :class:`TrigCurve`
coefficient tables, so their velocities are derived from the coefficients
like those of any trigonometric polynomial, in sums that do not go through
BLAS.  Curves of one degree share the ``cos``/``sin`` basis of a parameter
array.  A CSV file gives the samples at ``t = i / m`` of a periodic cubic
spline (:func:`load_curve_csv`).
"""

from __future__ import annotations

import csv
import functools
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class ImmersionError(ValueError):
    """Curve speed vanishes somewhere: not an immersion."""


class ParametricCurve:
    """Closed plane curve with analytic velocity.

    ``point_fn`` and ``velocity_fn`` take a float array of parameters of
    any shape ``S`` and return one new ``S + (2,)`` array of ``(x, y)``
    values, which ``point`` and ``velocity`` hand back as they are.
    """

    def __init__(self, point_fn, velocity_fn, *, name="curve"):
        self._point = point_fn
        self._velocity = velocity_fn
        self.name = name

    def point(self, t):
        return self._point(np.asarray(t, dtype=float))

    def velocity(self, t):
        return self._velocity(np.asarray(t, dtype=float))

    def __repr__(self):
        return f"<ParametricCurve {self.name!r}>"


def circle() -> TrigCurve:
    """Circle ``0.9 (cos u, sin u)``."""
    return TrigCurve([[0.9], [0.0], [0.0], [0.9]], name="circle")


def lemniscate() -> TrigCurve:
    """Figure eight ``(0.9 cos u, 0.45 sin 2u)`` crossing itself at the origin."""
    return TrigCurve([[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.45]], name="lemniscate")


def rose(k: int = 3) -> TrigCurve:
    """k-petal curve ``z = 0.28 (e^{-iu} + 2 e^{i(k-1)u})`` with k simple crossings.

    For odd k this is the standard (2, k) torus-knot shadow (k = 3 gives the
    trefoil shape).  The polar rose ``r = cos(k phi)`` is unsuitable here:
    its petals all cross at one k-fold point.
    """
    if k < 2:
        raise ValueError("rose needs k >= 2")
    coeffs = np.zeros((4, k - 1))
    coeffs[[0, 3], 0] = 0.28, -0.28  # e^{-iu}
    coeffs[[0, 3], k - 2] += 0.56    # 2 e^{i(k-1)u}
    return TrigCurve(coeffs, name=f"rose-{k}")


# Bases larger than this many parameters times degree are not kept.
_BASIS_KEPT_SIZE = 1 << 15


@functools.lru_cache(maxsize=8)
def _array_basis(shape: tuple, bits: bytes, degree: int) -> np.ndarray:
    """Read-only basis of the float array with this shape and these bytes.

    Kept for the most recent arrays, so curves of one degree share it: a
    lift's point and velocity, and all corpus candidates on one grid.
    """
    u = TWO_PI * np.frombuffer(bits).reshape(shape)[..., None] * np.arange(1, degree + 1)
    basis = np.concatenate([np.cos(u), np.sin(u)], axis=-1)
    basis.flags.writeable = False
    return basis


def _basis(t: np.ndarray, degree: int) -> np.ndarray:
    """``cos 2 pi m t`` then ``sin 2 pi m t``, m = 1..degree, on a new last axis.

    A single finite parameter takes ``math.cos``/``math.sin`` of the same
    angles ``(2 pi t) m``, which give the same bits as numpy's.
    """
    if t.ndim == 0:
        x = TWO_PI * float(t)
        u = [x * m for m in range(1, degree + 1)]
        if math.isfinite(u[-1]):
            return np.array([*map(math.cos, u), *map(math.sin, u)])
    kept = t.size * degree <= _BASIS_KEPT_SIZE
    return (_array_basis if kept else _array_basis.__wrapped__)(t.shape, t.tobytes(), degree)


class TrigCurve(ParametricCurve):
    """Closed trigonometric polynomial curve, kept perturbable via its coefficients.

    ``coeffs`` has shape (4, degree): rows are cos/sin coefficients of x then
    y, harmonic m = 1..degree; it is read-only.  Point and velocity evaluate
    one series, the basis ``cos 2 pi m t``, ``sin 2 pi m t`` contracted with
    a ``(2 degree, 2)`` table term after term, without BLAS: a value is the
    same bits whether asked for alone or in a batch, on any BLAS kernel.
    The basis of a parameter array is built once and shared by the curves
    of its degree.
    """

    def __init__(self, coeffs, *, name="trig-curve"):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != 4:
            raise ValueError("coeffs must have shape (4, degree)")
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        degree = coeffs.shape[1]
        cos_xy, sin_xy = coeffs[0::2].T, coeffs[1::2].T
        # d/dt (a cos u + b sin u) = 2 pi m (b cos u - a sin u), u = 2 pi m t.
        rate = TWO_PI * np.arange(1, degree + 1)[:, None]
        point_table = np.concatenate([cos_xy, sin_xy])
        velocity_table = np.concatenate([sin_xy * rate, -cos_xy * rate])

        # einsum adds term after term into each output for this (2 degree, 2)
        # layout; a contiguous coefficient row would take its unrolled SIMD
        # sum instead.
        def series(table):
            return lambda t: np.einsum("...j,jk->...k", _basis(t, degree), table)

        super().__init__(series(point_table), series(velocity_table), name=name)

    def perturbed(self, delta) -> "TrigCurve":
        return TrigCurve(self.coeffs + np.asarray(delta, dtype=float),
                         name=self.name + "~")


def from_samples(points, *, name="sampled-curve") -> ParametricCurve:
    """Smooth the samples of a closed curve with a periodic cubic spline.

    The ``m`` samples sit at the uniform parameters ``i / m``.  The
    spline's second derivatives solve the cyclic tridiagonal system
    ``M[i-1] + 4 M[i] + M[i+1] = 6 m^2 (p[i+1] - 2 p[i] + p[i-1])``.  With
    uniform knots it is circulant, so the discrete Fourier transform
    diagonalizes it, with eigenvalues ``4 + 2 cos(2 pi k / m) >= 2``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 4:
        raise ValueError("need an (m, 2) array with m >= 4")
    m = len(pts)
    h = 1.0 / m
    after = np.roll(pts, -1, axis=0)
    rhs = 6.0 * m * m * (after - 2.0 * pts + np.roll(pts, 1, axis=0))
    eig = 4.0 + 2.0 * np.cos(TWO_PI * np.arange(m) / m)
    second = np.fft.ifft(np.fft.fft(rhs, axis=0) / eig[:, None], axis=0).real
    # Each interval's cubic in powers of t - i h.
    c1 = (after - pts) * m - h * (2.0 * second + np.roll(second, -1, axis=0)) / 6.0
    c2 = 0.5 * second
    c3 = (np.roll(second, -1, axis=0) - second) * m / 6.0

    def interval(t):
        t = np.mod(t, 1.0)
        i = np.minimum((t * m).astype(int), m - 1)
        return i, (t - i * h)[..., None]

    def p(t):
        i, u = interval(t)
        return ((c3[i] * u + c2[i]) * u + c1[i]) * u + pts[i]

    def v(t):
        i, u = interval(t)
        return (3.0 * c3[i] * u + 2.0 * c2[i]) * u + c1[i]

    return ParametricCurve(p, v, name=name)


CSV_T_TOL = 1e-9


def load_curve_csv(path) -> ParametricCurve:
    """Read ``t,x,y`` rows of a closed curve and spline them.

    The ``m`` rows, in any order, must sample the uniform parameters
    ``t = i / m`` for ``i = 0 .. m - 1``, each within ``CSV_T_TOL``: a ``t``
    outside ``[0, 1)`` (such as a closing row at ``t = 1`` that repeats the
    first point), a repeated ``t`` or a non-uniform one raises
    ``ValueError`` naming its line, and so does a row without exactly three
    finite numbers.
    """
    rows = []
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if not row or row[0].strip().startswith("#") or row[0].strip() == "t":
                continue
            try:
                t, x, y = (float(v) for v in row)
            except ValueError:  # wrong field count or a non-number
                t = x = y = math.nan
            if not all(math.isfinite(v) for v in (t, x, y)):
                raise ValueError(f"{path}:{line}: expected finite t,x,y, got {','.join(row)!r}")
            if not 0.0 <= t < 1.0:
                raise ValueError(f"{path}:{line}: t = {t!r} lies outside [0, 1)")
            rows.append((t, line, x, y))
    rows.sort()
    for (t0, line0, _, _), (t, line, _, _) in zip(rows, rows[1:]):
        if t == t0:
            raise ValueError(f"{path}:{line}: t = {t!r} repeats line {line0}")
    m = len(rows)
    for i, (t, line, _, _) in enumerate(rows):
        if abs(t - i / m) > CSV_T_TOL:
            raise ValueError(f"{path}:{line}: t = {t!r} is not {i}/{m}: the {m} rows "
                             f"must sit at t = i/{m} within {CSV_T_TOL:g}")
    pts = np.array([(x, y) for _, _, x, y in rows])
    return from_samples(pts, name=Path(path).stem)


def named_curve(name: str) -> ParametricCurve:
    """Resolve a builtin curve name or a CSV path."""
    if name == "circle":
        return circle()
    if name == "lemniscate":
        return lemniscate()
    k = name.removeprefix("rose-")
    if k != name and k.isdecimal():
        return rose(int(k))
    path = Path(name)
    if path.suffix == ".csv" and path.exists():
        return load_curve_csv(path)
    raise ValueError(f"unknown curve {name!r}")
