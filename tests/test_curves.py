"""TrigCurve's series: one value per parameter, whatever the batch, the
curves evaluated before and the CPU's BLAS or SIMD kernels, and read-only
coefficients and bases.  Clairaut quadrature's orbits and traced geodesics
on the CPU's kernels too."""

import hashlib
import math
import platform
from pathlib import Path

import numpy as np
import pytest

from lens_scatter.curves import TrigCurve, _basis, circle, lemniscate, rose

TESTS = Path(__file__).resolve().parent


def trig_curves():
    """The builtins and seeded curves of degree 1..12."""
    curves = [circle(), lemniscate()] + [rose(k) for k in range(2, 12)]
    for degree in range(1, 13):
        # Coefficients decay like 1/m.
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=(4, degree)) / np.arange(1, degree + 1)
        curves.append(TrigCurve(coeffs, name=f"seeded-{degree}"))
    return curves


def parameters():
    """777 grid parameters and 300 random ones, some outside [0, 1)."""
    rng = np.random.default_rng(777)
    return np.concatenate([np.arange(777) / 777, rng.uniform(-2.0, 3.0, 300)])


@pytest.mark.parametrize("curve", trig_curves(), ids=lambda c: c.name)
@pytest.mark.parametrize("which", ["point", "velocity"])
def test_scalar_and_batched_values_agree(curve, which):
    evaluate = getattr(curve, which)
    ts = parameters()
    batched = evaluate(ts)
    scalar = np.array([evaluate(t) for t in ts])
    assert batched.shape == scalar.shape == (len(ts), 2)
    assert np.array_equal(batched, scalar)
    # A 2-D batch and a single-parameter batch read the same values.
    assert np.array_equal(evaluate(ts[:770].reshape(70, 11)), scalar[:770].reshape(70, 11, 2))
    assert np.array_equal(evaluate(ts[:1]), scalar[:1])
    # Another curve of the same degree on the same parameters, and writes
    # into a returned array, leave the values alone.
    getattr(curve.perturbed(np.ones_like(curve.coeffs)), which)(ts)
    batched[:] = np.nan
    assert np.array_equal(evaluate(ts), scalar)
    # Grids equal as reals but not as bits each get their own values.
    arange, linspace = np.arange(500) / 500, np.linspace(0.0, 1.0, 500, endpoint=False)
    assert not np.array_equal(arange, linspace)
    for grid in (arange, linspace, arange):
        assert np.array_equal(evaluate(grid), np.array([evaluate(t) for t in grid]))


@pytest.mark.parametrize("curve", trig_curves()[::5], ids=lambda c: c.name)
def test_series_matches_exact_sum(curve):
    # The reference sums the terms exactly (math.fsum), at the series' own
    # angles (2 pi t) m: the series must lie within a few ulps of the
    # largest term.
    m = np.arange(1, curve.coeffs.shape[1] + 1)
    for t in (0.0, 0.1234, 0.5, 0.999, -1.75):
        cos = np.array([math.cos(2 * math.pi * t * k) for k in m])
        sin = np.array([math.sin(2 * math.pi * t * k) for k in m])
        for axis, (a, b) in enumerate((curve.coeffs[:2], curve.coeffs[2:])):
            for got, terms in ((curve.point(t)[axis], [a * cos, b * sin]),
                               (curve.velocity(t)[axis],
                                [2 * math.pi * m * b * cos, -2 * math.pi * m * a * sin])):
                terms = np.concatenate(terms)
                assert abs(got - math.fsum(terms)) <= 64 * np.spacing(np.max(np.abs(terms)))


def test_coeffs_are_read_only():
    given = np.array([[0.9, 0.1], [0.0, 0.0], [0.0, 0.0], [0.9, 0.0]])
    curve = TrigCurve(given)
    with pytest.raises(ValueError, match="read-only"):
        curve.coeffs[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        curve.coeffs += 1.0
    # The curve keeps its own copy; the caller's array stays writable.
    given[0, 0] = 0.5
    assert curve.coeffs[0, 0] == 0.9
    assert curve.perturbed(np.full((4, 2), 0.1)).coeffs[0, 0] == 1.0
    # So is the cos/sin basis that curves of one degree share on a grid.
    basis = _basis(parameters(), 2)
    assert basis is _basis(parameters(), 2)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 0.5


def digest() -> str:
    """sha256 of the curves' batched values and of some scalar velocities."""
    h = hashlib.sha256()
    ts = parameters()
    for curve in trig_curves():
        h.update(curve.point(ts).tobytes())
        h.update(curve.velocity(ts).tobytes())
        h.update(np.array([curve.velocity(t) for t in ts[::37]]).tobytes())
    return h.hexdigest()


# An old BLAS kernel and numpy without AVX-512 or AVX2 change rounding
# orders; each setting with the CPU features it needs.
KERNELS = [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, ["AVX2", "FMA3"], id="Haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, [], id="Prescott"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, ["X86_V4"], id="no-X86_V4"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"}, ["X86_V4", "X86_V3"],
                 id="no-X86_V4-X86_V3"),
]
on_x86 = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                            reason="the kernel names are x86-64 ones")


def in_subprocess(tmp_path, env, needs, call: str) -> str:
    """``test_curves.<call>`` printed by a fresh interpreter under ``env``;
    skips where the CPU lacks a feature of ``needs``."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    missing = [f for f in needs if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU has no {' '.join(missing)}")
    # Imported here: a module-level import of conftest would load scipy in
    # the probe too.
    from conftest import run_python

    probe = f"import sys; sys.path.insert(0, {str(TESTS)!r}); import test_curves; print(test_curves.{call})"
    return run_python(probe, tmp_path, env).strip()


@on_x86
@pytest.mark.parametrize("env,needs", KERNELS)
def test_values_do_not_depend_on_cpu_kernels(tmp_path, env, needs):
    assert in_subprocess(tmp_path, env, needs, "digest()") == digest()


def orbit_digest(*metrics: str) -> str:
    """sha256 of ``clairaut_orbit``'s sweep and length at 30 impacts on each
    metric: ``vacuum``, ``eaton`` or a metric file."""
    from lens_scatter.geometry import IntegrationOptions, clairaut_orbit, load_metric

    h = hashlib.sha256()
    for name in metrics:
        metric = load_metric(name)
        for k in range(30):
            orbit = clairaut_orbit(metric, (k + 0.5) / 30, IntegrationOptions())
            h.update(np.array(orbit, dtype=float).tobytes())
    return h.hexdigest()


@on_x86
@pytest.mark.parametrize("env,needs", KERNELS)
def test_orbits_do_not_depend_on_cpu_kernels(tmp_path, env, needs):
    metrics = ["vacuum", str(TESTS / "data" / "metric-four-knots.json"), "eaton"]
    call = f"orbit_digest(*{metrics!r})"
    assert in_subprocess(tmp_path, env, needs, call) == orbit_digest(*metrics)


def _seeded_bumps():
    """Three Gaussian bumps on the index, ``1 + sum_k a_k exp(-|p - c_k|^2 /
    (2 s_k^2))``, evaluated by libm alone."""
    from lens_scatter.geometry import ConformalMetric

    rng = np.random.default_rng(5)
    bumps = np.column_stack([rng.uniform(-0.4, 0.4, (3, 2)), rng.uniform(-0.3, 0.3, 3),
                             rng.uniform(0.15, 0.35, 3)]).tolist()

    def n(x, y):
        total = 1.0
        for cx, cy, a, s in bumps:
            total += a * math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
        return total

    def grad(x, y):
        gx = gy = 0.0
        for cx, cy, a, s in bumps:
            w = a * math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s)) / (s * s)
            gx -= w * (x - cx)
            gy -= w * (y - cy)
        return gx, gy

    return ConformalMetric.general(n, grad, name="bumps")


def trace_digest(*metrics: str) -> str:
    """sha256 of ``integrate_geodesic``'s samples and exit at 12 entries on
    each metric: ``vacuum``, ``eaton``, a metric file or ``bumps``, a seeded
    non-radial field."""
    from lens_scatter.geometry import IntegrationOptions, integrate_geodesic, load_metric
    from lens_scatter.scattering import BoundaryVector

    h = hashlib.sha256()
    for name in metrics:
        metric = _seeded_bumps() if name == "bumps" else load_metric(name)
        for k in range(12):
            entry = BoundaryVector(k / 12 + 0.01, 0.1 + (math.pi - 0.2) * k / 11)
            path = integrate_geodesic(metric, entry, IntegrationOptions())
            for values in (path.points, path.directions, path.lengths,
                           [path.exit.arc, path.exit.angle]):
                h.update(np.asarray(values, dtype=float).tobytes())
    return h.hexdigest()


TRACED = ["vacuum", "eaton", str(TESTS / "data" / "metric-four-knots.json"), "bumps"]


@on_x86
@pytest.mark.parametrize("env,needs", KERNELS)
def test_traces_do_not_depend_on_cpu_kernels(tmp_path, env, needs):
    call = f"trace_digest(*{TRACED!r})"
    assert in_subprocess(tmp_path, env, needs, call) == trace_digest(*TRACED)
