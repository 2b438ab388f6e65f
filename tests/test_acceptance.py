"""End-to-end acceptance runs, one criterion per test at its stated bound.

Two runs fail by design of the method, not by accident, and each has a
companion analysis test pinning the measured value to its predicted cause:

* the gaussian Plancherel check at degree 12 sits on the basis-truncation
  floor 1/(2D+2)/sqrt(2 pi) coming from the slowly converging layers near
  lambda = 0, three decades above the 1e-4 target;
* the sampled cone-inequality constant of the quadrant is exactly 1, since
  the per-direction infimum of <lam,h>/(|h| d(lam, bd K)) is attained at
  the nearest facet normal; 1/sqrt(2) is the inradius of the unit slice,
  which is a different functional of the cone.

Keeping the failing asserts at the stated bounds records the gap honestly.
"""

import time

import numpy as np
import pytest

from quadric_cr import QuadraticModel
from quadric_cr.convex import (
    cone_body,
    cone_inequality_constant,
    contains,
    erode,
    interval_body,
    polar_cone,
    polytope_body,
    project_body,
    support,
)
from quadric_cr.fock import (
    PlancherelConfig,
    fock_basis,
    group_convolve,
    plancherel_residual,
    rep_apply,
)
from quadric_cr.functions import GridSpec, SampledFunction, gaussian_function, l2_norm
from quadric_cr.model import apply_cr_field
from quadric_cr.quadrature import gauss_legendre
from quadric_cr.rockland import rockland_eigenvalue, rockland_matrix, rockland_spectrum
from quadric_cr.spectral import spectral_data
from quadric_cr.split import split, split_invariants, support_invariance
from quadric_cr.transform import (
    bandlimit_project,
    bump_profile,
    extend,
    extend_by_resynthesis,
    extend_profile,
    forward_FN,
    inverse_FN,
    profile_from_callable,
    pw_margin,
    spectral_window,
    spectrum_support,
)

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], complex))
FLAT12 = QuadraticModel(np.array([[[1.0]], [[0.0]]], complex))
K12 = interval_body(1.0, 2.0)
SEG = polytope_body(np.array([[1.0, 0.0], [2.0, 0.0]]))
CONST1 = 1.0 / np.pi**2


def _report(label, value, bound, kind="max"):
    ok = value <= bound if kind == "max" else value >= bound
    word = "PASS" if ok else "FAIL"
    rel = "<=" if kind == "max" else ">="
    print(f"{word} {label}: {value:.6e} {rel} {bound:.6e}")
    return value


@pytest.fixture(scope="module")
def heis1_gaussian_report():
    f = gaussian_function(HEIS1)
    cfg = PlancherelConfig(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=161, degree=12)
    t0 = time.time()
    rep = plancherel_residual(HEIS1, f, cfg)
    return rep, time.time() - t0


def test_criterion_01_plancherel_heis1_gaussian(heis1_gaussian_report):
    rep, wall = heis1_gaussian_report
    assert wall <= 120.0, f"runtime {wall:.1f}s exceeds the 2 minute budget"
    assert rep.skipped == 0
    resid = _report("criterion-1 heis1 gaussian residual", rep.residual, 1e-4)
    assert resid <= 1e-4, (
        f"residual {resid:.4e}: degree-12 truncation floor, see the companion"
        " analysis test"
    )


def test_criterion_01_analysis_truncation_floor(heis1_gaussian_report):
    # the layers at small |lam| converge like 1/degree; integrating the
    # dropped tail gives a deficit of 1/(2D+2)/sqrt(2 pi) at degree D
    rep, _ = heis1_gaussian_report
    predicted = 1.0 / (2 * 12 + 2) / np.sqrt(2.0 * np.pi)
    gap = abs(rep.residual - predicted) / predicted
    _report("criterion-1 floor match", gap, 0.2)
    assert rep.rhs < rep.lhs
    assert gap < 0.2


def test_criterion_01_plancherel_degenerate():
    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        rad = np.sum(np.abs(z) ** 2, axis=-1) + np.sum(x**2, axis=-1)
        return np.exp(-rad) * np.cos(4.0 * x[..., 0])

    grid = GridSpec(ebox=4.0, enodes=40, fbox=6.0, fnodes=72)
    f = SampledFunction(DEG21, ev, grid)
    cfg = PlancherelConfig(
        lam_lo=[-10.0], lam_hi=[10.0], lam_nodes=41, degree=12,
        tau_box=6.0, tau_nodes=16, grid=grid,
    )
    t0 = time.time()
    rep = plancherel_residual(DEG21, f, cfg)
    wall = time.time() - t0
    assert rep.generic_d == 1
    resid = _report("criterion-1 degenerate residual", rep.residual, 1e-3)
    assert resid <= 1e-3
    assert wall <= 120.0, f"runtime {wall:.1f}s exceeds the 2 minute budget"


def test_criterion_02_rockland_spectrum():
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 12)
    spec = rockland_spectrum(fb)
    closed = np.array([rockland_eigenvalue(sd, a) for a in spec.alphas])
    assert np.allclose(np.sort(closed)[:3], [5.0, 37.0, 101.0])
    diff = _report(
        "criterion-2 heis1 spectrum", float(np.abs(spec.eigenvalues - closed).max()), 1e-8
    )
    assert diff <= 1e-8
    w, v = np.linalg.eigh(rockland_matrix(fb))
    overlap = abs(v[0, np.argmin(w)])
    _report("criterion-2 heis1 ground overlap", overlap, 1.0 - 1e-8, kind="min")
    assert overlap >= 1.0 - 1e-8

    rng = np.random.default_rng(3)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    model = QuadraticModel((g @ g.conj().T + 0.5 * np.eye(2))[None, :, :])
    sd2 = spectral_data(model, np.array([1.0]))
    fb2 = fock_basis(sd2, 10)
    spec2 = rockland_spectrum(fb2)
    closed2 = np.array([rockland_eigenvalue(sd2, a) for a in spec2.alphas])
    rel = np.abs(spec2.eigenvalues - closed2) / np.maximum(np.abs(closed2), 1.0)
    diff2 = _report("criterion-2 random n=2 spectrum", float(rel.max()), 1e-6)
    assert diff2 <= 1e-6
    w2, v2 = np.linalg.eigh(rockland_matrix(fb2))
    overlap2 = abs(v2[0, np.argmin(w2)])
    assert overlap2 >= 1.0 - 1e-8


def test_criterion_03_matrix_coefficient():
    lam = np.array([1.3])
    sd = spectral_data(DEG21, lam)
    fb = fock_basis(sd, 12)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = z / max(1.0, np.linalg.norm(z))
        x = rng.uniform(-2.0, 2.0, 1)
        tau = rng.uniform(-1.5, 1.5, 2)
        m = rep_apply(fb, (z, x), tau=tau)
        r = sd.radical_coords(z)
        pairing = tau[0] * r.real[0] + tau[1] * r.imag[0]
        want = np.exp(-1j * float(lam @ x) - 1j * pairing - sd.phi_lam(z))
        worst = max(worst, abs(m[0, 0] - want))
    worst = _report("criterion-3 matrix coefficient", worst, 1e-6)
    assert worst <= 1e-6


def test_criterion_04_round_trip():
    prof = bump_profile(K12, nodes=96)
    f = inverse_FN(HEIS1, prof)
    probes = np.linspace(1.05, 1.95, 9).reshape(-1, 1)
    vals, warns = forward_FN(f, probes, degree=6)
    assert not warns
    err = float(np.abs(vals - prof.psi(probes)).max())
    err = _report("criterion-4 round trip", err, 1e-4)
    assert err <= 1e-4


def test_criterion_04_convolution_rule():
    # the central transform inside the convolution needs the long fiber
    # box; band-limited kernels decay too slowly for the default window
    long = GridSpec(ebox=4.0, enodes=40, fbox=160.0, fnodes=768)
    p1 = bump_profile(K12, nodes=64)
    p2 = profile_from_callable(
        K12, lambda lams: p1.psi(lams) * (lams[:, 0] - 1.0), nodes=64
    )
    f1 = inverse_FN(HEIS1, p1, grid=long)
    f2 = inverse_FN(HEIS1, p2, grid=long)
    h = group_convolve(f1, f2, grid=long)
    probes = np.array([[1.3], [1.7]])
    got, warns = forward_FN(h, probes, degree=6)
    assert not warns
    want = p1.psi(probes) * p2.psi(probes)
    err = _report("criterion-4 convolution rule", float(np.abs(got - want).max()), 1e-4)
    assert err <= 1e-4


def test_criterion_04_product_rule():
    p1 = bump_profile(K12, nodes=48)
    p2 = profile_from_callable(
        K12, lambda lams: p1.psi(lams) * (lams[:, 0] - 1.0), nodes=48
    )
    f1, f2 = inverse_FN(HEIS1, p1), inverse_FN(HEIS1, p2)
    prod = SampledFunction(
        HEIS1, lambda z, x: f1(z, x) * f2(z, x), f1.grid
    )
    probes = np.array([[2.4], [3.0], [3.6]])
    got, warns = forward_FN(prod, probes, degree=6)
    assert not warns
    mu, wmu = gauss_legendre(400, 1.0, 2.0)
    want = np.empty(3, complex)
    for i, lam in enumerate(probes[:, 0]):
        rest = (lam - mu).reshape(-1, 1)
        want[i] = CONST1 * np.sum(
            wmu * p1.psi(mu.reshape(-1, 1)) * np.abs(mu)
            * p2.psi(rest) * np.abs(rest[:, 0])
        ) / abs(lam)
    err = _report("criterion-4 product rule", float(np.abs(got - want).max()), 1e-4)
    assert err <= 1e-4


def test_criterion_05_extension():
    prof = bump_profile(K12, nodes=96)
    f = inverse_FN(HEIS1, prof)
    rng = np.random.default_rng(5)
    z = (rng.standard_normal((200, 1)) + 1j * rng.standard_normal((200, 1))) * 0.6
    hgt = rng.uniform(0.05, 1.2, (200, 1))
    x = rng.standard_normal((200, 1))
    u = x + 1j * (HEIS1.phi(z) + hgt)
    vb = extend_profile(HEIS1, prof, z, u)
    va = extend_by_resynthesis(f, K12, z, u)
    rel = float((np.abs(va - vb) / np.maximum(np.abs(vb), 1e-300)).max())
    rel = _report("criterion-5 routes", rel, 1e-5)
    assert rel <= 1e-5

    ub = x + 1j * HEIS1.phi(z)
    brel = float(np.abs(extend(f, z, ub) - f(z, x)).max() / np.abs(f(z, x)).max())
    brel = _report("criterion-5 boundary restriction", brel, 1e-6)
    assert brel <= 1e-6

    zc = (rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))) * 0.7
    xc = rng.uniform(-2.0, 2.0, (40, 1))
    resid = float(
        np.abs(apply_cr_field(HEIS1, np.array([1.0]), f, zc, xc, conjugate=True)).max()
        / np.abs(f(zc, xc)).max()
    )
    resid = _report("criterion-5 cr residual", resid, 1e-5)
    assert resid <= 1e-5

    zz = np.repeat(np.array([[0.2 + 0.1j]]), 25, axis=0)
    hh = np.linspace(0.1, 5.0, 25).reshape(-1, 1)
    uu = np.zeros((25, 1)) + 1j * (HEIS1.phi(zz) + hh)
    margins = pw_margin(f, K12, zz, uu, order=3)
    finite = float(np.mean(np.isfinite(margins)))
    _report("criterion-5 margins finite", finite, 1.0, kind="min")
    assert finite == 1.0


def test_criterion_06_spectral_support():
    prof = bump_profile(K12, nodes=96)
    f = inverse_FN(HEIS1, prof)
    lams = np.linspace(-6.0, 6.0, 121).reshape(-1, 1)
    sup = spectrum_support(f, lams, body=cone_body(np.array([[1.0]])))
    mass = _report("criterion-6 outside mass", float(sup["outside_fraction"]), 1e-4)
    assert mass <= 1e-4

    # conjugation flips the fiber spectrum to [-2,-1]; the function stops
    # being a boundary value and the field residual must see it
    ctrl = SampledFunction(HEIS1, lambda zz, xx: np.conj(f(zz, xx)), f.grid)
    rng = np.random.default_rng(5)
    zc = (rng.standard_normal((40, 1)) + 1j * rng.standard_normal((40, 1))) * 0.7
    xc = rng.uniform(-2.0, 2.0, (40, 1))
    resid = float(
        np.abs(apply_cr_field(HEIS1, np.array([1.0]), ctrl, zc, xc, conjugate=True)).max()
        / np.abs(f(zc, xc)).max()
    )
    resid = _report("criterion-6 control residual", resid, 1e-1, kind="min")
    assert resid >= 1e-1
    csup = spectrum_support(ctrl, lams, body=cone_body(np.array([[1.0]])))
    assert csup["outside_fraction"] > 0.9


def test_criterion_07_window_density():
    prof = bump_profile(K12, nodes=96)
    f = inverse_FN(HEIS1, prof)
    rng = np.random.default_rng(9)
    lams = rng.uniform(0.0, 3.0, (400, 1))
    grid = GridSpec(ebox=4.0, enodes=40, fbox=20.0, fnodes=160)
    worst = 0.0
    err = None
    for eps in (0.8, 0.4, 0.2, 0.1):
        w = spectral_window(K12, eps)
        inner, outer = erode(K12, eps), erode(K12, eps / 4.0)
        vals = w(lams)
        chi_in = np.array([float(contains(inner, l)) for l in lams])
        chi_out = np.array([float(contains(outer, l)) for l in lams])
        worst = max(
            worst,
            float(np.maximum(chi_in - vals, 0.0).max()),
            float(np.maximum(vals - chi_out, 0.0).max()),
        )
        proj = bandlimit_project(f, w)
        diff = SampledFunction(
            HEIS1, lambda zz, xx, p=proj: f(zz, xx) - p(zz, xx), grid
        )
        err = l2_norm(diff, grid)
    worst = _report("criterion-7 sandwich", worst, 1e-10)
    assert worst <= 1e-10
    err = _report("criterion-7 finest-eps l2", err, 1e-3)
    assert err <= 1e-3


def test_criterion_08_projection_and_bipolar():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(12):
        body = polytope_body(rng.standard_normal((6, 3)) * 1.5)
        p = int(rng.integers(1, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, p)))
        pb = project_body(body, q)
        for _ in range(24):
            c = rng.standard_normal(p)
            worst = max(worst, abs(support(body, q @ c) - support(pb, c)))
    worst = _report("criterion-8 projection identity", worst, 1e-12)
    assert worst <= 1e-12

    quadrant = cone_body(np.array([[1.0, 0.0], [0.0, 1.0]]))
    double = polar_cone(polar_cone(quadrant))
    pts = rng.standard_normal((1000, 2)) * 2.0
    mismatches = sum(1 for p in pts if contains(quadrant, p) != contains(double, p))
    _report("criterion-8 bipolar mismatches", float(mismatches), 0.0)
    assert mismatches == 0


def test_criterion_08_quadrant_cone_constant():
    quadrant = cone_body(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c = cone_inequality_constant(quadrant, directions=100)
    gap = _report("criterion-8 quadrant constant gap", abs(c - 1.0 / np.sqrt(2.0)), 5e-2)
    assert gap <= 5e-2, (
        f"sampled constant {c}: the sampled infimum is 1, see the companion"
        " analysis test"
    )


def test_criterion_08_analysis_quadrant_constant():
    # for every interior lam the infimum over dual directions h of
    # <lam,h>/(|h| d(lam, bd K)) is attained at the nearest facet normal,
    # where both numerator and denominator equal the facet distance, so
    # the sampled constant converges to 1; 1/sqrt(2) is instead the
    # largest boundary distance on the unit slice (the inradius), attained
    # at the bisector, which is a different functional of the cone
    quadrant = cone_body(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c = cone_inequality_constant(quadrant, directions=100)
    assert c == pytest.approx(1.0, abs=1e-6)
    theta = np.linspace(1e-3, np.pi / 2 - 1e-3, 1001)
    slice_pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inradius = float(np.minimum(slice_pts[:, 0], slice_pts[:, 1]).max())
    assert inradius == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-5)


def test_criterion_09_structure_split():
    sp = split(FLAT12, SEG)
    res = split_invariants(sp, samples=64, seed=0)
    worst = _report("criterion-9 split invariants", max(res.values()), 1e-12)
    assert worst <= 1e-12
    hk = support_invariance(sp, samples=64, seed=0)
    hk = _report("criterion-9 support invariance", hk, 1e-12)
    assert hk <= 1e-12
