import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import laguerre, legendre

from quadric_cr import fock
from quadric_cr.functions import (CHUNK_ELEMENTS, GridSpec, SampledFunction, SpectralForm,
                                  central_transform, gaussian_function, l2_norm)
from quadric_cr.fock import (
    PlancherelConfig,
    eval_basis,
    fock_basis,
    group_convolve,
    hs_norm,
    multi_indices,
    pi_of_f,
    pi_of_f_batch,
    plancherel_residual,
    rep_apply,
)
from quadric_cr.model import QuadraticModel, inverse, multiply
from quadric_cr.quadrature import complex_grid, gauss_hermite, gauss_legendre, tensor_rule
from quadric_cr.spectral import generic_dimension, spectral_data
from quadric_cr.convex import interval_body
from quadric_cr.transform import bandlimit_project, bump_profile, inverse_FN, spectral_window

HEIS1 = QuadraticModel(np.array([[[1.0]]], dtype=complex))
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex))


def coherent_diag(lam, alpha):
    # closed form for pi_lam(exp(-|z|^2 - x^2)) on the graded basis
    mu = abs(lam)
    ghat = np.sqrt(np.pi) * np.exp(-(lam**2) / 4.0)
    return ghat * np.pi * (1.0 - mu) ** alpha / (1.0 + mu) ** (alpha + 1)


def test_multi_indices_graded_lex():
    idx = multi_indices(2, 2)
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [tuple(r) for r in idx] == expected
    assert multi_indices(0, 5).shape == (1, 0)
    assert multi_indices(1, 3).shape == (4, 1)


def test_basis_gram_orthonormal():
    sd = spectral_data(HEIS1, np.array([0.8]))
    fb = fock_basis(sd, 6)
    x, w = gauss_hermite(40)
    s = np.sqrt(2 * 0.8)
    nodes, weights = complex_grid((x / s, w / s))
    vals = eval_basis(fb, nodes[:, None])
    gram = np.einsum("w,wa,wb->ab", weights, np.conj(vals), vals)
    assert np.abs(gram - np.eye(fb.size)).max() < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam, degree", [(1.0, 300), (0.05, 170)])
def test_eval_basis_finite_at_high_degree(lam, degree):
    # |e_a(w)| = |w|^a sqrt((2 mu)^(a+1) / (pi a!)), entry by entry in log form
    fb = fock_basis(spectral_data(HEIS1, np.array([lam])), degree)
    w = np.array([[0.3 + 0.4j], [2.0 - 1.5j], [-6.0 + 1.0j]])
    vals = eval_basis(fb, w)
    assert np.isfinite(vals).all()
    a = np.arange(degree + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in a])
    logs = a * np.log(np.abs(w)) + 0.5 * ((a + 1) * np.log(2.0 * lam) - np.log(np.pi) - lgam)
    big = logs > -700.0  # below this the reference underflows
    assert np.abs(np.abs(vals[big]) / np.exp(logs[big]) - 1.0).max() < 1e-12
    assert np.abs(vals[~big]).max(initial=0.0) < 1e-290


def test_shift_matrix_ground_overlap():
    z = 0.7 + 0.3j
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 12)
    m = rep_apply(fb, (np.array([z]), np.array([0.0])))
    assert abs(m[0, 0] - np.exp(-abs(z) ** 2)) < 1e-12


def test_shift_matrix_laguerre_diagonal():
    # <e_n, pi(z) e_n> = exp(-mu|z|^2) L_n(2 mu |z|^2)
    z, lam = 0.5 - 0.6j, 1.3
    sd = spectral_data(HEIS1, np.array([lam]))
    fb = fock_basis(sd, 10)
    m = rep_apply(fb, (np.array([z]), np.array([0.0])))
    s = 2 * lam * abs(z) ** 2
    for n in range(11):
        ln = laguerre.lagval(s, [0.0] * n + [1.0])
        assert abs(m[n, n] - np.exp(-lam * abs(z) ** 2) * ln) < 1e-11


def test_shift_matrix_degree_stable():
    z = np.array([0.4 + 0.9j])
    sd = spectral_data(HEIS1, np.array([0.7]))
    m12 = rep_apply(fock_basis(sd, 12), (z, np.array([0.0])))
    m20 = rep_apply(fock_basis(sd, 20), (z, np.array([0.0])))
    assert np.abs(m12 - m20[:13, :13]).max() < 1e-12


def test_rep_unitary_on_stable_block():
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 20)
    m = rep_apply(fb, (np.array([0.5 + 0.3j]), np.array([0.4])))
    g = m.conj().T @ m
    assert np.abs(g[:9, :9] - np.eye(21)[:9, :9]).max() < 1e-6


def test_rep_homomorphism_on_stable_block():
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 20)
    p = (np.array([0.5 - 0.2j]), np.array([0.1]))
    q = (np.array([-0.3 + 0.4j]), np.array([0.3]))
    lhs = rep_apply(fb, p) @ rep_apply(fb, q)
    rhs = rep_apply(fb, multiply(HEIS1, p, q))
    assert np.abs((lhs - rhs)[:9, :9]).max() < 1e-6


def test_rep_central_phase():
    sd = spectral_data(HEIS1, np.array([1.7]))
    fb = fock_basis(sd, 8)
    m = rep_apply(fb, (np.array([0.0j]), np.array([0.9])))
    assert np.abs(m - np.exp(-1j * 1.7 * 0.9) * np.eye(fb.size)).max() < 1e-12


def test_rep_radical_phase():
    sd = spectral_data(DEG21, np.array([1.0]))
    fb = fock_basis(sd, 6)
    zr = np.array([0.0, 0.3 - 0.4j])  # radical direction
    tau = np.array([2.0, -1.0])
    m = rep_apply(fb, (zr, np.array([0.0])), tau=tau)
    phase = np.exp(-1j * (2.0 * 0.3 + (-1.0) * (-0.4)))
    assert np.abs(m - phase * np.eye(fb.size)).max() < 1e-10


@functools.lru_cache(maxsize=None)
def displacement_oracle(mu, r, theta, degree=48):
    """<pi(z) e_b, e_a> on HEIS1 at lam = mu > 0, z = r e^(i theta), in mpmath.

    Straight from the Fock-space action: expand exp(2 mu w conj(z)) (w - z)^b
    in powers of w and read off the w^a coefficient,

        exp(-mu r^2) ||w^a|| / ||w^b|| sum_l C(b, l) (-z)^(b-l) (2 mu conj(z))^(a-l) / (a-l)!,

    with ||w^a||^2 = pi a! / (2 mu)^(a+1).  Every term carries the phase
    e^(i (b-a) theta), so the sum is done in real arithmetic.  Entries do not
    depend on the truncation degree, so one table serves every degree.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        mu, r = mpmath.mpf(mu), mpmath.mpf(r)
        fac = [mpmath.factorial(j) for j in range(degree + 1)]
        neg = [(-r) ** j / fac[j] for j in range(degree + 1)]
        coh = [(2 * mu * r) ** j / fac[j] for j in range(degree + 1)]
        pref = mpmath.exp(-mu * r**2)
        out = np.empty((degree + 1, degree + 1), complex)
        for a in range(degree + 1):
            for b in range(degree + 1):
                tot = sum(neg[b - l] * coh[a - l] / fac[l] for l in range(min(a, b) + 1))
                val = pref * mpmath.sqrt(fac[a] * fac[b] * (2 * mu) ** (b - a)) * tot
                out[a, b] = float(val) * np.exp(1j * (b - a) * theta)
    return out


def heis1_shift(lam, degree, z):
    fb = fock_basis(spectral_data(HEIS1, np.array([lam])), degree)
    return rep_apply(fb, (np.array([z]), np.array([0.0])))


# |beta|^2 = 2 mu |z|^2, from near the origin to far past the degree-48 basis
SHIFT_SIZES = (0.5, 8.0, 40.0, 80.0, 160.0, 400.0)


@pytest.mark.parametrize("mu", [0.05, 1.0, 4.0])
@pytest.mark.parametrize("degree", [12, 24, 48])
def test_rep_shift_blocks_match_mpmath(degree, mu):
    theta = 0.7
    for s in SHIFT_SIZES:
        r = float(np.sqrt(s / (2.0 * mu)))
        m = heis1_shift(mu, degree, r * np.exp(1j * theta))
        exact = displacement_oracle(mu, r, theta)[: degree + 1, : degree + 1]
        assert np.isfinite(m).all()
        err = np.abs(m - exact)
        assert np.tril(err).max() <= 1e-13, (s, "a >= b")
        assert np.triu(err, 1).max() <= 1e-13, (s, "a < b")


def test_rep_far_shifts_vanish():
    # lam = 4, z = 40 is |beta|^2 = 12800: far outside every basis function
    for degree in (8, 12, 24, 48):
        sizes = []
        for s in (80.0, 160.0, 400.0, 12800.0):
            r = float(np.sqrt(s / 8.0))
            m = heis1_shift(4.0, degree, r + 0j)
            assert np.isfinite(m).all()
            assert np.abs(m - displacement_oracle(4.0, r, 0.0)[: degree + 1, : degree + 1]).max() <= 1e-13
            sizes.append(np.abs(m).max())
        assert all(b <= a for a, b in zip(sizes, sizes[1:])), sizes
        assert sizes[-1] < 1e-300


# The 9x9 block is stable under shifts up to |beta| = 12 at degree 300; the
# shift blocks and the basis are running products, so no factorial caps it.
STABLE_DEGREE = 300
lams = st.floats(0.5, 4.0).flatmap(lambda a: st.sampled_from([a, -a]))
angles = st.floats(0.0, 2.0 * np.pi)


def point_at(lam, beta, theta, x):
    # HEIS1 has w(z) = z (conj z for lam < 0), so |beta| = sqrt(2 |lam|) |z|
    return np.array([beta / np.sqrt(2.0 * abs(lam)) * np.exp(1j * theta)]), np.array([x])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lams, st.floats(0.0, 12.0), angles, st.floats(-2.0, 2.0))
def test_rep_unitary_on_stable_block_large_shifts(lam, beta, theta, x):
    fb = fock_basis(spectral_data(HEIS1, np.array([lam])), STABLE_DEGREE)
    m = rep_apply(fb, point_at(lam, beta, theta, x))
    g = m.conj().T @ m
    assert np.abs(g[:9, :9] - np.eye(9)).max() < 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lams, st.floats(0.0, 12.0), angles, st.floats(0.0, 12.0), angles, st.floats(-2.0, 2.0))
def test_rep_homomorphism_on_stable_block_large_shifts(lam, b1, t1, b2, t2, x):
    fb = fock_basis(spectral_data(HEIS1, np.array([lam])), STABLE_DEGREE)
    p = point_at(lam, b1, t1, x)
    q = point_at(lam, b2, t2, -x)
    lhs = rep_apply(fb, p) @ rep_apply(fb, q)
    rhs = rep_apply(fb, multiply(HEIS1, p, q))
    assert np.abs((lhs - rhs)[:9, :9]).max() < 1e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(lams, st.floats(0.0, 12.0), angles, st.floats(-2.0, 2.0))
def test_rep_inverse_is_adjoint(lam, beta, theta, x):
    # pi(p^-1) = pi(p)^H holds entry by entry, truncation included
    fb = fock_basis(spectral_data(HEIS1, np.array([lam])), 48)
    p = point_at(lam, beta, theta, x)
    m = rep_apply(fb, p)
    assert np.abs(rep_apply(fb, inverse(HEIS1, p)) - m.conj().T).max() < 1e-13


@pytest.mark.parametrize("lam", [0.5, -0.7, 1.0])
def test_gaussian_coherent_diagonal(lam):
    sd = spectral_data(HEIS1, np.array([lam]))
    fb = fock_basis(sd, 10)
    op = pi_of_f(fb, gaussian_function(HEIS1))
    pred = coherent_diag(lam, np.arange(11))
    assert np.abs(np.real(np.diag(op.matrix)) - pred).max() < 1e-5
    assert np.abs(op.matrix - np.diag(np.diag(op.matrix))).max() < 1e-5


def test_gaussian_trace_formula():
    # tr pi_lam(f) = (pi/2) fhat(lam, 0-section) / |Pf(lam)| for this model;
    # degree 16 keeps the geometric tail below 1e-8 for these frequencies,
    # and the denser grid resolves the degree-16 Laguerre oscillations
    grid = GridSpec(enodes=56)
    for lam in (0.6, -1.2):
        sd = spectral_data(HEIS1, np.array([lam]))
        fb = fock_basis(sd, 16)
        op = pi_of_f(fb, gaussian_function(HEIS1), grid=grid)
        ghat = np.sqrt(np.pi) * np.exp(-(lam**2) / 4.0)
        pred = (np.pi / 2.0) * ghat / abs(lam)
        assert abs(np.trace(op.matrix) - pred) < 1e-6


def test_degenerate_tau_batch():
    lam = np.array([0.8])
    sd = spectral_data(DEG21, lam)
    assert sd.kdim == 1 and sd.d == 1
    fb = fock_basis(sd, 8)
    taus = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
    mats, _ = pi_of_f_batch(fb, gaussian_function(DEG21), taus=taus)
    alpha = np.arange(9)
    for t, tau in enumerate(taus):
        pred = coherent_diag(lam[0], alpha) * np.pi * np.exp(-(tau @ tau) / 4.0)
        assert np.abs(np.real(np.diag(mats[t])) - pred).max() < 1e-5
        assert np.abs(mats[t] - np.diag(np.diag(mats[t]))).max() < 1e-5


def modulated_gaussian(grid, dtype):
    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        rad = np.sum(np.abs(z) ** 2, axis=-1) + np.sum(x**2, axis=-1)
        return (np.exp(-rad) * np.cos(2.0 * x[..., 0])).astype(dtype)

    return SampledFunction(DEG21, ev, grid)


def test_real_samples_match_complex_twin():
    # real samples take the real x-GEMM, their +0j twin the complex one
    fb = fock_basis(spectral_data(DEG21, np.array([0.8])), 8)
    taus = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
    # boxes short enough that both the zeta- and the x-grid boundary warn
    grid = GridSpec(ebox=2.5, enodes=20, fbox=3.0, fnodes=40)
    real, rwarn = pi_of_f_batch(fb, modulated_gaussian(grid, float), taus=taus)
    cplx, cwarn = pi_of_f_batch(fb, modulated_gaussian(grid, complex), taus=taus)
    assert np.abs(real - cplx).max() <= 1e-12 * np.abs(cplx).max()
    assert any("x-grid boundary" in w for w in rwarn)
    assert any("zeta-grid boundary" in w for w in rwarn)
    assert rwarn == cwarn


def test_flat_layer_scalar():
    zero = QuadraticModel(np.zeros((1, 1, 1), dtype=complex))
    sd = spectral_data(zero, np.array([1.5]))
    assert sd.kdim == 0 and sd.d == 1
    fb = fock_basis(sd, 4)
    mats, _ = pi_of_f_batch(fb, gaussian_function(zero), taus=np.array([[0.7, -0.2]]))
    pred = np.sqrt(np.pi) * np.exp(-(1.5**2) / 4.0) * np.pi * np.exp(-(0.7**2 + 0.2**2) / 4.0)
    assert mats.shape == (1, 1, 1)
    assert abs(mats[0, 0, 0] - pred) < 1e-7


def test_small_box_warns():
    g = GridSpec(ebox=1.4, enodes=16)
    f = gaussian_function(HEIS1, grid=g)
    sd = spectral_data(HEIS1, np.array([0.5]))
    fb = fock_basis(sd, 6)
    _, warns = pi_of_f_batch(fb, f)
    assert any("boundary" in w for w in warns)


def layer_oracle(fb, f, taus, grid):
    """pi_(lam,tau)(f) (T, B, B) and its warnings, the unchunked per-layer way.

    The former body of `pi_of_f_batch`, kept as an oracle for the runner:
    f is sampled on the layer's whole clipped grid through one
    `central_transform` call, and one multi_dot contracts the tau phases,
    fhat and the weighted shift matrices.  The grid boundaries are read off
    the node indices.
    """
    sd = fb.sd
    erule = grid.e_rule()
    pn, pw = tensor_rule([complex_grid(r) for r in fock._clipped_rules(sd, grid, erule)])
    rn, rw = tensor_rule([complex_grid(erule)] * sd.d)
    zperp, zrad = pn @ sd.eigenvectors.T, rn @ sd.radical.T
    xn, xw = tensor_rule([grid.f_rule()] * sd.lam.size)
    z = (zperp[:, None, :] + zrad[None, :, :]).reshape(-1, zperp.shape[1])
    fhat, xtot, xtail = central_transform(f, z, sd.lam[None, :], xn, xw)
    fhat = fhat[:, 0].reshape(zperp.shape[0], zrad.shape[0])
    tphase = rw[:, None] * np.exp(-1j * fock._tau_dot(taus[None, :, :], rn[:, None, :]))
    wshift = fock._weighted_shifts(fb, zperp, pw)
    share = np.linalg.multi_dot([tphase.T, fhat.T, wshift])

    def edge(dims):
        idx = np.indices((grid.enodes,) * dims).reshape(dims, grid.enodes**dims)
        return ((idx == 0) | (idx == grid.enodes - 1)).any(axis=0)

    damp = np.exp(-0.5 * sd.phi_lam(zperp)) * np.abs(pw)
    pmask, rmask, rabs = edge(2 * sd.kdim), edge(2 * sd.d), np.abs(rw)
    absf = np.abs(fhat)
    full = absf @ rabs
    tail_w = float(damp @ np.where(pmask, full, absf[:, rmask] @ rabs[rmask]))
    warnings = (fock._tail_warning(tail_w, float(damp @ full), fock._ZETA_TAIL)
                + fock._tail_warning(xtail, xtot, fock._X_TAIL))
    return share.reshape(-1, fb.size, fb.size), warnings


def off_centre_gaussian(model, grid):
    """A real gaussian off the origin, modulated in x: pi(f) is not diagonal."""

    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        rad = np.sum(np.abs(z - (0.4 - 0.3j)) ** 2, axis=-1) + np.sum(x**2, axis=-1)
        return np.exp(-rad) * np.cos(1.5 * x[..., 0])

    return SampledFunction(model, ev, grid)


ZERO = QuadraticModel(np.zeros((1, 1, 1), dtype=complex))

# model, lam, degree, taus, grid; the HEIS1 clip bites past |lam| = 1.25 on
# ebox 4, and the short boxes make the tail warnings fire
RUNNER_CASES = {
    "heis1-unclipped": (HEIS1, 0.7, 10, np.zeros((1, 0)), GridSpec(enodes=30)),
    "heis1-clipped": (HEIS1, -3.0, 10, np.zeros((1, 0)),
                      GridSpec(ebox=4.0, enodes=30, fbox=3.0, fnodes=32)),
    "deg21-chunked": (DEG21, 1.1, 6, np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]]),
                      GridSpec(ebox=2.5, enodes=12, fbox=3.0, fnodes=24)),
    "zero": (ZERO, 1.5, 4, np.array([[0.7, -0.2], [0.0, 1.0]]),
             GridSpec(ebox=3.0, enodes=16, fbox=3.0, fnodes=24)),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CASES))
def test_pi_of_f_batch_matches_layer_oracle(case, monkeypatch):
    model, lam, degree, taus, grid = RUNNER_CASES[case]
    fb = fock_basis(spectral_data(model, np.array([lam])), degree)
    f = off_centre_gaussian(model, grid)
    chunks = []
    if case == "deg21-chunked":
        # 144 perpendicular points, 40 radical points a chunk: 40, 40, 40, 24
        monkeypatch.setattr(fock, "CHUNK_ELEMENTS", 144 * 40)
        sample = fock.central_transform

        def spy(f, z, *args):
            chunks.append(z.shape[0] // 144)
            return sample(f, z, *args)

        monkeypatch.setattr(fock, "central_transform", spy)
    got, warns = pi_of_f_batch(fb, f, taus=taus)
    monkeypatch.undo()
    want, want_warns = layer_oracle(fb, f, taus, grid)
    assert got.shape == want.shape == (taus.shape[0], fb.size, fb.size)
    for g, w in zip(got, want):
        assert (np.abs(g - w) <= 1e-13 * np.abs(w).max()).all()
    assert warns == want_warns
    if case == "deg21-chunked":
        assert chunks == [40, 40, 40, 24]
    # the short x-boxes warn; so do the short zeta-boxes, except where the
    # clip keeps the layer's grid inside the function's mass
    assert len(warns) == {"heis1-unclipped": 0, "heis1-clipped": 1}.get(case, 2)


def test_plancherel_gaussian_smoke():
    f = gaussian_function(HEIS1)
    cfg = PlancherelConfig(lam_lo=[-4.0], lam_hi=[4.0], lam_nodes=15, degree=8)
    rep = plancherel_residual(HEIS1, f, cfg)
    assert abs(rep.lhs - (np.pi / 2.0) * np.sqrt(np.pi / 2.0)) < 1e-6
    # the residual at this truncation degree is dominated by the known
    # basis-truncation deficit, about 1/(2D+2)/sqrt(2 pi)
    assert rep.residual < 0.06
    assert rep.rhs < rep.lhs
    assert rep.skipped == 0


def test_interp_matrix_reproduces_polynomials():
    # a degree N-1 polynomial from N source nodes onto a clipped rule
    for num in (24, 40):
        src = GridSpec(enodes=num).e_rule()[0]
        dst = gauss_legendre(num, -1.58, 1.58)[0]
        coef = np.random.default_rng(num).standard_normal(num)
        want = legendre.legval(dst / 4.0, coef)
        got = fock._interp_matrix(src, dst) @ legendre.legval(src / 4.0, coef)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert (fock._interp_matrix(src, src) == np.eye(num)).all()
    # in a layer, an unclipped axis takes no matrix at all, a clipped one does
    grid = GridSpec()
    erule = grid.e_rule()
    taus = np.zeros((1, 0))
    wide = fock._BatchLayer(spectral_data(HEIS1, np.array([0.5])), 4, grid, erule, [erule], taus)
    narrow = fock._BatchLayer(spectral_data(HEIS1, np.array([8.0])), 4, grid, erule, [erule],
                              taus)
    assert wide.mats == [None, None]
    assert [m.shape for m in narrow.mats] == [(40, 40), (40, 40)]
    fhat = np.ones((1600, 3), complex)
    assert fock._interpolate(fhat, wide.mats) is fhat


def test_hs_norm_batch():
    m = np.array([[[1.0, 2.0], [0.0, 2.0]], [[3.0, 0.0], [4.0, 0.0]]])
    assert np.allclose(hs_norm(m), [3.0, 5.0])


def spectral_oracle(f, g, grid=None):
    """The generic spectral convolution: g's own coefficients at z - q.

    The former spectral path of `group_convolve`, kept as an oracle: for
    every output point, quadrature point and frequency it evaluates g.coeff
    at z - q and the group-law phase, and sums over q.
    """
    model = f.model
    grid = grid or f.grid
    erule = grid.e_rule()
    enodes, eweights = tensor_rule([erule] * (2 * model.n))
    zq = enodes[:, 0::2] + 1j * enodes[:, 1::2]  # (Q, n)
    xn, xw = tensor_rule([grid.f_rule()] * model.m)  # (X, m)

    lambdas = g.spectral.lambdas  # (J, m)
    fhat, _, _ = central_transform(f, zq, lambdas, xn, xw)  # (Q, J)
    gcoeff = g.spectral.coeff

    def coeff(z):
        z = np.asarray(z, complex)
        flat = z.reshape(-1, model.n)
        out = np.empty((flat.shape[0], lambdas.shape[0]), complex)
        czch = max(1, CHUNK_ELEMENTS // (zq.shape[0] * lambdas.shape[0]))
        for lo in range(0, flat.shape[0], czch):
            zc = flat[lo : lo + czch]
            shift = 2.0 * np.imag(model.phi_pair(zq[None, :, :], zc[:, None, :]))
            # shift of the central variable produced by the group law,
            # as a phase at each fixed frequency
            ph = np.exp(-1j * np.einsum("zqm,jm->zqj", shift, lambdas))
            gz = gcoeff(zc[:, None, :] - zq[None, :, :])  # (c, Q, J)
            out[lo : lo + czch] = np.einsum("q,qj,zqj,zqj->zj", eweights, fhat, gz, ph)
        return out.reshape(z.shape[:-1] + (lambdas.shape[0],))

    form = SpectralForm(lambdas, coeff)
    return SampledFunction(model, form, grid, spectral=form, meta={"convolved": True})


def direct_oracle(f, g, grid=None):
    """The direct convolution: f(q, y) g((q, y)^-1 p) summed point by point.

    The former non-spectral path of `group_convolve`, kept as an oracle that
    needs nothing of g but its values.
    """
    model = f.model
    grid = grid or f.grid
    erule = grid.e_rule()
    enodes, eweights = tensor_rule([erule] * (2 * model.n))
    zq = enodes[:, 0::2] + 1j * enodes[:, 1::2]  # (Q, n)
    xn, xw = tensor_rule([grid.f_rule()] * model.m)  # (X, m)

    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        zb = np.broadcast_to(z, np.broadcast_shapes(z.shape, x.shape[:-1] + (model.n,)))
        xb = np.broadcast_to(x, np.broadcast_shapes(x.shape, z.shape[:-1] + (model.m,)))
        flatz = zb.reshape(-1, model.n)
        flatx = xb.reshape(-1, model.m)
        out = np.empty(flatz.shape[0], complex)
        fq = f(zq[:, None, :], xn[None, :, :])  # (Q, X)
        for i in range(flatz.shape[0]):
            shift = 2.0 * np.imag(model.phi_pair(zq, flatz[i]))  # (Q, m)
            vals = g(flatz[i] - zq[:, None, :], flatx[i] - xn[None, :, :] - shift[:, None, :])
            out[i] = np.sum(eweights[:, None] * xw[None, :] * fq * vals)
        return out.reshape(zb.shape[:-1])

    return SampledFunction(model, ev, grid, meta={"convolved": True})


def test_convolution_oracles_agree():
    # a kernel whose coefficients are no ground form reaches only the oracles
    g9 = GridSpec(ebox=3.5, enodes=16, fbox=5.0, fnodes=20)
    f = gaussian_function(HEIS1, grid=g9)
    lambdas = np.array([[1.3], [-0.4]])

    def coeff(z):
        z = np.asarray(z, complex)
        base = np.exp(-np.sum(np.abs(z) ** 2, axis=-1))
        return np.stack([base, 0.5 * base * np.conj(z[..., 0])], axis=-1)

    def gev(z, x):
        return np.einsum(
            "...j,...j->...", coeff(z), np.exp(1j * (np.asarray(x, float) @ lambdas.T))
        )

    gs = SampledFunction(HEIS1, gev, g9, spectral=SpectralForm(lambdas, coeff))
    gp = SampledFunction(HEIS1, gev, g9)
    hs = spectral_oracle(f, gs)
    hp = direct_oracle(f, gp)
    zs = np.array([[0.3 + 0.2j], [-0.5 + 0.1j]])
    xs = np.array([[0.4], [-0.7]])
    a, b = hs(zs, xs), hp(zs, xs)
    assert np.abs(a - b).max() < 1e-10
    assert hs.spectral is not None
    assert np.allclose(hs.spectral.lambdas, lambdas)


# n = 2, m = 2, with off-diagonal Hermitian layers
PAIR22 = QuadraticModel(np.array([
    [[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.6]],
    [[0.4, -0.25j], [0.25j, 1.1]],
]))


def ground_kernel(model, lambdas, amp, grid):
    form = SpectralForm.ground(model, np.asarray(lambdas, float), np.asarray(amp, complex))
    return SampledFunction(model, form, grid, spectral=form)


def box_points(rng, count, n, half):
    return rng.uniform(-half, half, (count, n)) + 1j * rng.uniform(-half, half, (count, n))


CONVOLVE_CASES = {
    # model, grid, kernel frequencies (one with a negative component on
    # PAIR22), output points (more than one chunk holds)
    "heis1": (HEIS1, GridSpec(ebox=3.5, enodes=16, fbox=5.0, fnodes=20),
              np.linspace(0.4, 2.0, 16)[:, None], 1000),
    "pair22": (PAIR22, GridSpec(ebox=2.5, enodes=6, fbox=4.0, fnodes=10),
               np.array([[1.2, -0.3], [0.5, 0.8], [1.0, 1.0]]), 400),
}


@pytest.mark.parametrize("case", sorted(CONVOLVE_CASES))
def test_group_convolve_matches_oracles(case):
    model, grid, lambdas, count = CONVOLVE_CASES[case]
    J, N = lambdas.shape[0], grid.enodes
    assert count > CHUNK_ELEMENTS // (J * N ** (2 * model.n - 1))
    rng = np.random.default_rng(11)
    amp = rng.uniform(0.5, 1.5, J) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, J))
    f = gaussian_function(model, grid=grid)
    g = ground_kernel(model, lambdas, amp, grid)
    h = group_convolve(f, g)
    assert h.spectral.amp is None
    z = box_points(rng, count, model.n, grid.ebox)
    got = h.spectral.coeff(z)
    want = spectral_oracle(f, g).spectral.coeff(z)
    assert got.shape == (count, J)
    # entry by entry, relative to each frequency's scale: the two orders of
    # summation cancel differently where a coefficient is near zero
    assert (np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0)).all()
    # the direct oracle sums f(q, y) g((q, y)^-1 p) over the q and y grids
    x = rng.uniform(-2.0, 2.0, (4, model.m))
    got = h(z[:4], x)
    want = direct_oracle(f, g)(z[:4], x)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()


def test_group_convolve_needs_ground_form():
    grid = GridSpec(ebox=3.5, enodes=8, fbox=5.0, fnodes=10)
    f = gaussian_function(HEIS1, grid=grid)
    lambdas = np.array([[1.0]])
    plain = SpectralForm(lambdas, lambda z: np.exp(-HEIS1.phi(z) @ lambdas.T))
    with pytest.raises(ValueError, match="ground form"):
        group_convolve(f, SampledFunction(HEIS1, plain, grid, spectral=plain))
    with pytest.raises(ValueError, match="ground form"):
        group_convolve(f, gaussian_function(HEIS1, grid=grid))
    # the amplitudes are read off the coefficient: replacing it drops them,
    # and a functools.wraps wrapper of a ground coefficient keeps them
    g = ground_kernel(HEIS1, lambdas, [1.0], grid)
    replaced = dataclasses.replace(g.spectral, coeff=lambda z: 2.0 * g.spectral.coeff(z))
    assert replaced.amp is None
    with pytest.raises(ValueError, match="ground form"):
        group_convolve(f, SampledFunction(HEIS1, replaced, grid, spectral=replaced))
    wrapped = dataclasses.replace(g.spectral, coeff=functools.wraps(g.spectral.coeff)(
        lambda z: g.spectral.coeff(z)))
    assert wrapped.amp is g.spectral.amp
    group_convolve(f, SampledFunction(HEIS1, wrapped, grid, spectral=wrapped))


def test_group_convolve_refuses_overflow():
    grid = GridSpec(ebox=3.5, enodes=8, fbox=5.0, fnodes=10)
    f = gaussian_function(HEIS1, grid=grid)
    # lam = -40 grows like exp(40 |q|^2) over the box: refused before any sum
    with pytest.raises(ValueError, match="pairing cone"):
        group_convolve(f, ground_kernel(HEIS1, [[-40.0]], [1.0], grid))
    h = group_convolve(f, ground_kernel(HEIS1, [[1.0]], [1.0], grid))
    assert np.isfinite(h.spectral.coeff(np.array([[3.0 + 1.0j]]))).all()
    # one factor e^(t s) reaches about e^670 at z = 100
    with pytest.raises(ValueError, match="factor reaches"):
        h.spectral.coeff(np.array([[0.0], [100.0 + 0.0j]]))
    # at z = 60 + 60i each factor stays below e^420, but their product overflows
    with pytest.raises(ValueError, match="sum overflows"):
        h.spectral.coeff(np.array([[60.0 + 60.0j]]))


def test_group_convolve_serves_large_factors():
    # lam = 5 on an ebox = 6 box: at the corners the axis factors reach e^360,
    # and e^(-lam |q|^2) in H brings every term back in range
    grid = GridSpec(ebox=6.0, enodes=16, fbox=5.0, fnodes=20)
    f = gaussian_function(HEIS1, grid=grid)
    g = ground_kernel(HEIS1, [[5.0]], [1.0], grid)
    z = np.array([[6.0 + 6.0j], [-6.0 + 6.0j], [6.0 - 6.0j], [-6.0 - 6.0j], [3.0 + 0.0j]])
    got = group_convolve(f, g).spectral.coeff(z)
    want = spectral_oracle(f, g).spectral.coeff(z)
    assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()


def test_bandlimit_projection_stays_ground():
    grid = GridSpec(ebox=3.5, enodes=16, fbox=5.0, fnodes=20)
    f = inverse_FN(HEIS1, bump_profile(interval_body(1.2, 1.8), nodes=32), grid=grid)
    window = spectral_window(interval_body(1.0, 2.0), 0.8)
    p = bandlimit_project(f, window)
    scale = window(f.spectral.lambdas)
    assert ((scale > 0.0) & (scale < 1.0)).any()  # the window bites on some nodes
    assert np.array_equal(p.spectral.amp, f.spectral.amp * scale)
    z = box_points(np.random.default_rng(3), 200, 1, 3.5)
    reweighted = f.spectral.coeff(z) * scale  # the reweighting of a plain spectral form
    assert (np.abs(p.spectral.coeff(z) - reweighted) <= 1e-15 * np.abs(reweighted)).all()
    # the projection is itself a convolution kernel
    g = gaussian_function(HEIS1, grid=grid)
    got = group_convolve(g, p).spectral.coeff(z)
    want = spectral_oracle(g, p).spectral.coeff(z)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0)).all()


# n = 2, m = 2, two decoupled copies of HEIS1: the eigenvalue order, and
# with it the frame, flips across the diagonal lam_1 = lam_2
DECOUPLED22 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                                      complex))

def counted_gaussian(model, grid, points, width=None):
    """exp(-|z|^2 - |x|^2) as complex samples, or exp(-|z|^2/width^2 - |x|^2)
    as real ones; each call appends its sample count to points."""

    def ev(z, x):
        z = np.asarray(z, complex)
        x = np.asarray(x, float)
        zz = np.sum(np.abs(z) ** 2, axis=-1)
        xx = np.sum(x**2, axis=-1)
        out = np.exp(-zz - xx + 0j) if width is None else np.exp(-zz / width**2 - xx)
        points.append(out.size)
        return out

    return SampledFunction(model, ev, grid)


# model, grid, config, width of the real gaussian (None: the complex one),
# batches.  DEG21 also shrinks the chunk and the batch budget, so its pass
# spans several radical chunks and batches; PAIR22's frame turns with lam,
# so each of its batches holds one layer.
PLANCHEREL_CASES = {
    "heis1": (HEIS1, GridSpec(ebox=4.0, enodes=24, fbox=5.0, fnodes=24),
              dict(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=9, degree=6), None, 1),
    "deg21": (DEG21, GridSpec(ebox=3.5, enodes=12, fbox=4.5, fnodes=16),
              dict(lam_lo=[-10.0], lam_hi=[10.0], lam_nodes=7, degree=4, tau_nodes=4), 2.0, 3),
    "decoupled22": (DECOUPLED22, GridSpec(ebox=3.0, enodes=10, fbox=4.5, fnodes=10),
                    dict(lam_lo=[-6.0, -6.0], lam_hi=[6.0, 6.0], lam_nodes=4, degree=2), 2.0, 2),
    "pair22": (PAIR22, GridSpec(ebox=3.0, enodes=10, fbox=4.5, fnodes=10),
               dict(lam_lo=[0.3, 0.3], lam_hi=[4.0, 4.0], lam_nodes=2, degree=3), 2.0, 4),
}


@pytest.mark.parametrize("case", sorted(PLANCHEREL_CASES))
def test_plancherel_layers_match_per_layer_oracle(case, monkeypatch):
    model, grid, kw, width, batches = PLANCHEREL_CASES[case]
    cfg = PlancherelConfig(grid=grid, **kw)
    if case == "deg21":
        # batches of 3, 2 and 2 layers (B^2 = 25, T = 16, P = R = 144), with
        # 16 radical points a chunk for three layers and 24 for two
        monkeypatch.setattr(fock, "BATCH_STATE_BYTES", 3 * 16 * 25 * (16 + 144))
        monkeypatch.setattr(fock, "CHUNK_ELEMENTS", 144 * 3 * 16)
    seen, radical = [], []
    run_batch, sample = fock._run_layers, fock.central_transform
    perp = grid.enodes ** (2 * (model.n - generic_dimension(model)))

    def spy_batch(f, sds, *args):
        seen.append(len(sds))
        return run_batch(f, sds, *args)

    def spy_sample(f, z, *args):
        # the runner samples perp x radical-chunk points at a time
        radical.append(z.shape[0] // perp)
        return sample(f, z, *args)

    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    monkeypatch.setattr(fock, "central_transform", spy_sample)
    points = []
    f = counted_gaussian(model, grid, points, width)
    rep = plancherel_residual(model, f, cfg)
    monkeypatch.undo()
    assert len(seen) == batches and sum(seen) == len(rep.rows) == rep.n_layers
    # f is sampled once for the norm and once per batch, never per layer
    assert sum(points) == (1 + batches) * grid.enodes ** (2 * model.n) * grid.fnodes ** model.m
    if case == "deg21":
        assert sorted(seen) == [2, 2, 3] and len(radical) == 9 + 6 + 6 and max(radical) == 24

    erule = grid.e_rule()
    xn, xw = tensor_rule([grid.f_rule()] * model.m)
    taus, tau_w = tensor_rule([gauss_legendre(cfg.tau_nodes, -cfg.tau_box, cfg.tau_box)]
                              * (2 * rep.generic_d))
    clipped = []
    for lam, pf, layer, captured in rep.rows:
        sd = spectral_data(model, lam)
        mats, _ = pi_of_f_batch(fock_basis(sd, cfg.degree), f, taus=taus, grid=grid)
        want = float(np.sum(tau_w * hs_norm(mats) ** 2))
        err = abs(layer - want) / want
        if math.sqrt(fock.PHI_CUT / (2.0 * np.abs(sd.eigenvalues).max())) >= grid.ebox:
            assert err <= 1e-12, (lam, err)
        else:
            clipped.append(err)
        # the certificate's denominator, on the frame's unclipped grid
        pn, pw = tensor_rule([complex_grid(erule)] * sd.kdim)
        rn, rw = tensor_rule([complex_grid(erule)] * sd.d)
        z = (pn @ sd.eigenvectors.T)[:, None, :] + (rn @ sd.radical.T)[None, :, :]
        fhat = central_transform(f, z.reshape(-1, model.n), lam[None, :], xn, xw)[0][:, 0]
        mass = float(np.outer(pw, rw).reshape(-1) @ np.abs(fhat) ** 2) / (2 * np.pi) ** model.m
        assert abs(captured - rep.constant * pf * layer / mass) <= 1e-12 * captured
    # clipped layers differ by the error of interpolating fhat onto the
    # clipped nodes; on these coarse grids (10 to 24 nodes) it reads 1.0e-5
    # (heis1) to 5.9e-4 (decoupled22)
    assert 0 < len(clipped) < len(rep.rows)
    assert max(clipped) <= 1e-3


def test_plancherel_x_tail_warning_reads_the_shared_samples():
    # an x-box short enough that its boundary carries mass; the ratio is
    # read off the samples of the frame's unclipped grid, not a layer's
    grid = GridSpec(ebox=3.5, enodes=10, fbox=2.5, fnodes=16)
    f = counted_gaussian(DEG21, grid, [], 2.0)
    cfg = PlancherelConfig(lam_lo=[-10.0], lam_hi=[10.0], lam_nodes=5, degree=3, tau_nodes=4,
                           grid=grid)
    rep = plancherel_residual(DEG21, f, cfg)
    t, tw = grid.e_rule()
    z = np.stack(np.meshgrid(t + 0j, t, t, t, indexing="ij"), axis=-1).reshape(-1, 4)
    z = z[:, 0::2] + 1j * z[:, 1::2]
    xn, xw = grid.f_rule()
    absf = np.abs(f(z[:, None, :], xn[None, :, None]))  # (Z, X)
    edge = np.isin(np.arange(xn.size), [0, xn.size - 1])
    ratio = float(np.sum(absf @ (xw * edge)) / np.sum(absf @ xw))
    assert ratio > 1e-6
    assert f"x-grid boundary carries {ratio:.2e} of the absolute mass" in rep.warnings
    assert sum("x-grid" in w for w in rep.warnings) == 1


def test_plancherel_certificate_names_unresolved_layers():
    # at degree 48 the 40-node grid cannot resolve pi(f) on [0.2, 4], and
    # the global residual alone does not say so; 64 nodes do
    cfg = PlancherelConfig(lam_lo=[0.2], lam_hi=[4.0], lam_nodes=2, degree=48)
    coarse = plancherel_residual(HEIS1, gaussian_function(HEIS1), cfg)
    assert all(row[3] > 1.4 for row in coarse.rows)
    named = [w for w in coarse.warnings if "captures" in w]
    assert len(named) == len(coarse.rows) == 2
    for lam, _, _, captured in coarse.rows:
        assert any(f"lam = {np.array2string(lam, precision=4)} captures {captured:.7g}" in w
                   for w in named)
    fine = plancherel_residual(HEIS1, gaussian_function(HEIS1, GridSpec(enodes=64)), cfg)
    assert max(row[3] for row in fine.rows) <= 1.0 + fock.CAPTURED_TOL
    assert not any("captures" in w for w in fine.warnings)


def test_l2_norm_chunks_match_the_materialised_rule():
    # 20736 zeta points against 10000 a chunk, summed exactly as the
    # materialised tensor rule sums them
    grid = GridSpec(ebox=3.5, enodes=12, fbox=4.5, fnodes=20)
    f = modulated_gaussian(grid, float)
    enodes, eweights = tensor_rule([grid.e_rule()] * 4)
    xn, xw = tensor_rule([grid.f_rule()])
    z = enodes[:, 0::2] + 1j * enodes[:, 1::2]
    step = CHUNK_ELEMENTS // xn.shape[0]
    assert z.shape[0] > 2 * step
    total = 0.0
    for lo in range(0, z.shape[0], step):
        vals = f(z[lo : lo + step, None, :], xn[None, :, :])
        total += float(eweights[lo : lo + step] @ (np.abs(vals) ** 2 @ xw))
    assert l2_norm(f) == np.sqrt(total)
