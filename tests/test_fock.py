import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import laguerre

from quadric_cr.functions import GridSpec, SampledFunction, SpectralForm, gaussian_function, l2_norm
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
from quadric_cr.quadrature import complex_grid, gauss_hermite
from quadric_cr.spectral import spectral_data

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


def test_hs_norm_batch():
    m = np.array([[[1.0, 2.0], [0.0, 2.0]], [[3.0, 0.0], [4.0, 0.0]]])
    assert np.allclose(hs_norm(m), [3.0, 5.0])


def test_group_convolve_paths_agree():
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
    hs = group_convolve(f, gs)
    hp = group_convolve(f, gp)
    zs = np.array([[0.3 + 0.2j], [-0.5 + 0.1j]])
    xs = np.array([[0.4], [-0.7]])
    a, b = hs(zs, xs), hp(zs, xs)
    assert np.abs(a - b).max() < 1e-10
    assert hs.spectral is not None
    assert np.allclose(hs.spectral.lambdas, lambdas)
