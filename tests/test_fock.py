import dataclasses
import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import laguerre, legendre

from quadric_cr import fock, functions, quadrature
from quadric_cr.functions import (CHUNK_ELEMENTS, GridSpec, SampledFunction, SpectralForm,
                                  gaussian_function, l2_norm)
from quadric_cr.fock import (
    PlancherelConfig,
    eval_basis,
    fock_basis,
    group_convolve,
    hs_norm,
    multi_indices,
    pi_of_f_batch,
    plancherel_residual,
    rep_apply,
)
from quadric_cr.model import QuadraticModel, inverse, multiply
from quadric_cr.quadrature import complex_grid, gauss_legendre, tensor_rule
from quadric_cr.spectral import generic_dimension, spectral_data
from quadric_cr.convex import interval_body
from quadric_cr.transform import (bandlimit_project, bump_profile, forward_FN, inverse_FN,
                                  spectral_window)

HEIS1 = QuadraticModel(np.array([[[1.0]]], dtype=complex))
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex))
# n = 2, m = 2, two decoupled copies of HEIS1: the eigenvalue order, and
# with it the frame, flips across the diagonal lam_1 = lam_2
DECOUPLED22 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                                      complex))
# n = 2, m = 1 with a non-diagonal A: its frames are not the coordinate axes
ROTATED_M1 = QuadraticModel(np.array([[[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 2.0]]]))


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


def gauss_hermite(num):
    """Gauss-Hermite nodes and weights for the weight exp(-t^2) on the line."""
    return np.polynomial.hermite.hermgauss(int(num))


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


@pytest.mark.parametrize("mu", [0.05, 1.0, fock.PHI_CUT / 2])
@pytest.mark.parametrize("degree", [8, 24, 48])
def test_mode_blocks_mirror_across_the_diagonal(degree, mu):
    # D(w)^dagger = D(-w) and D(-w)_ab = (-1)^(a-b) D(w)_ab, so every block
    # has W(b, a) = sigma conj W(a, b), sigma = (-1)^(a-b): Re[b, a] =
    # sigma Re[a, b] and Im[b, a] = -sigma Im[a, b], entry by entry and
    # exactly, on seeded shifts with |beta|^2 from 0 to 400; the planes are
    # read square through their pair order
    rng = np.random.default_rng(31)
    r = np.sqrt(rng.uniform(0.0, 400.0, 50) / (2.0 * mu))
    wz = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 50))
    row = fock._pair_order(1, degree)[2].reshape(degree + 1, degree + 1)
    re, im = fock._mode_blocks(mu, wz, degree)[:, row]
    a = np.arange(degree + 1)
    sigma = ((-1.0) ** (a[:, None] - a[None, :]))[..., None]
    assert np.isfinite(re).all() and np.isfinite(im).all() and np.abs(im).max() > 0
    assert np.array_equal(re.transpose(1, 0, 2), sigma * re)
    assert np.array_equal(im.transpose(1, 0, 2), -sigma * im)


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
    (mat,), _ = pi_of_f_batch(fb, gaussian_function(HEIS1))
    pred = coherent_diag(lam, np.arange(11))
    assert np.abs(np.real(np.diag(mat)) - pred).max() < 1e-5
    assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-5


def test_gaussian_trace_formula():
    # tr pi_lam(f) = (pi/2) fhat(lam, 0-section) / |Pf(lam)| for this model;
    # degree 16 keeps the geometric tail below 1e-8 for these frequencies,
    # and the denser grid resolves the degree-16 Laguerre oscillations
    grid = GridSpec(enodes=56)
    for lam in (0.6, -1.2):
        sd = spectral_data(HEIS1, np.array([lam]))
        fb = fock_basis(sd, 16)
        (mat,), _ = pi_of_f_batch(fb, gaussian_function(HEIS1), grid=grid)
        ghat = np.sqrt(np.pi) * np.exp(-(lam**2) / 4.0)
        pred = (np.pi / 2.0) * ghat / abs(lam)
        assert abs(np.trace(mat) - pred) < 1e-6


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


def edge_nodes(num, dims):
    """Mask of the points of a C-ordered tensor grid of num nodes per axis
    that sit at an axis's first or last node, read off the node indices."""
    idx = np.indices((num,) * dims).reshape(dims, num**dims)
    return ((idx == 0) | (idx == num - 1)).any(axis=0)


def sampled_fhat(f, z, lambdas, grid):
    """fhat (Z, J) = sum_x w_x f(z, x) e^(-i <lam, x>), with f sampled on the
    grid's central tensor rule whatever form it carries, and the x-sums of
    |f| over the whole rule and over its boundary nodes."""
    xn, xw = tensor_rule([grid.f_rule()] * lambdas.shape[1])
    samples = f(z[:, None, :], xn[None, :, :])  # (Z, X)
    fhat = samples @ (xw[:, None] * np.exp(-1j * (xn @ lambdas.T)))
    absf = np.abs(samples)
    edge = edge_nodes(grid.fnodes, lambdas.shape[1])
    return fhat, float(np.sum(absf @ np.abs(xw))), float(np.sum(absf[:, edge] @ np.abs(xw[edge])))


def layer_oracle(fb, f, taus, grid):
    """pi_(lam,tau)(f) (T, B, B) and its warnings, the unchunked per-layer way.

    The former body of `pi_of_f_batch`, kept as an oracle for the runner:
    f is sampled on the layer's whole clipped grid at once, and one
    multi_dot contracts the tau phases, fhat and the weighted shift
    matrices, built point by point as `rep_apply` builds them, not from
    the per-mode tables.  The grid boundaries are read off the node indices.
    """
    sd = fb.sd
    pn, pw = tensor_rule([complex_grid(gauss_legendre(grid.enodes, -s, s))
                          for s in fock._half_widths(sd.eigenvalues, grid.ebox)])
    rn, rw = tensor_rule([complex_grid(grid.e_rule())] * sd.d)
    zperp, zrad = pn @ sd.eigenvectors.T, rn @ sd.radical.T
    z = (zperp[:, None, :] + zrad[None, :, :]).reshape(-1, zperp.shape[1])
    fhat, xtot, xtail = sampled_fhat(f, z, sd.lam[None, :], grid)
    fhat = fhat[:, 0].reshape(zperp.shape[0], zrad.shape[0])
    tphase = rw[:, None] * np.exp(-1j * fock._tau_dot(taus[None, :, :], rn[:, None, :]))
    wshift = fock._shift_matrices(fb, sd.w_coords(zperp)).reshape(zperp.shape[0], -1)
    wshift *= pw[:, None]
    share = np.linalg.multi_dot([tphase.T, fhat.T, wshift])

    def edge(dims):
        return edge_nodes(grid.enodes, dims)

    damp = np.exp(-0.5 * sd.phi_lam(zperp)) * np.abs(pw)
    pmask, rmask, rabs = edge(2 * sd.kdim), edge(2 * sd.d), np.abs(rw)
    absf = np.abs(fhat)
    full = absf @ rabs
    tail_w = float(damp @ np.where(pmask, full, absf[:, rmask] @ rabs[rmask]))
    # the zeta-tail warning names its layer's lam
    ratio = tail_w / float(damp @ full)
    warnings = ((f"layer lam = {np.array2string(sd.lam, precision=4)}: zeta-grid boundary "
                 f"carries {ratio:.2e} of the weighted mass",) if ratio > 1e-6 else ())
    warnings += fock._tail_warning(xtail, xtot, fock._X_TAIL)
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
    # odd node counts: the quadrant's zero lines carry weight 1/2, its origin 1/4
    "heis1-odd-unclipped": (HEIS1, 0.7, 10, np.zeros((1, 0)), GridSpec(enodes=15)),
    "heis1-odd-clipped": (HEIS1, -3.0, 10, np.zeros((1, 0)),
                          GridSpec(ebox=4.0, enodes=9, fbox=3.0, fnodes=32)),
    "deg21-odd": (DEG21, -1.1, 6, np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]]),
                  GridSpec(ebox=2.5, enodes=9, fbox=3.0, fnodes=24)),
}


@pytest.mark.parametrize("case", sorted(RUNNER_CASES))
def test_pi_of_f_batch_matches_layer_oracle(case, monkeypatch):
    model, lam, degree, taus, grid = RUNNER_CASES[case]
    fb = fock_basis(spectral_data(model, np.array([lam])), degree)
    f = off_centre_gaussian(model, grid)
    chunks = []
    if case == "deg21-chunked":
        # 144 perpendicular points, 40 radical points a chunk: 40, 40, 40, 24.
        # The budget holds the layer's kept state (B^2 = 49, T = 3, P = 144)
        # and a chunk of 40 radical points: their 144 source points each, 16
        # bytes a coordinate (n = 2), and the four complex arrays the layer
        # holds on them (its fhat, the fold's buffer and sums, and the fhat the
        # worker fills meanwhile), 16 bytes each
        monkeypatch.setattr(fock, "BATCH_STATE_BYTES",
                            16 * 49 * (3 + 144) + 16 * 144 * (4 * 1 + 2) * 40)
        build = fock._central_transform

        def spy(*args):
            transform = build(*args)

            def counted(z, out=None):
                chunks.append(z.shape[0] // 144)
                return transform(z, out)

            return counted

        monkeypatch.setattr(fock, "_central_transform", spy)
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
    assert len(warns) == {"heis1-unclipped": 0, "heis1-clipped": 1, "heis1-odd-unclipped": 0,
                          "heis1-odd-clipped": 1}.get(case, 2)


def test_pi_of_f_batch_builds_each_rule_once(monkeypatch):
    # both modes clip at lam = (3, 4) on DECOUPLED22 (half-widths 2.58 and
    # 2.24 inside ebox 4): the e-rule and the clipped rules share one
    # reference solve, and an x-rule is solved only for the sampled
    # function; the memo is cleared before each counted call
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(num):
        built.append(int(num))
        return leggauss(num)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    grid = GridSpec(ebox=4.0, enodes=8, fbox=3.0, fnodes=12)
    fb = fock_basis(spectral_data(DECOUPLED22, np.array([3.0, 4.0])), 2)
    quadrature._reference_rule.cache_clear()
    pi_of_f_batch(fb, gaussian_function(DECOUPLED22, grid))
    assert sorted(built) == [8, 12]
    form = SpectralForm.ground(DECOUPLED22, np.array([[3.0, 4.0], [2.5, 3.5]]),
                               np.array([1.0, 0.5]))
    quadrature._reference_rule.cache_clear()
    built.clear()
    pi_of_f_batch(fb, SampledFunction(DECOUPLED22, form, grid, spectral=form))
    assert built == [8]


# n = 2, m = 2 with eigenvectors turned off the coordinate axes: lam = (1, 0.4)
# has one negative eigenvalue and no clip, (4, 2) clips its positive mode
# only, and (6, -1) clips both, one of them negative
_TURN = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])
ROTATED22 = QuadraticModel(np.array([_TURN @ np.diag(d) @ _TURN.T
                                     for d in ([1.0, -0.5], [0.3, 0.8])], complex))

# model, lam, degree, grid, which modes the clip bites
SHIFT_TABLE_CASES = {
    "heis1-unclipped": (HEIS1, [0.7], 8, GridSpec(enodes=16), [False]),
    "heis1-clipped": (HEIS1, [3.0], 8, GridSpec(enodes=16), [True]),
    "heis1-clipped-negative": (HEIS1, [-3.0], 8, GridSpec(enodes=16), [True]),
    "deg21": (DEG21, [-4.0], 6, GridSpec(ebox=3.5, enodes=12), [True]),
    "decoupled22-both": (DECOUPLED22, [3.0, 4.0], 4, GridSpec(enodes=8), [True, True]),
    "decoupled22-one": (DECOUPLED22, [-3.0, 0.5], 4, GridSpec(enodes=8), [True, False]),
    "rotated22-none": (ROTATED22, [1.0, 0.4], 4, GridSpec(enodes=8), [False, False]),
    "rotated22-one": (ROTATED22, [4.0, 2.0], 4, GridSpec(enodes=8), [False, True]),
    "rotated22-both": (ROTATED22, [6.0, -1.0], 4, GridSpec(enodes=8), [True, True]),
    # odd node counts: the quadrant holds the zero lines at weight 1/2
    "heis1-odd-unclipped": (HEIS1, [-0.7], 8, GridSpec(enodes=9), [False]),
    "heis1-odd-clipped": (HEIS1, [3.0], 8, GridSpec(enodes=15), [True]),
    "rotated22-odd": (ROTATED22, [4.0, 2.0], 4, GridSpec(enodes=9), [False, True]),
}


def layer_shifts(sd, degree, grid):
    """One layer's weighted shift table as a batch of one builds it on the
    layer's own clipped grid: (scale, im_sign, parts), W = scale (Re + i im_sign
    Im), with the four real parts (Re+, Re-, Im+, Im-) each (n, Q)."""
    halves = fock._half_widths(sd.eigenvalues, grid.ebox)
    pmask = quadrature.boundary_mask(fock._perp_rule(halves, grid.enodes)[0])
    batch = fock._Batch([sd], np.arange(1), degree, grid, halves, pmask, np.zeros((1, 2 * sd.d)))
    [(planes, *span)] = batch.runs
    assert span == [0, 1]
    count = fock._pair_order(sd.kdim, degree)[1]
    parts = tuple(plane[rows] for plane in planes for rows in (slice(count), slice(count, None)))
    return batch.scale[0], batch.im_sign[0], parts


def expand_quadrant(fb, shifts, num):
    """A layer's weighted shift matrices (P, B*B) on its whole tensor grid, from
    its tables on its first mode's quadrant (`layer_shifts`) through the two
    symmetries W(conj p) = conj W(p) and W(-p) = sigma W(p), with the zero
    lines of an odd rule put back at full weight."""
    scale, im_sign, (re_p, re_m, im_p, im_m) = shifts
    kdim, pairs = fb.sd.kdim, fb.size**2
    deg = fb.alphas.sum(axis=1)
    sigma = ((-1.0) ** (deg[:, None] - deg[None, :])).reshape(-1)
    order, count = fock._pair_order(kdim, fb.degree)[:2]
    assert (sigma[order[:count]] > 0).all() and (sigma[order[count:]] < 0).all()
    quad = np.empty((re_p.shape[1], pairs), complex)
    quad[:, order[:count]] = (re_p + 1j * im_sign * im_p).T
    quad[:, order[count:]] = (re_m + 1j * im_sign * im_m).T
    half, side = num // 2, num - num // 2
    quad = scale * quad.reshape((side, side) + (num,) * (2 * kdim - 2) + (pairs,))
    if num % 2:
        quad[0] *= 2.0
        quad[:, 0] *= 2.0
    full = np.empty((num,) * (2 * kdim) + (pairs,), complex)
    re, im = tuple(range(0, 2 * kdim, 2)), tuple(range(1, 2 * kdim, 2))
    for axes, value in (((), quad), (im, np.conj(quad)), (re + im, sigma * quad),
                        (re, sigma * np.conj(quad))):
        np.flip(full, axes)[half:, half:] = value
    return full.reshape(-1, pairs)


@pytest.mark.parametrize("case", sorted(SHIFT_TABLE_CASES))
def test_weighted_shifts_match_the_per_point_path(case):
    # the per-mode tables on the first mode's quadrant, multiplied out over the
    # tensor grid and expanded onto all of it, against the shift matrices built
    # point by point from each point's w coordinates
    model, lam, degree, grid, clip = SHIFT_TABLE_CASES[case]
    sd = spectral_data(model, np.array(lam))
    fb = fock_basis(sd, degree)
    halves = fock._half_widths(sd.eigenvalues, grid.ebox)
    assert [s < grid.ebox for s in halves] == clip
    if case.startswith("rotated22"):
        assert (sd.eigenvalues < 0).any() and (np.abs(sd.eigenvectors) > 0.1).all()
    pn, pw = fock._perp_rule(halves, grid.enodes)
    zperp = pn @ sd.eigenvectors.T
    want = fock._shift_matrices(fb, sd.w_coords(zperp)).reshape(zperp.shape[0], -1)
    want *= pw[:, None]
    shifts = layer_shifts(sd, degree, grid)
    side = -(-grid.enodes // 2)
    assert all(part.shape[1] == side**2 * grid.enodes ** (2 * sd.kdim - 2)
               and not part.flags.writeable for part in shifts[2])
    got = expand_quadrant(fb, shifts, grid.enodes)
    assert got.shape == want.shape == (grid.enodes ** (2 * sd.kdim), fb.size**2)
    assert (np.abs(got - want) <= 1e-13 * np.abs(want).max()).all()


def test_clipped_layers_share_one_shift_table(monkeypatch):
    # 41 HEIS1 layers on [-8, 8]: the clip bites past |lam| = 1.25 on ebox 4,
    # on both signs; one table is built, and every clipped layer of either
    # sign reads that one cached entry, the negative ones with Im negated.
    # The unclipped layers build theirs together, each on the ceil(13/2)^2 =
    # 49 nodes of its quadrant, not on all 169
    grid = GridSpec(ebox=4.0, enodes=13, fbox=4.0, fnodes=16)
    cfg = PlancherelConfig(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=41, degree=4, grid=grid)
    calls, read, batches = [], [], []
    blocks, clip, run_batch = fock._mode_blocks, fock._clip_factor, fock._run_layers

    def spy(mu, wz, degree):
        calls.append(np.broadcast(mu, wz).shape)
        return blocks(mu, wz, degree)

    def spy_clip(enodes, degree):
        read.append(clip(enodes, degree))
        return read[-1]

    def spy_batch(f, sds, *args):
        for batch in run_batch(f, sds, *args):
            batches.append(batch[0])
            yield batch

    monkeypatch.setattr(fock, "_mode_blocks", spy)
    monkeypatch.setattr(fock, "_clip_factor", spy_clip)
    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    fock._clip_table.cache_clear()
    rep = plancherel_residual(HEIS1, gaussian_function(HEIS1, grid), cfg)
    monkeypatch.undo()
    lams = np.array([row[0][0] for row in rep.rows])
    unclipped = int(np.sum(np.sqrt(fock.PHI_CUT / (2.0 * np.abs(lams))) >= grid.ebox))
    assert len(rep.rows) == 41 and 0 < unclipped < 41
    assert (lams < -1.25).any() and (lams > 1.25).any()
    assert sorted(calls) == sorted([(49,), (unclipped, 49)])
    [batch] = batches
    shared = fock._clip_factor(13, 4)
    assert fock._clip_table.cache_info().currsize == 1
    assert read and all(table is shared for table in read)
    assert not shared.flags.writeable
    # the clipped layers come first and take their own sign after the GEMM,
    # the others none
    s = 41 - unclipped
    signs = np.sign(batch.lams[:, 0])
    assert (np.abs(batch.lams[:s]) > 1.25).all() and (np.abs(batch.lams[s:]) < 1.25).all()
    assert (signs[:s] > 0).any() and (signs[:s] < 0).any()
    assert np.array_equal(batch.im_sign[:s], signs[:s])
    assert (batch.im_sign[s:] == 1.0).all()

    # the memo stays bounded: at most four read-only entries, the least
    # recently used dropped first, and none past the batch budget; a quadrant
    # of 8 nodes is 16 points, B^2 = 25 pairs, Re and Im
    built = []
    factor = fock._mode_factor

    def spy_factor(*args):
        built.append(args[-1])
        return factor(*args)

    monkeypatch.setattr(fock, "_mode_factor", spy_factor)
    fock._clip_table.cache_clear()
    for enodes in (4, 5, 6, 7, 8):
        fock._clip_factor(enodes, 4)
    assert fock._clip_table.cache_info().currsize == 4
    built.clear()
    for enodes in (5, 6, 7, 8, 4):
        fock._clip_factor(enodes, 4)
    assert built == [4]
    monkeypatch.setattr(fock, "BATCH_STATE_BYTES", 16 * 25 * 8 * 2 - 1)
    fock._clip_table.cache_clear()
    built.clear()
    big = fock._clip_factor(8, 4)
    assert big.nbytes == 16 * 25 * 8 * 2 and not big.flags.writeable
    assert fock._clip_factor(8, 4) is not big and built == [8, 8]
    assert fock._clip_table.cache_info().currsize == 0
    monkeypatch.undo()


def test_both_tables_keep_one_pair_order(monkeypatch):
    # the 41-layer HEIS1 batch above: its runs cover its layers once, in
    # order, the shared clip table's first, then one run a layer, each a view
    # of one owned table equal to `_mode_factor` at its layer's scaled
    # eigenvalue.  Every run's table is a read-only (2, B^2, Q) array with
    # the sigma = +1 pairs first, the rows of the per-point shift matrices in
    # the basis's order, weighted and permuted; the runs are dropped after
    # the last chunk, and share(i) puts each layer's pi(f) back in the
    # basis's order: the radial gaussian and the square grid keep the
    # quarter turns w -> i w, so entry [a, b] vanishes unless 4 divides a - b
    grid = GridSpec(ebox=4.0, enodes=13, fbox=4.0, fnodes=16)
    cfg = PlancherelConfig(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=41, degree=4, grid=grid)
    seen, batches = [], []
    add, run_batch = fock._Batch.add, fock._run_layers

    def spy_add(self, *args):
        seen.append(list(self.runs))
        return add(self, *args)

    def spy_batch(f, sds, *args):
        for batch in run_batch(f, sds, *args):
            batches.append(batch[0])
            yield batch

    monkeypatch.setattr(fock._Batch, "add", spy_add)
    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    plancherel_residual(HEIS1, gaussian_function(HEIS1, grid), cfg)
    monkeypatch.undo()
    [batch] = batches
    [runs] = seen
    assert batch.runs == []
    (shared, _, s), owned = runs[0], runs[1:]
    side, pairs = 25, 7**2
    assert 0 < s < 41
    assert [run[1:] for run in runs] == [(0, s)] + [(i, i + 1) for i in range(s, 41)]
    assert shared is fock._clip_factor(grid.enodes, 4)
    base = owned[0][0].base
    assert base.shape == (2, side, 41 - s, pairs)
    assert all(table.base is base for table, _, _ in owned)
    assert all(table.shape == (2, side, pairs) and not table.flags.writeable
               for table, _, _ in runs)

    order, count, back = fock._pair_order(1, 4)
    assert not (order.flags.writeable or back.flags.writeable)
    a = np.arange(5)
    sigma = ((-1.0) ** (a[:, None] - a[None, :])).reshape(-1)
    assert count == 13
    assert (sigma[order[:count]] == 1).all() and (sigma[order[count:]] == -1).all()
    assert np.array_equal(order[back], np.arange(side))
    # each table's rows against the shift matrices on the quadrant's
    # reference nodes at its scaled eigenvalue, in the basis's order
    nodes, w = fock._quadrant(quadrature._reference_rule(grid.enodes))

    def rows(mu):
        fb = fock_basis(spectral_data(HEIS1, np.array([mu])), 4)
        table = fock._shift_matrices(fb, nodes[:, None]).reshape(pairs, side).T * w
        return np.stack([table.real, table.imag])[:, order]

    assert np.allclose(shared, rows(fock.PHI_CUT / 2), rtol=0.0, atol=1e-15)
    for table, lo, _ in owned:
        eig = spectral_data(HEIS1, batch.lams[lo]).eigenvalues[0]
        mu = abs(eig) * grid.ebox * grid.ebox
        want = rows(mu)
        want[1] *= np.sign(eig)
        assert np.allclose(table, want, rtol=0.0, atol=1e-15)
        want = fock._mode_factor(1, 4, 0, mu, grid.enodes)
        want[1] *= np.sign(eig)
        assert np.array_equal(table, want)

    for i in range(41):
        got = batch.share(i)
        assert np.array_equal(got[:, order], batch.acc[i])
        mat = np.abs(got.reshape(5, 5))
        turns = (a[:, None] - a[None, :]) % 4 == 0
        assert mat[~turns].max() <= 1e-12 * mat.max() and (np.diag(mat) > 0).all()


def test_memoized_rules_and_tables_are_safe():
    # each rule has the bits of a fresh solve, the memo is read-only, and it
    # hands out no array a caller could write into it through
    for num in (2, 24, 768):
        x, w = np.polynomial.legendre.leggauss(num)
        for lo, hi in ((-1.0, 1.0), (-4.0, 4.0), (0.3, 2.9), (-160.0, 160.0)):
            half = 0.5 * (hi - lo)
            nodes, weights = gauss_legendre(num, lo, hi)
            assert np.array_equal(nodes, lo + half * (x + 1.0))
            assert np.array_equal(weights, half * w)
        ref = quadrature._reference_rule(num)
        assert not any(a.flags.writeable for a in ref)
    first = gauss_legendre(24, -4.0, 4.0)
    want = [a.copy() for a in first]
    for a in first:
        a[:] = np.nan
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(24, -4.0, 4.0), want))

    grid = GridSpec(enodes=12)
    for lam in (3.0, -3.0, 0.7):
        sd = spectral_data(HEIS1, np.array([lam]))
        first = layer_shifts(sd, 6, grid)[2]
        want = [part.copy() for part in first]
        # every layer's arrays are read-only; a clipped layer's are the memo's
        for part in first:
            with pytest.raises(ValueError):
                part[:] = np.nan
        again = layer_shifts(sd, 6, grid)[2]
        assert all(np.array_equal(a, b) for a, b in zip(again, want))
        table = fock._clip_factor(12, 6)
        assert not table.flags.writeable and fock._clip_factor(12, 6) is table
        assert all(np.shares_memory(part, table) == (lam != 0.7) for part in first)


def test_no_layer_builds_a_gauss_rule(monkeypatch):
    # a pass builds its lambda panels, its tau rule and each frame's source,
    # radical and central rules; every layer reads the reference rule, so the
    # count does not grow with the layers
    calls = []

    def spy(*args):
        calls.append(args)
        return gauss_legendre(*args)

    for module in (quadrature, fock, functions):
        monkeypatch.setattr(module, "gauss_legendre", spy)
    heis1 = gaussian_function(HEIS1, GridSpec(enodes=16))
    grid = GridSpec(ebox=3.5, enodes=12, fbox=4.5, fnodes=24)
    deg21 = SampledFunction(DEG21, lambda z, x: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)
                                                       - np.sum(x**2, axis=-1)), grid)
    cases = [(HEIS1, heis1, dict(lam_lo=[-8.0], lam_hi=[8.0], degree=4), (9, 41)),
             (DEG21, deg21, dict(lam_lo=[-10.0], lam_hi=[10.0], degree=4, tau_nodes=6, grid=grid),
              (7, 21))]
    for model, f, kw, layer_counts in cases:
        built = []
        for lam_nodes in layer_counts:
            calls.clear()
            rep = plancherel_residual(model, f, PlancherelConfig(lam_nodes=lam_nodes, **kw))
            assert len(rep.rows) == lam_nodes
            built.append(len(calls))
        assert built[0] == built[1], built


def test_a_batch_makes_the_same_calls_at_any_layer_count(monkeypatch):
    # a batch runs its layers stacked: per batch one owned-table build and one
    # clip-table build (its memo is cleared before each pass), and one fold a
    # radical chunk, however many layers it holds
    counts = dict.fromkeys(["_mode_blocks", "_fold", "batches", "chunks"], 0)
    for name in ("_mode_blocks", "_fold"):
        def spy(*args, real=getattr(fock, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(fock, name, spy)
    run_batch, build = fock._run_layers, fock._central_transform

    def spy_batch(f, sds, *args):
        for batch in run_batch(f, sds, *args):
            counts["batches"] += 1
            yield batch

    def spy_sample(*args):
        transform = build(*args)

        def counted(z, out=None):
            counts["chunks"] += 1
            return transform(z, out)

        return counted

    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    monkeypatch.setattr(fock, "_central_transform", spy_sample)
    heis1 = gaussian_function(HEIS1, GridSpec(enodes=16))
    grid = GridSpec(ebox=3.5, enodes=12, fbox=4.5, fnodes=24)
    deg21 = SampledFunction(DEG21, lambda z, x: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)
                                                       - np.sum(x**2, axis=-1)), grid)
    cases = [(HEIS1, heis1, dict(lam_lo=[-8.0], lam_hi=[8.0], degree=4), (9, 41)),
             (DEG21, deg21, dict(lam_lo=[-10.0], lam_hi=[10.0], degree=4, tau_nodes=6, grid=grid),
              (7, 21))]
    for model, f, kw, layer_counts in cases:
        per_batch = []
        for lam_nodes in layer_counts:
            counts.update(dict.fromkeys(counts, 0))
            fock._clip_table.cache_clear()
            rep = plancherel_residual(model, f, PlancherelConfig(lam_nodes=lam_nodes, **kw))
            assert len(rep.rows) == lam_nodes
            assert counts["_fold"] == counts["chunks"] > 0
            per_batch.append(counts["_mode_blocks"] / counts["batches"])
        assert per_batch[0] == per_batch[1] == 2, per_batch


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
    # in a batch only a layer with a clipped axis takes a matrix, and it comes
    # first; a batch of unclipped layers interpolates nothing
    grid = GridSpec()
    taus = np.zeros((1, 0))
    pmask = quadrature.boundary_mask(fock._perp_rule([grid.ebox], grid.enodes)[0])
    sds = [spectral_data(HEIS1, np.array([lam])) for lam in (0.5, 8.0)]
    batch = fock._Batch(sds, np.arange(2), 4, grid, [grid.ebox], pmask, taus)
    assert list(batch.index) == [1, 0] and batch.mats.shape == (1, 1, 40, 40)
    assert fock._Batch(sds, np.arange(1), 4, grid, [grid.ebox], pmask, taus).mats is None


def test_interpolate_applies_each_layers_matrices_on_every_axis():
    # one matrix per layer and mode, along both real axes of the mode, written
    # over its own input; against the tensor contraction, on two modes
    rng = np.random.default_rng(5)
    num, L, X = 6, 3, 2
    mats = rng.standard_normal((L, 2, num, num))
    fhat = rng.standard_normal((L, num**4, X)) + 1j * rng.standard_normal((L, num**4, X))
    grid = fhat.reshape(L, num, num, num, num, X)
    want = np.einsum("lai,lbj,lck,ldm,lijkmx->labcdx", mats[:, 0], mats[:, 0], mats[:, 1],
                     mats[:, 1], grid).reshape(fhat.shape)
    fock._interpolate(fhat, mats, out=fhat)
    assert np.abs(fhat - want).max() <= 1e-13 * np.abs(want).max()


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

    lambdas = g.spectral.lambdas  # (J, m)
    fhat, _, _ = sampled_fhat(f, zq, lambdas, grid)  # (Q, J)
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
    return SampledFunction(model, form, grid, spectral=form)


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

    return SampledFunction(model, ev, grid)


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


def random_amp(rng, count):
    return rng.uniform(0.5, 1.5, count) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def stripped(f):
    """f with its ground form stripped: the same coefficients as a plain form."""
    plain = SpectralForm(f.spectral.lambdas, lambda z: f.spectral.coeff(z))
    return SampledFunction(f.model, plain, f.grid, spectral=plain)


def closed_form_gap(model, mus, lambdas, grid, z):
    """Largest gap between the closed form and the q-sum of the same pair,
    entry by entry, relative to each frequency's largest coefficient."""
    rng = np.random.default_rng(17)
    f = ground_kernel(model, mus, random_amp(rng, len(mus)), grid)
    g = ground_kernel(model, lambdas, random_amp(rng, len(lambdas)), grid)
    h = group_convolve(f, g)
    assert h.spectral.amp is not None
    got = h.spectral.coeff(z)
    want = group_convolve(stripped(f), g).spectral.coeff(z)
    return float((np.abs(got - want) / np.abs(want).max(axis=0)).max())


def test_group_convolve_closes_ground_pairs_heis1():
    # the q-sum converges on the closed form as its nodes grow
    z = box_points(np.random.default_rng(4), 200, 1, 1.0)
    gaps = [closed_form_gap(HEIS1, np.linspace(1.0, 2.0, 9)[:, None],
                            np.linspace(1.0, 2.0, 7)[:, None],
                            GridSpec(ebox=4.0, enodes=nodes, fbox=5.0, fnodes=20), z)
            for nodes in (32, 48, 64)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-11


def test_group_convolve_closes_ground_pairs_pair22():
    # the kernel has a frequency with a negative component; every sum with
    # f's frequencies still lies inside the positivity cone
    z = box_points(np.random.default_rng(4), 20, 2, 1.0)
    mus = np.array([[1.2, 0.3], [0.5, 0.8], [1.0, 1.0]])
    lambdas = np.array([[1.2, -0.3], [0.5, 0.8], [1.0, 1.0]])
    gaps = [closed_form_gap(PAIR22, mus, lambdas,
                            GridSpec(ebox=3.5, enodes=nodes, fbox=4.0, fnodes=10), z)
            for nodes in (12, 16, 20, 24, 32)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-5


def test_group_convolve_of_ground_pair_builds_nothing(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(num):
        built.append(int(num))
        return leggauss(num)

    def refusing(form):
        @functools.wraps(form.coeff)
        def coeff(z):
            raise AssertionError("a coefficient was evaluated")

        return dataclasses.replace(form, coeff=coeff)

    grid = GridSpec(ebox=4.0, enodes=24, fbox=5.0, fnodes=20)
    rng = np.random.default_rng(8)
    f = ground_kernel(HEIS1, [[1.1], [1.6]], random_amp(rng, 2), grid)
    g = ground_kernel(HEIS1, [[1.3], [1.9], [1.5]], random_amp(rng, 3), grid)
    f.spectral, g.spectral = refusing(f.spectral), refusing(g.spectral)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    h = group_convolve(f, g)
    assert built == []
    monkeypatch.undo()
    # the result is a ground form on g's frequencies, so it is a kernel again
    assert np.array_equal(h.spectral.lambdas, g.spectral.lambdas)
    assert h.spectral.amp is not None
    again = group_convolve(gaussian_function(HEIS1, grid), h)
    assert np.isfinite(again.spectral.coeff(np.array([[0.3 + 0.2j]]))).all()


def test_group_convolve_falls_back_to_the_q_sum():
    grid = GridSpec(ebox=3.0, enodes=12, fbox=4.0, fnodes=12)
    rng = np.random.default_rng(9)
    z1 = box_points(rng, 30, 1, 1.0)
    z2 = box_points(rng, 30, 2, 1.0)
    g1 = ground_kernel(HEIS1, [[1.2], [0.7]], random_amp(rng, 2), grid)
    g2 = ground_kernel(DEG21, [[1.2], [0.7]], random_amp(rng, 2), grid)
    ground = ground_kernel(HEIS1, [[1.0], [1.5]], random_amp(rng, 2), grid)
    cases = [
        # a sampled f and a plain spectral f
        (gaussian_function(HEIS1, grid), g1, z1),
        (stripped(ground), g1, z1),
        # a ground f on a degenerate model: every sum has d = 1
        (ground_kernel(DEG21, [[1.0], [1.5]], random_amp(rng, 2), grid), g2, z2),
        # one sum, -0.8 + 0.7, lies outside the positivity cone
        (ground_kernel(HEIS1, [[1.0], [-0.8]], random_amp(rng, 2), grid), g1, z1),
    ]
    for f, g, z in cases:
        h = group_convolve(f, g)
        assert h.spectral.amp is None
        plain = stripped(f) if f.spectral is not None else SampledFunction(
            f.model, lambda z, x: f(z, x), f.grid)
        assert np.array_equal(h.spectral.coeff(z), group_convolve(plain, g).spectral.coeff(z))


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
    # odd nodes, one batch: owned unclipped layers beside shared clipped ones
    # of both signs (13 nodes interpolate too coarsely for degree 6: 1.8e-2)
    "heis1-odd": (HEIS1, GridSpec(ebox=4.0, enodes=21, fbox=5.0, fnodes=24),
                  dict(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=41, degree=6), None, 1),
}


@pytest.mark.parametrize("case", sorted(PLANCHEREL_CASES))
def test_plancherel_layers_match_per_layer_oracle(case, monkeypatch):
    model, grid, kw, width, batches = PLANCHEREL_CASES[case]
    cfg = PlancherelConfig(grid=grid, **kw)
    if case == "deg21":
        # batches of 3, 2 and 2 layers (B^2 = 25, T = 16, P = R = 144): each
        # layer keeps 16 * 25 * (16 + 144) bytes, and a chunk holds 144
        # source points a radical point, 16 bytes for each of their n = 2
        # coordinates and for each of the four complex arrays a layer holds
        # on them (its fhat, the fold's buffer and sums, and the fhat the
        # worker fills meanwhile); the budget leaves three layers chunks of 2
        # radical points, two layers 5, and four layers none
        monkeypatch.setattr(fock, "BATCH_STATE_BYTES",
                            3 * 16 * 25 * (16 + 144) + 16 * 144 * (3 + 2) * 6)
    budget = fock.BATCH_STATE_BYTES
    seen, stacks, radical, sources = [], [], [], []
    run_batch, build, rule = fock._run_layers, fock._central_transform, fock._perp_rule
    kdim = model.n - generic_dimension(model)
    perp = grid.enodes ** (2 * kdim)

    def spy_rule(halves, enodes):
        # only the runner builds a rule, the source's; a layer builds none
        sources.append(halves == [grid.ebox] * kdim)
        return rule(halves, enodes)

    def spy_batch(f, sds, *args):
        for batch in run_batch(f, sds, *args):
            seen.append(len(batch[0]))
            stacks.append(batch[0])
            yield batch

    def spy_sample(*args):
        transform = build(*args)

        def counted(z, out=None):
            # the runner samples perp x radical-chunk points at a time
            radical.append(z.shape[0] // perp)
            return transform(z, out)

        return counted

    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    monkeypatch.setattr(fock, "_central_transform", spy_sample)
    monkeypatch.setattr(fock, "_perp_rule", spy_rule)
    points = []
    f = counted_gaussian(model, grid, points, width)
    rep = plancherel_residual(model, f, cfg)
    monkeypatch.undo()
    assert len(seen) == batches and sum(seen) == len(rep.rows)
    # f is sampled once per batch, never per layer; the norm reads the first
    # batch's samples
    assert sum(points) == batches * grid.enodes ** (2 * model.n) * grid.fnodes ** model.m
    # the source grid is built once per frame, not once per batch
    frames = {(sd.eigenvectors.tobytes(), sd.radical.tobytes())
              for sd in (spectral_data(model, row[0]) for row in rep.rows)}
    assert all(sources) and len(sources) == len(frames)
    if case == "deg21":
        assert sorted(seen) == [2, 2, 3] and len(radical) == 72 + 29 + 29 and max(radical) == 5
        assert len(frames) == 1  # DEG21's layers of both signs share e_1: one frame, 3 batches
        # the plan: as many layers a batch as fit the budget with a chunk of
        # one radical point, and each batch's chunk from what its layers leave
        P, R, n, kept = 144, 144, 2, 16 * 25 * (16 + 144)
        assert (budget - 16 * P * n) // (kept + 4 * 16 * P) == max(seen) == 3
        steps = [(budget - L * kept) // (16 * P * (4 * L + n)) for L in seen]
        assert radical == [min(step, R - lo) for step in steps for lo in range(0, R, step)]
    if case == "heis1-odd":
        [batch] = stacks
        # the clipped layers come first and take their own signs, the others none
        eig = np.array([spectral_data(model, lam).eigenvalues for lam in batch.lams])
        clipped = fock._half_widths(eig, grid.ebox)[:, 0] < grid.ebox
        s = int(clipped.sum())
        signs = np.sign(eig[:s, 0])
        assert 0 < s < len(batch) and clipped[:s].all()
        assert (signs > 0).any() and (signs < 0).any()
        assert np.array_equal(batch.im_sign, np.concatenate([signs, np.ones(len(batch) - s)]))

    erule = grid.e_rule()
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
        fhat = sampled_fhat(f, z.reshape(-1, model.n), lam[None, :], grid)[0][:, 0]
        mass = float(np.outer(pw, rw).reshape(-1) @ np.abs(fhat) ** 2) / (2 * np.pi) ** model.m
        assert abs(captured - rep.constant * pf * layer / mass) <= 1e-12 * captured
    # clipped layers differ by the error of interpolating fhat onto the
    # clipped nodes; on these coarse grids (10 to 24 nodes) it reads 1.0e-5
    # (heis1) to 5.9e-4 (decoupled22)
    assert 0 < len(clipped) < len(rep.rows)
    assert max(clipped) <= 1e-3


def test_an_m1_frame_holds_every_layer_of_one_sign():
    # eigh(lam A) on this non-diagonal A returns eigenvectors that differ in
    # the last bits from one lam to the next; spectral_data scales the
    # eigenpairs of A instead, so the 5 negative and the 5 positive layers
    # make two frames and f is sampled once per frame
    model = ROTATED_M1
    grid = GridSpec(ebox=3.0, enodes=8, fbox=4.0, fnodes=12)
    cfg = PlancherelConfig(lam_lo=[-4.0], lam_hi=[4.0], lam_nodes=10, degree=2, grid=grid)
    points = []
    rep = plancherel_residual(model, counted_gaussian(model, grid, points), cfg)
    assert len(rep.rows) == 10
    assert sum(points) == 2 * grid.enodes ** (2 * model.n) * grid.fnodes
    # the eigenpairs are still those of A(lam) itself
    for lam, _, _, _ in rep.rows:
        sd = spectral_data(model, lam)
        alam = model.a_matrix(lam)
        assert np.all(np.diff(sd.eigenvalues) > 0)
        assert np.allclose(alam @ sd.eigenvectors, sd.eigenvectors * sd.eigenvalues, atol=1e-14)


# model, grid, config and width of the counted gaussian (None: complex samples)
ONE_SAMPLING_CASES = {
    "heis1": PLANCHEREL_CASES["heis1"][:4],
    "deg21": PLANCHEREL_CASES["deg21"][:4],
    "rotated-m1": (ROTATED_M1, GridSpec(ebox=3.0, enodes=8, fbox=4.0, fnodes=12),
                   dict(lam_lo=[-4.0], lam_hi=[4.0], lam_nodes=10, degree=2), 2.0),
}


@pytest.mark.parametrize("case", sorted(ONE_SAMPLING_CASES))
def test_plancherel_samples_f_once_per_batch(case, monkeypatch):
    # the lhs is read off the first batch's samples, so f is evaluated once
    # per batch, in chunks of at most CHUNK_ELEMENTS samples, and the lhs is
    # the norm on the box: the frame's grid is the box's, turned by a unitary
    # on the rotated model, and the gaussian depends on |z| alone
    model, grid, kw, width = ONE_SAMPLING_CASES[case]
    seen = []
    run_batch = fock._run_layers

    def spy_batch(f, sds, *args):
        for batch in run_batch(f, sds, *args):
            seen.append(len(batch[0]))
            yield batch

    monkeypatch.setattr(fock, "_run_layers", spy_batch)
    points = []
    f = counted_gaussian(model, grid, points, width)
    rep = plancherel_residual(model, f, PlancherelConfig(grid=grid, **kw))
    monkeypatch.undo()
    assert len(seen) >= 1 and sum(seen) == len(rep.rows)
    assert sum(points) == len(seen) * grid.enodes ** (2 * model.n) * grid.fnodes ** model.m
    assert max(points) <= CHUNK_ELEMENTS
    norm_sq = l2_norm(f, grid) ** 2
    assert abs(rep.lhs - norm_sq) <= 1e-13 * norm_sq


# DEG21 on 144 source and 144 radical points, and budgets that cut its frames
# into radical chunks of 40 points (40, 40, 40, 24): pi_of_f_batch's one
# layer (B^2 = 49, T = 3) and plancherel_residual's seven layers in one batch
# (B^2 = 25, T = 16), each keeping its state and holding four complex arrays
# a source point of a chunk (see test_plancherel_layers_match_per_layer_oracle)
CHUNKED_GRID = GridSpec(ebox=2.5, enodes=12, fbox=3.0, fnodes=24)
CHUNKED_TAUS = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]])
CHUNKED_CFG = PlancherelConfig(lam_lo=[-10.0], lam_hi=[10.0], lam_nodes=7, degree=4,
                               tau_nodes=4, grid=CHUNKED_GRID)
CHUNKED_BUDGETS = {"pi_of_f_batch": 16 * 49 * (3 + 144) + 16 * 144 * (4 * 1 + 2) * 40,
                   "plancherel": 7 * 16 * 25 * (16 + 144) + 16 * 144 * (4 * 7 + 2) * 40}


def thread_recording(f, threads):
    """f, whose evaluator appends the thread of each call to threads."""

    def ev(z, x):
        threads.append(threading.current_thread())
        return f.evaluate(z, x)

    return dataclasses.replace(f, evaluate=ev)


def test_a_chunked_frame_matches_one_chunk(monkeypatch):
    # later chunks are sampled on the worker while the batch takes the
    # current one; every entry, row and side agrees with a run whose frame is
    # one chunk (a budget of 2^40 bytes), sampled on the calling thread
    fb = fock_basis(spectral_data(DEG21, np.array([1.1])), 6)
    runs = {}
    for budget in ("chunked", "one"):
        threads, chunks = [], []
        f = thread_recording(off_centre_gaussian(DEG21, CHUNKED_GRID), threads)
        build = fock._central_transform

        def spy(*args):
            transform = build(*args)

            def counted(z, out=None):
                chunks.append(z.shape[0] // 144)
                return transform(z, out)

            return counted

        monkeypatch.setattr(fock, "_central_transform", spy)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads take turns as often as they can
        try:
            for name, run in (("pi_of_f_batch", lambda: pi_of_f_batch(fb, f, taus=CHUNKED_TAUS)[0]),
                              ("plancherel", lambda: plancherel_residual(DEG21, f, CHUNKED_CFG))):
                monkeypatch.setattr(fock, "BATCH_STATE_BYTES",
                                    CHUNKED_BUDGETS[name] if budget == "chunked" else 2**40)
                got.append(run())
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        on_main = {t is threading.main_thread() for t in threads}
        if budget == "chunked":
            assert chunks == [40, 40, 40, 24] * 2 and on_main == {True, False}
        else:
            assert chunks == [144, 144] and on_main == {True}
        runs[budget] = got
    (mat, rep), (want, want_rep) = runs["chunked"], runs["one"]
    assert (np.abs(mat - want) <= 1e-13 * np.abs(want).max()).all()
    assert len(rep.rows) == len(want_rep.rows) == 7 and rep.warnings == want_rep.warnings
    for row, want_row in zip(rep.rows, want_rep.rows):
        assert np.array_equal(row[0], want_row[0])
        assert abs(row[2] - want_row[2]) <= 1e-13 * want_row[2]
        assert abs(row[3] - want_row[3]) <= 1e-13 * want_row[3]
    for side in ("lhs", "rhs"):
        assert abs(getattr(rep, side) - getattr(want_rep, side)) <= 1e-13 * getattr(want_rep, side)


class _ChunkFailure(Exception):
    pass


def test_an_error_on_a_later_chunk_reaches_the_caller(monkeypatch):
    # f fails once it is past the first chunk's 40 * 144 points, on the
    # worker: the caller gets f's own exception, and no thread is left behind
    monkeypatch.setattr(fock, "BATCH_STATE_BYTES", CHUNKED_BUDGETS["pi_of_f_batch"])
    failure, seen = _ChunkFailure("past the first chunk"), []
    base = off_centre_gaussian(DEG21, CHUNKED_GRID)

    def ev(z, x):
        seen.append(z.shape[0])
        if sum(seen) > 40 * 144:
            raise failure
        return base.evaluate(z, x)

    fb = fock_basis(spectral_data(DEG21, np.array([1.1])), 6)
    before = threading.active_count()
    with pytest.raises(_ChunkFailure) as info:
        pi_of_f_batch(fb, dataclasses.replace(base, evaluate=ev), taus=CHUNKED_TAUS)
    assert info.value is failure
    assert threading.active_count() == before


def test_a_one_chunk_frame_samples_on_the_calling_thread():
    # a frame with no second chunk starts no thread: d = 0 has one radical
    # point, and the default budget takes the small DEG21 frame whole
    threads = []
    heis1 = thread_recording(gaussian_function(HEIS1, GridSpec(enodes=16)), threads)
    deg21 = thread_recording(off_centre_gaussian(DEG21, CHUNKED_GRID), threads)
    before = threading.active_count()
    pi_of_f_batch(fock_basis(spectral_data(HEIS1, np.array([0.7])), 4), heis1)
    plancherel_residual(HEIS1, heis1, PlancherelConfig(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=5,
                                                       degree=4))
    pi_of_f_batch(fock_basis(spectral_data(DEG21, np.array([1.1])), 6), deg21, taus=CHUNKED_TAUS)
    plancherel_residual(DEG21, deg21, CHUNKED_CFG)
    assert threads and all(t is threading.main_thread() for t in threads)
    assert threading.active_count() == before


def test_later_chunks_keep_the_callers_error_state(monkeypatch):
    # f overflows on every chunk but the first, which the worker samples: the
    # caller's np.errstate(over="raise") holds there, so the overflow raises
    monkeypatch.setattr(fock, "BATCH_STATE_BYTES", CHUNKED_BUDGETS["pi_of_f_batch"])
    seen = []
    base = off_centre_gaussian(DEG21, CHUNKED_GRID)

    def ev(z, x):
        seen.append(z.shape[0])
        if sum(seen) > 40 * 144:
            np.exp(np.full(1, 800.0))
        return base.evaluate(z, x)

    fb = fock_basis(spectral_data(DEG21, np.array([1.1])), 6)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        pi_of_f_batch(fb, dataclasses.replace(base, evaluate=ev), taus=CHUNKED_TAUS)


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


def test_every_zeta_tail_warning_names_its_layer():
    # a zeta box too short for the gaussian: every layer's boundary carries
    # mass, the same share on lam and -lam, so each warning must say which
    # layer it is or the pairs merge
    grid = GridSpec(ebox=1.2, enodes=16, fbox=4.0)
    f = gaussian_function(HEIS1, grid)
    cfg = PlancherelConfig(lam_lo=[-8.0], lam_hi=[8.0], lam_nodes=12, degree=4)
    rep = plancherel_residual(HEIS1, f, cfg)
    zeta = [w for w in rep.warnings if "zeta-grid boundary" in w]
    assert len(rep.rows) == len(zeta) == 12
    for lam, *_ in rep.rows:
        named = f"layer lam = {np.array2string(lam, precision=4)}: zeta-grid boundary carries"
        assert sum(w.startswith(named) for w in zeta) == 1
    # one layer's pi(f), and forward_FN through it, name the layer too
    _, warns = pi_of_f_batch(fock_basis(spectral_data(HEIS1, np.array([0.5])), 4), f)
    assert any(w.startswith("layer lam = [0.5]: zeta-grid boundary carries") for w in warns)
    _, warns = forward_FN(f, [[0.5]], degree=4)
    assert any(w.startswith("layer lam = [0.5]: zeta-grid boundary carries") for w in warns)


def test_plancherel_skips_exceptional_layers():
    # A(lam) = lam_1 - lam_2 vanishes on the diagonal: those 6 product nodes
    # have a radical the generic layer lacks and are skipped, and the other
    # 30 rows come in lam-node order
    model = QuadraticModel(np.array([[[1.0]], [[-1.0]]], complex))
    grid = GridSpec(ebox=3.0, enodes=8, fbox=3.0, fnodes=8)
    cfg = PlancherelConfig(lam_lo=[-2.0, -2.0], lam_hi=[2.0, 2.0], lam_nodes=6, degree=2,
                           grid=grid)
    rep = plancherel_residual(model, gaussian_function(model, grid), cfg)
    nodes, _ = tensor_rule([quadrature.panel_gauss(6, -2.0, 2.0, cuts=(0.0,))] * 2)
    assert (nodes[:, 0] == nodes[:, 1]).sum() == 6
    assert rep.skipped == 6 and len(rep.rows) == 30
    lams = np.array([row[0] for row in rep.rows])
    assert not (lams[:, 0] == lams[:, 1]).any()
    assert np.array_equal(lams, nodes[nodes[:, 0] != nodes[:, 1]])


def test_l2_norm_chunks_match_the_materialised_rule():
    # 20736 zeta points against 2500 a chunk, summed exactly as the
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


def convolved_form(grid):
    # a spectral form that is not a ground form: a gaussian convolved with a
    # ground kernel
    lambdas = np.linspace(0.4, 2.0, 9)[:, None]
    amp = np.exp(1j * np.linspace(0.0, 3.0, 9))
    return group_convolve(gaussian_function(HEIS1, grid), ground_kernel(HEIS1, lambdas, amp, grid))


# model, grid (fnodes unused by the closed form), spectral function, and
# the x-nodes per coordinate that resolve |f|^2 on the sampled copy
L2_CASES = {
    "heis1-ground": (HEIS1, GridSpec(ebox=4.0, enodes=24, fbox=8.0, fnodes=37),
                     lambda g: inverse_FN(HEIS1, bump_profile(interval_body(1.2, 1.8), nodes=32),
                                          grid=g), 64),
    "heis1-convolved": (HEIS1, GridSpec(ebox=3.5, enodes=16, fbox=5.0, fnodes=37),
                        convolved_form, 64),
    "decoupled22": (DECOUPLED22, GridSpec(ebox=3.0, enodes=8, fbox=4.0, fnodes=37),
                    lambda g: ground_kernel(DECOUPLED22, [[1.0, 1.5], [0.6, 3.5], [3.0, 0.8]],
                                            [1.0, 0.5 - 0.5j, -0.7j], g), 40),
}


@pytest.mark.parametrize("case", sorted(L2_CASES))
def test_l2_norm_of_a_spectral_form_is_closed(case, monkeypatch):
    model, grid, build, xnodes = L2_CASES[case]
    f = build(grid)
    assert f.spectral is not None
    # the same form with its spectral form stripped is sampled on x-rules
    # that resolve |f|^2
    plain = SampledFunction(model, f.spectral, dataclasses.replace(grid, fnodes=xnodes))
    want = l2_norm(plain)
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(num):
        built.append(int(num))
        return leggauss(num)

    def raises(z, x):
        raise AssertionError("the closed form evaluates the function")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    quadrature._reference_rule.cache_clear()
    got = l2_norm(SampledFunction(model, raises, grid, spectral=f.spectral))
    monkeypatch.undo()
    assert built == [grid.enodes]  # the E rule, and no central rule
    assert abs(got - want) <= 1e-12 * want
    assert l2_norm(f) == got
