import numpy as np
import pytest

from quadric_cr.fock import eval_basis, fock_basis, rep_apply
from quadric_cr.model import QuadraticModel
from quadric_cr.rockland import (
    ladder_matrices,
    oscillator_sum,
    rockland_eigenvalue,
    rockland_matrix,
    rockland_spectrum,
)
from quadric_cr.spectral import spectral_data

HEIS1 = QuadraticModel(np.array([[[1.0]]], dtype=complex))
ZERO = QuadraticModel(np.zeros((1, 1, 1), dtype=complex))
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex))
PAIR22 = QuadraticModel(
    np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, -1.0j], [1.0j, 0.0]],
        ],
        dtype=complex,
    )
)


def test_heisenberg_ground_eigenvalues():
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 8)
    spec = rockland_spectrum(fb)
    assert np.allclose(spec.eigenvalues[:3], [5.0, 37.0, 101.0])
    # top degree is deflated by the truncation and dropped by default
    assert spec.eigenvalues.size == 8
    assert rockland_spectrum(fb, keep_untrusted=True).eigenvalues.size == 9
    assert np.allclose(spec.alphas[:3, 0], [0, 1, 2])


def test_closed_form_matches_matrix_entries():
    sd = spectral_data(PAIR22, np.array([0.7, -0.4]))
    fb = fock_basis(sd, 6)
    tau = np.zeros(0)
    mat = rockland_matrix(fb, tau)
    degrees = fb.alphas.sum(axis=1)
    for i in range(fb.size):
        if degrees[i] <= fb.degree - 1:
            assert abs(mat[i, i] - rockland_eigenvalue(sd, fb.alphas[i], tau)) < 1e-9


def test_oscillator_diagonal_value():
    sd = spectral_data(HEIS1, np.array([-2.0]))
    fb = fock_basis(sd, 5)
    m = oscillator_sum(fb)
    # exact diagonal -2 mu (1 + 2 alpha) below the truncation edge
    for a in range(5):
        assert abs(m[a, a] - (-2.0 * 2.0 * (1 + 2 * a))) < 1e-12


def test_tau_shift_enters_squared():
    lam = np.array([1.0])
    sd = spectral_data(DEG21, lam)
    fb = fock_basis(sd, 6)
    tau = np.array([1.5, -0.5])
    spec = rockland_spectrum(fb, tau)
    pred = [rockland_eigenvalue(sd, [a], tau) for a in range(6)]
    assert np.allclose(spec.eigenvalues[:6], sorted(pred), atol=1e-9)


def test_homogeneity_scaling():
    # (lam, tau) -> (t lam, sqrt(t) tau) multiplies the spectrum by t^2
    t = 2.3
    lam = np.array([0.9])
    tau = np.array([0.7, 0.2])
    sd1 = spectral_data(DEG21, lam)
    sd2 = spectral_data(DEG21, t * lam)
    a1 = rockland_eigenvalue(sd1, [3], tau)
    a2 = rockland_eigenvalue(sd2, [3], np.sqrt(t) * tau)
    assert abs(a2 - t**2 * a1) < 1e-9


def test_ladders_match_representation_derivative():
    # d/ds pi(s v)|_0 along an eigenvector direction is Z + Zbar, and along
    # i v it is -i (Zbar - Z); check by central differences of rep_apply
    sd = spectral_data(HEIS1, np.array([1.0]))
    fb = fock_basis(sd, 14)
    lower, raise_ = ladder_matrices(fb)
    h = 1e-5
    u = np.array([1.0 + 0.0j])
    fd_re = (
        rep_apply(fb, (h * u, np.zeros(1))) - rep_apply(fb, (-h * u, np.zeros(1)))
    ) / (2 * h)
    fd_im = (
        rep_apply(fb, (1j * h * u, np.zeros(1))) - rep_apply(fb, (-1j * h * u, np.zeros(1)))
    ) / (2 * h)
    blk = slice(0, 7)
    assert np.abs((fd_re - (lower[0] + raise_[0]))[blk, blk]).max() < 1e-7
    assert np.abs((fd_im - (-1j) * (raise_[0] - lower[0]))[blk, blk]).max() < 1e-7


def test_negative_mode_swaps_ladders():
    sd_pos = spectral_data(HEIS1, np.array([1.3]))
    sd_neg = spectral_data(HEIS1, np.array([-1.3]))
    lp, rp = ladder_matrices(fock_basis(sd_pos, 5))
    ln, rn = ladder_matrices(fock_basis(sd_neg, 5))
    assert np.allclose(ln[0], rp[0] * np.sign(-1), atol=0) or np.allclose(
        np.abs(ln[0]), np.abs(rp[0])
    )
    # the oscillator sum is insensitive to the swap
    assert np.allclose(
        oscillator_sum(fock_basis(sd_pos, 5)), oscillator_sum(fock_basis(sd_neg, 5))
    )


def test_spectrum_requires_diagonal():
    sd = spectral_data(PAIR22, np.array([1.0, 0.3]))
    fb = fock_basis(sd, 4)
    spec = rockland_spectrum(fb)
    assert (np.diff(spec.eigenvalues) >= -1e-12).all()


@pytest.mark.parametrize("degree", [0, 4])
def test_zero_model_layer_has_one_closed_form_eigenvalue(degree):
    # lam = 1.5 on the zero model: no perpendicular mode (kdim 0), d = 1,
    # and a one-element basis that no degree truncation touches
    sd = spectral_data(ZERO, np.array([1.5]))
    assert sd.kdim == 0 and sd.d == 1
    fb = fock_basis(sd, degree)
    tau = np.array([0.7, -0.2])
    for t in (None, tau):
        want = rockland_eigenvalue(sd, np.zeros(0, int), t)
        assert want == (0.0 if t is None else 0.5 * float(tau @ tau)) ** 2 + 2.25
        for keep in (False, True):
            spec = rockland_spectrum(fb, tau=t, keep_untrusted=keep)
            assert spec.eigenvalues.shape == (1,) and spec.alphas.shape == (1, 0)
            assert abs(spec.eigenvalues[0] - want) <= 1e-15 * want
    lower, raise_ = ladder_matrices(fb)
    assert lower.shape == raise_.shape == (0, 1, 1)
    w = np.zeros((3, 2, 0), complex)
    vals = eval_basis(fb, w)
    assert vals.shape == (3, 2, 1) and (vals == 1.0).all()
