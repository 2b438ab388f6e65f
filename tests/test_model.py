"""Group law, gauge, and CR field checks on small quadric models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from quadric_cr.model import (
    QuadraticModel,
    multiply,
    inverse,
    commutator,
    ambient_multiply,
    ambient_inverse,
    rho,
    dilate,
    apply_cr_field,
    apply_ambient_cr_field,
    central_slice,
)
from quadric_cr.spectral import spectral_data

HEIS1 = QuadraticModel(np.array([[[1.0]]]), name="heis1")
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]]), name="deg21")
# n = 2, m = 2, a nondegenerate pair of Hermitian forms
PAIR22 = QuadraticModel(
    np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, -1.0j], [1.0j, 0.0]],
        ]
    ),
    name="pair22",
)

coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def group_point(model, reals):
    it = iter(reals)
    z = np.array([next(it) + 1j * next(it) for _ in range(model.n)])
    x = np.array([next(it) for _ in range(model.m)])
    return z, x


def test_pairing_slots():
    # Phi(a, b) is linear in a and conjugate-linear in b.
    a = np.array([1.0 + 2.0j, -0.5j])
    b = np.array([0.5 - 1.0j, 2.0])
    lhs = PAIR22.phi_pair(2j * a, b)
    assert_allclose(lhs, 2j * PAIR22.phi_pair(a, b), atol=1e-14)
    lhs = PAIR22.phi_pair(a, 2j * b)
    assert_allclose(lhs, -2j * PAIR22.phi_pair(a, b), atol=1e-14)
    # Hermitian symmetry: Phi(b, a) = conj(Phi(a, b)), diagonal real.
    assert_allclose(PAIR22.phi_pair(b, a), np.conj(PAIR22.phi_pair(a, b)), atol=1e-14)
    assert_allclose(np.imag(PAIR22.phi(a)), 0.0, atol=1e-14)


def test_heisenberg_product_value():
    p = (np.array([1.0 + 0j]), np.array([0.0]))
    q = (np.array([1j]), np.array([0.0]))
    z, x = multiply(HEIS1, p, q)
    assert_allclose(z, np.array([1.0 + 1.0j]), atol=1e-14)
    assert_allclose(x, np.array([-2.0]), atol=1e-14)


def test_heisenberg_commutator_value():
    p = (np.array([1.0 + 0j]), np.array([0.0]))
    q = (np.array([1j]), np.array([0.0]))
    z, x = commutator(HEIS1, p, q)
    assert_allclose(z, np.array([0.0 + 0.0j]), atol=1e-14)
    assert_allclose(x, np.array([-4.0]), atol=1e-14)
    # commutators are central: the formula 4 Im Phi(z_p, z_q) matches
    assert_allclose(x, 4.0 * np.imag(HEIS1.phi_pair(p[0], q[0])), atol=1e-14)


def test_inverse_and_identity():
    p = (np.array([0.3 - 1.2j]), np.array([0.7]))
    e = (np.array([0.0j]), np.array([0.0]))
    z, x = multiply(HEIS1, p, inverse(HEIS1, p))
    assert_allclose(z, e[0], atol=1e-14)
    assert_allclose(x, e[1], atol=1e-14)
    z, x = multiply(HEIS1, inverse(HEIS1, p), p)
    assert_allclose(z, e[0], atol=1e-14)
    assert_allclose(x, e[1], atol=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(coords, min_size=18, max_size=18))
def test_associativity_pair22(reals):
    p = group_point(PAIR22, reals[0:6])
    q = group_point(PAIR22, reals[6:12])
    r = group_point(PAIR22, reals[12:18])
    left = multiply(PAIR22, multiply(PAIR22, p, q), r)
    right = multiply(PAIR22, p, multiply(PAIR22, q, r))
    assert_allclose(left[0], right[0], atol=1e-12)
    assert_allclose(left[1], right[1], atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(coords, min_size=12, max_size=12))
def test_center_is_central(reals):
    p = group_point(PAIR22, reals[0:6])
    c = (np.zeros(2, complex), np.array(reals[6:8]))
    assert_allclose(multiply(PAIR22, p, c)[1], multiply(PAIR22, c, p)[1], atol=1e-12)


def test_ambient_law_restricts_to_boundary_law():
    rng = np.random.default_rng(7)
    for _ in range(5):
        zp, zq = rng.standard_normal((2, 2)) @ np.array([1, 1j]) * 0.7, None
        zp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        zq = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xp, xq = rng.standard_normal(2), rng.standard_normal(2)
        lift = lambda z, x: (z, x + 1j * PAIR22.phi(z))
        z2, u2 = ambient_multiply(PAIR22, lift(zp, xp), lift(zq, xq))
        zb, xb = multiply(PAIR22, (zp, xp), (zq, xq))
        assert_allclose(z2, zb, atol=1e-12)
        assert_allclose(u2, xb + 1j * PAIR22.phi(zb), atol=1e-12)
        # lifted points sit on the boundary of the height gauge
        assert_allclose(rho(PAIR22, z2, u2), 0.0, atol=1e-12)


def test_ambient_inverse():
    z = np.array([0.4 + 0.2j, -1.0j])
    u = np.array([0.3 + 0.9j, -0.1 + 0.2j])
    zi, ui = ambient_inverse(PAIR22, (z, u))
    z0, u0 = ambient_multiply(PAIR22, (z, u), (zi, ui))
    assert_allclose(z0, 0.0, atol=1e-13)
    assert_allclose(u0, 0.0, atol=1e-13)


def test_rho_value():
    z = np.array([1.0 + 0j])
    u = np.array([2.0j])
    assert_allclose(rho(HEIS1, z, u), np.array([1.0]), atol=1e-14)


def test_dilation_is_automorphism():
    rng = np.random.default_rng(3)
    p = (rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2))
    q = (rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal(2))
    for t in (0.5, 2.0, 9.0):
        a = dilate(PAIR22, t, multiply(PAIR22, p, q))
        b = multiply(PAIR22, dilate(PAIR22, t, p), dilate(PAIR22, t, q))
        assert_allclose(a[0], b[0], atol=1e-12)
        assert_allclose(a[1], b[1], atol=1e-12)


def test_radical_of_degenerate_model():
    rad = spectral_data(DEG21, np.array([1.0])).radical
    assert rad.shape == (2, 1)
    # kernel of diag(1, 0) is the second coordinate axis
    assert_allclose(np.abs(rad[:, 0]), np.array([0.0, 1.0]), atol=1e-12)
    # at lam = 0 everything is radical
    assert spectral_data(DEG21, np.array([0.0])).radical.shape == (2, 2)
    assert spectral_data(HEIS1, np.array([2.0])).radical.shape == (1, 0)


def cr_witness(z, x):
    # boundary value of exp(i u) on the Heisenberg model: u = x + i|z|^2
    return np.exp(1j * x[..., 0] - np.abs(z[..., 0]) ** 2)


def test_conjugate_field_annihilates_cr_function():
    rng = np.random.default_rng(11)
    z = (rng.standard_normal((30, 1)) + 1j * rng.standard_normal((30, 1))) * 0.8
    x = rng.standard_normal((30, 1))
    res = apply_cr_field(HEIS1, np.array([1.0]), cr_witness, z, x, conjugate=True)
    assert np.max(np.abs(res)) < 1e-7


def test_holomorphic_field_matches_closed_form():
    rng = np.random.default_rng(12)
    z = (rng.standard_normal((20, 1)) + 1j * rng.standard_normal((20, 1))) * 0.8
    x = rng.standard_normal((20, 1))
    got = apply_cr_field(HEIS1, np.array([1.0]), cr_witness, z, x, conjugate=False)
    want = -2.0 * np.conj(z[:, 0]) * cr_witness(z, x)
    assert_allclose(got, want, atol=1e-7)


def test_slice_of_ambient_field_is_field_of_slice():
    # polynomial ambient function mixing holomorphic and conjugate factors
    def f_amb(z, u):
        return (
            z[..., 0] ** 2 * u[..., 0]
            + 3.0 * np.conj(z[..., 1]) * np.conj(u[..., 1]) ** 2
            + z[..., 0] * np.conj(z[..., 0]) * u[..., 1]
        )

    rng = np.random.default_rng(21)
    z = (rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))) * 0.6
    x = rng.standard_normal((12, 2)) * 0.8
    v = np.array([0.7, -0.3 + 0.4j])
    for h in (0.0, 0.5):
        for conj_flag in (False, True):
            f_h = central_slice(PAIR22, f_amb, h)
            inner = apply_cr_field(PAIR22, v, f_h, z, x, conjugate=conj_flag)
            u = x + 1j * (PAIR22.phi(z) + h)
            outer = apply_ambient_cr_field(PAIR22, v, f_amb, z, u, conjugate=conj_flag)
            assert_allclose(inner, outer, atol=2e-6)


def test_ambient_conjugate_field_kills_holomorphic_polynomials():
    def f_hol(z, u):
        return z[..., 0] ** 3 + u[..., 0] * z[..., 1] + u[..., 1] ** 2

    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    u = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    v = np.array([0.2 - 1.0j, 0.9])
    res = apply_ambient_cr_field(PAIR22, v, f_hol, z, u, conjugate=True)
    assert np.max(np.abs(res)) < 1e-7


def test_non_hermitian_coefficients_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        QuadraticModel(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
