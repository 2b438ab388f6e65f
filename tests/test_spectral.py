"""Frequency-layer diagonalization checks."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from quadric_cr.configio import load_body, load_model
from quadric_cr.model import QuadraticModel
from quadric_cr.transform import bump_profile
from quadric_cr.spectral import (
    spectral_data,
    layer_invariants,
    generic_dimension,
    is_exceptional,
    ZERO_RTOL,
)

HEIS1 = QuadraticModel(np.array([[[1.0]]]), name="heis1")
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]]), name="deg21")
PAIR22 = QuadraticModel(
    np.array(
        [
            [[1.0, 0.0], [0.0, -1.0]],
            [[0.0, -1.0j], [1.0j, 0.0]],
        ]
    ),
    name="pair22",
)
ZERO11 = QuadraticModel(np.array([[[0.0]]]), name="flat")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# the shipped pair22 model: two decoupled copies of HEIS1, radical jumps on the axes
DECOUPLED22 = load_model(str(SCENARIOS / "models" / "pair22.model"))

coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def test_orientation_pin():
    # J' = s i sign(A(lam)) with s = +1: on HEIS1 at lam = 1 the twisted
    # pairing at a = 1 is s, and only s = +1 makes it positive
    sd = spectral_data(HEIS1, [1.0])
    a = np.array([1.0 + 0j])
    val = sd.phi_lam_pair_twisted(HEIS1, a, a)
    assert val.real > 0.0 and val.imag == 0.0


def test_heis1_positive_layer():
    sd = spectral_data(HEIS1, [2.0])
    assert sd.d == 0
    assert sd.pfaffian == 2.0
    assert_allclose(sd.eigenvalues, [2.0])
    assert sd.eigenvectors.shape == (1, 1)
    assert not (sd.eigenvalues < 0).any()
    one = np.array([1.0 + 0j])
    assert_allclose(sd.phi_lam(one), 2.0, atol=1e-14)
    # on the positive cone the Fock weight equals <lam, Phi(z)>
    z = np.array([0.7 - 0.3j])
    assert_allclose(sd.phi_lam(z), 2.0 * np.abs(z[0]) ** 2, atol=1e-14)


def test_heis1_zero_layer_is_fully_radical():
    sd = spectral_data(HEIS1, [0.0])
    assert sd.d == 1
    assert sd.kdim == 0
    assert sd.pfaffian == 1.0
    assert sd.radical.shape == (1, 1)


def test_heis1_negative_layer():
    sd = spectral_data(HEIS1, [-1.0])
    assert sd.d == 0
    assert sd.pfaffian == 1.0
    assert sd.eigenvectors.shape == (1, 1)
    assert (sd.eigenvalues < 0).all()
    z = np.array([1.0 + 2.0j])
    # the weight is positive even though <lam, Phi(z)> is negative here
    assert_allclose(sd.phi_lam(z), np.abs(z[0]) ** 2, atol=1e-13)
    # w is the conjugate coordinate on the negative eigenspace
    w = sd.w_coords(z)
    c = np.conj(sd.eigenvectors[:, 0]) @ z
    assert_allclose(w[0], np.conj(c), atol=1e-14)


def test_degenerate_layer_radical():
    sd = spectral_data(DEG21, [1.0])
    assert sd.d == 1
    assert_allclose(np.abs(sd.radical[:, 0]), [0.0, 1.0], atol=1e-12)
    assert_allclose(sd.eigenvalues, [1.0])
    assert sd.pfaffian == 1.0
    r = sd.radical_coords(np.array([0.3 + 1j, 2.0 - 1j]))
    assert r.shape == (1,)
    assert_allclose(np.abs(r[0]), np.abs(2.0 - 1j), atol=1e-12)


def test_jprime_squares_to_minus_identity_off_radical():
    sd = spectral_data(PAIR22, [0.3, -1.1])
    proj = sd.eigenvectors @ np.conj(sd.eigenvectors.T)
    assert_allclose(sd.j_prime @ sd.j_prime, -proj, atol=1e-12)
    assert_allclose(sd.j_prime @ sd.radical, 0.0, atol=1e-12)
    # |Pf| is the product of A(lam)'s singular values above the rtol cut
    sv = np.linalg.svd(PAIR22.a_matrix([0.3, -1.1]), compute_uv=False)
    pf, _, _ = layer_invariants(PAIR22, [[0.3, -1.1]])
    assert_allclose(pf, [np.prod(sv[sv > 1e-10 * sv.max()])], rtol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(coords, min_size=2, max_size=2), st.lists(coords, min_size=8, max_size=8))
def test_pairing_two_routes_agree(lam, reals):
    lam = np.asarray(lam)
    if np.max(np.abs(lam)) < 1e-3:
        lam = lam + 1.0
    sd = spectral_data(PAIR22, lam)
    a = np.array([reals[0] + 1j * reals[1], reals[2] + 1j * reals[3]])
    b = np.array([reals[4] + 1j * reals[5], reals[6] + 1j * reals[7]])
    assert_allclose(sd.phi_lam_pair(a, b), sd.phi_lam_pair_twisted(PAIR22, a, b), atol=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(coords, min_size=2, max_size=2))
def test_weight_positive_definite(lam):
    lam = np.asarray(lam)
    if np.max(np.abs(lam)) < 1e-3:
        lam = lam + np.array([1.0, 0.5])
    sd = spectral_data(PAIR22, lam)
    for k in range(sd.kdim):
        u = sd.eigenvectors[:, k]
        assert sd.phi_lam(u) > 1e-6


def test_w_coords_real_linear():
    sd = spectral_data(PAIR22, [0.7, 0.2])
    rng = np.random.default_rng(9)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # real-linear: w(a + t b) = w(a) + t w(b) for real t
    assert_allclose(sd.w_coords(a - 0.7 * b), sd.w_coords(a) - 0.7 * sd.w_coords(b), atol=1e-12)


def test_pfaffian_scaling():
    # |Pf(t lam)| = t^(n-d) |Pf(lam)| under positive scaling
    for model, lam, nd in ((HEIS1, [1.3], 1), (DEG21, [0.8], 1), (PAIR22, [0.5, -0.4], 2)):
        p1 = spectral_data(model, lam).pfaffian
        p3 = spectral_data(model, [3.0 * v for v in lam]).pfaffian
        assert_allclose(p3, 3.0**nd * p1, rtol=1e-12)


def test_generic_dimension_and_exceptional():
    assert generic_dimension(HEIS1) == 0
    assert generic_dimension(DEG21) == 1
    assert generic_dimension(PAIR22) == 0
    assert generic_dimension(ZERO11) == 1
    assert is_exceptional(spectral_data(HEIS1, [0.0]), 0)
    assert not is_exceptional(spectral_data(HEIS1, [0.5]), 0)


def test_positivity_cone_membership():
    # the closed positivity cone: no eigenvalue of A(lam) counts as negative
    def in_cone(model, lam):
        return layer_invariants(model, [lam])[1][0] == 0

    assert in_cone(HEIS1, [2.0])
    assert in_cone(HEIS1, [0.0])
    assert not in_cone(HEIS1, [-0.5])
    assert in_cone(DEG21, [1.0])
    assert not in_cone(PAIR22, [1.0, 0.0])

    # the open positive stratum: in the closed cone with the generic radical
    def in_stratum(model, lam, generic_d):
        _, n_negative, d = layer_invariants(model, [lam])
        return n_negative[0] == 0 and d[0] == generic_d

    assert in_stratum(HEIS1, [1.5], 0)
    assert not in_stratum(HEIS1, [0.0], 0)
    assert not in_stratum(HEIS1, [-1.0], 0)
    assert in_stratum(DEG21, [0.7], 1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_zero_rule_threshold(sign):
    """An eigenvalue at ZERO_RTOL max|mu| is zero, one just above is not,
    in spectral_data and layer_invariants alike; A(lam) = 0 is all radical."""
    for small, zero in ((ZERO_RTOL, True), (1.001 * ZERO_RTOL, False)):
        model = QuadraticModel(np.array([[[1.0, 0.0], [0.0, sign * small]]]))
        sd = spectral_data(model, [1.0])
        pf, n_negative, d = layer_invariants(model, [[1.0]])
        assert sd.d == d[0] == (1 if zero else 0)
        assert sd.pfaffian == pf[0] == (1.0 if zero else small)
        assert n_negative[0] == np.sum(sd.eigenvalues < 0) == (sign < 0 and not zero)
        # A(0) = 0: every eigenvalue counts as zero
        sd0 = spectral_data(model, [0.0])
        pf0, n_negative0, d0 = layer_invariants(model, [[0.0]])
        assert sd0.d == d0[0] == 2
        assert sd0.radical.shape == (2, 2)
        assert sd0.pfaffian == pf0[0] == 1.0
        assert sd0.kdim == n_negative0[0] == 0


def _grid22(axis):
    mesh = np.meshgrid(axis, axis, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, 2)


# 32 nodes from -1.5 in steps of 0.125: each axis hits 0 exactly
AXIS32 = np.linspace(-1.5, 2.375, 32)
INVARIANT_CASES = {
    "heis1": (HEIS1, np.linspace(-3.0, 3.0, 25)[:, None]),
    "heis1-kneg": (HEIS1, bump_profile(load_body(str(SCENARIOS / "bodies" / "kneg.body")),
                                       nodes=8).lambdas),
    "deg21": (DEG21, np.linspace(-2.0, 2.0, 9)[:, None]),
    "pair22-32x32": (DECOUPLED22, _grid22(AXIS32)),
    "coupled22": (PAIR22, _grid22(np.linspace(-1.0, 1.0, 9))),
    "flat": (ZERO11, np.array([[0.0], [1.5]])),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_layer_invariants_match_spectral_data(case):
    model, lams = INVARIANT_CASES[case]
    pf, n_negative, d = layer_invariants(model, lams)
    assert pf.shape == n_negative.shape == d.shape == (lams.shape[0],)
    for j, lam in enumerate(lams):
        sd = spectral_data(model, lam)
        assert_allclose(pf[j], sd.pfaffian, rtol=1e-13, err_msg=f"node {j}")
        assert n_negative[j] == np.sum(sd.eigenvalues < 0), f"node {j}"
        assert d[j] == sd.d, f"node {j}"
    # the cases reach every branch of the zero rule
    if case == "deg21":
        assert set(d) == {1, 2}  # the radical jumps at lam = 0
    if case in ("heis1-kneg", "coupled22"):
        assert n_negative.max() == 1
    if case == "pair22-32x32":
        assert set(d) == {0, 1, 2}
