import numpy as np
import pytest

from quadric_cr.model import QuadraticModel
from quadric_cr.convex import interval_body, polytope_body
from quadric_cr.transform import SpectralProfile, bump_profile, extend, forward_FN, inverse_FN
from quadric_cr.split import (
    embed_flat,
    split,
    split_invariants,
    support_invariance,
    verify_split_growth,
)

# two central directions, each pairing one of two first-layer coordinates
SPLIT12 = QuadraticModel(
    np.array(
        [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
        ],
        complex,
    )
)
# one central direction acting on the first of two coordinates
DEG21 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]]], complex))
HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
# one first-layer coordinate, two central directions, only the first active
FLAT12 = QuadraticModel(np.array([[[1.0]], [[0.0]]], complex))

SEG = polytope_body(np.array([[1.0, 0.0], [2.0, 0.0]]))
K12 = interval_body(1.0, 2.0)


def test_split_bases_and_reduced_model():
    sp = split(SPLIT12, SEG)
    # the body spans the first central axis; the second one is flat
    assert np.allclose(sp.f2_basis, [[1.0], [0.0]])
    assert np.allclose(np.abs(sp.f1_basis), [[0.0], [1.0]])
    assert sp.e2_basis.shape == (2, 1)
    assert np.allclose(sp.e2_basis, [[1.0], [0.0]])
    assert np.allclose(np.abs(sp.e1_basis), [[0.0], [1.0]])
    assert sp.phi2.n == 1 and sp.phi2.m == 1
    assert np.allclose(sp.phi2.A, [[[1.0]]])
    assert np.allclose(np.sort(sp.body2.points.ravel()), [1.0, 2.0])


def test_split_matches_the_hand_example():
    # one perpendicular coordinate, central pairing only along the first
    # of two center directions: the reduced factor is the Heisenberg model
    sp = split(FLAT12, SEG)
    assert np.allclose(sp.f1_basis, [[0.0], [1.0]])
    assert np.allclose(sp.f2_basis, [[1.0], [0.0]])
    assert sp.e1_basis.shape == (1, 0)
    assert np.allclose(sp.e2_basis, [[1.0]])
    assert np.allclose(sp.phi2.A, HEIS1.A)
    assert np.allclose(np.sort(sp.body2.points.ravel()), [1.0, 2.0])


def test_split_is_deterministic():
    a = split(SPLIT12, SEG)
    b = split(SPLIT12, SEG)
    assert np.array_equal(a.e1_basis, b.e1_basis)
    assert np.array_equal(a.e2_basis, b.e2_basis)
    assert np.array_equal(a.f2_basis, b.f2_basis)


def test_split_full_rank_is_trivial():
    sp = split(HEIS1, K12)
    assert sp.f1_basis.shape == (1, 0)
    assert sp.e1_basis.shape == (1, 0)
    assert np.allclose(sp.phi2.A, HEIS1.A)


def test_split_of_origin_body_is_all_flat():
    sp = split(HEIS1, polytope_body(np.array([[0.0]])))
    assert sp.phi2 is None and sp.body2 is None
    assert sp.f2_basis.shape == (1, 0) and sp.e2_basis.shape == (1, 0)
    assert np.array_equal(sp.e1_basis, np.eye(1, dtype=complex))


def test_split_requires_body_inside_positivity_cone():
    with pytest.raises(ValueError):
        split(HEIS1, polytope_body(np.array([[-2.0], [-1.0]])))


def test_split_and_inverse_fn_share_the_closed_cone():
    # at lam = -1e-12, A(lam) = -1e-12 is the layer's largest eigenvalue, so
    # it is negative, not zero: inverse_FN warns on that node and split
    # refuses the body that has it as a vertex
    body = polytope_body(np.array([[-1e-12], [1.0]]))
    node = SpectralProfile(body, np.array([[-1e-12]]), np.ones(1), np.ones(1))
    assert inverse_FN(HEIS1, node).warnings == (
        "profile node 0 lies outside the closed positivity cone",)
    with pytest.raises(ValueError, match="closed positivity cone"):
        split(HEIS1, body)


def test_split_invariants_are_tight():
    for model, body in ((SPLIT12, SEG), (FLAT12, SEG), (DEG21, K12)):
        res = split_invariants(split(model, body), samples=32, seed=1)
        worst = max(res.values())
        assert worst < 1e-12, res


def test_support_function_only_sees_the_active_part():
    for model, body in ((SPLIT12, SEG), (FLAT12, SEG)):
        sp = split(model, body)
        assert support_invariance(sp, samples=64, seed=2) < 1e-12


def test_embedded_function_ignores_flat_coordinates():
    sp = split(SPLIT12, SEG)
    phi2 = inverse_FN(sp.phi2, bump_profile(sp.body2, nodes=24))
    f = embed_flat(sp, phi2)
    rng = np.random.default_rng(7)
    z1 = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    x1 = rng.standard_normal((4, 1))
    for t in (0.0, 1.3, -2.6):
        z = np.concatenate([z1, np.full((4, 1), t * (1 + 0.5j))], axis=1)
        x = np.concatenate([x1, np.full((4, 1), -t)], axis=1)
        ref = phi2(z1, x1)
        assert np.abs(f(z, x) - ref).max() < 1e-14


def test_embedding_lifts_the_spectral_form():
    sp = split(SPLIT12, SEG)
    phi2 = inverse_FN(sp.phi2, bump_profile(sp.body2, nodes=24))
    f = embed_flat(sp, phi2)
    assert f.spectral is not None
    assert f.spectral.lambdas.shape == (24, 2)
    assert np.abs(f.spectral.lambdas[:, 1]).max() == 0.0
    # the lifted form supports extension, and it restricts to the boundary
    z = np.array([[0.3 + 0.2j, 0.4 - 0.1j]])
    x = np.array([[0.5, -0.7]])
    u = x[0] + 1j * SPLIT12.phi(z[0])
    assert abs(extend(f, z, u[None, :])[0] - f(z, x)[0]) < 1e-13


def test_synthesis_on_degenerate_model_factors_through_split():
    # band-limited data on the model with a radical is the embedding of the
    # reduced synthesis, up to the ratio of the two synthesis constants
    # (2^(n-m)/pi^(n+m) with n=2 against n=1 here, so 2/pi)
    sp = split(DEG21, K12)
    prof = bump_profile(K12, nodes=32)
    f_big = inverse_FN(DEG21, prof)
    prof2 = bump_profile(sp.body2, nodes=32)
    f_emb = embed_flat(sp, inverse_FN(sp.phi2, prof2))
    rng = np.random.default_rng(11)
    z = (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))) * 0.8
    x = rng.standard_normal((6, 1)) * 2.0
    assert np.abs(f_big(z, x) - (2.0 / np.pi) * f_emb(z, x)).max() < 1e-13


def test_split_unlocks_the_forward_transform():
    sp = split(DEG21, K12)
    f_big = inverse_FN(DEG21, bump_profile(K12, nodes=64))
    # on the big model the layer quadrature sees no decay along the radical
    # direction and says so
    _, warns = forward_FN(f_big, np.array([[1.5]]), degree=4)
    assert any("boundary" in w for w in warns)
    # push the data down to the reduced model, where the trace is clean

    def ev(z1, x1):
        return f_big(np.asarray(z1, complex) @ sp.e2_basis.T, x1 @ sp.f2_basis.T)

    from quadric_cr.functions import SampledFunction

    f_small = SampledFunction(sp.phi2, ev, f_big.grid)
    probes = np.array([[1.3], [1.5], [1.8]])
    rec, warns = forward_FN(f_small, probes, degree=6)
    from quadric_cr.transform import smooth_bump

    # the big synthesis carries 2/pi relative to the reduced one
    truth = (2.0 / np.pi) * smooth_bump((probes[:, 0] - 1.5) / 0.5)
    assert not warns
    assert np.abs(rec - truth).max() < 1e-5


def test_growth_probe_separates_flat_and_active():
    sp = split(SPLIT12, SEG)
    phi2 = inverse_FN(sp.phi2, bump_profile(sp.body2, nodes=24))
    f = embed_flat(sp, phi2)
    rep = verify_split_growth(f, sp)
    assert rep["flat_variation"] < 1e-13
    assert rep["central_variation"] < 1e-13
    assert abs(rep["active_slope"] - 2.0) < 0.1
