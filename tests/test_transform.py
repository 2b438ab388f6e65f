import numpy as np
import pytest

from quadric_cr.model import QuadraticModel
from quadric_cr.convex import boundary_distance, interval_body, support
from quadric_cr.fock import fock_basis, group_convolve, pi_of_f
from quadric_cr.functions import (
    CHUNK_ELEMENTS,
    GridSpec,
    SampledFunction,
    SpectralForm,
    central_transform,
    gaussian_function,
)
from quadric_cr.quadrature import gauss_legendre, tensor_rule
from quadric_cr.spectral import spectral_data
from quadric_cr.transform import (
    SpectralProfile,
    bump_profile,
    central_spectrum,
    extend,
    extend_by_resynthesis,
    extend_profile,
    forward_FN,
    inverse_FN,
    profile_from_callable,
    pw_margin,
    smooth_bump,
)

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
K12 = interval_body(1.0, 2.0)
# synthesis constant 2^(n-m)/pi^(n+m) for one perpendicular and one
# central dimension
CONST1 = 1.0 / np.pi**2
# band-limited data needs a long central quadrature box
LONG = GridSpec(ebox=4.0, enodes=40, fbox=160.0, fnodes=768)


def test_smooth_bump_shape():
    assert smooth_bump(0.0) == 1.0
    assert smooth_bump(1.0) == 0.0
    assert smooth_bump(-1.2) == 0.0
    t = np.linspace(-0.99, 0.99, 101)
    v = smooth_bump(t)
    assert np.all(v > 0) and np.all(v <= 1.0)
    assert np.allclose(v, v[::-1])  # even


def test_bump_profile_nodes_inside_body():
    prof = bump_profile(K12, nodes=32)
    assert prof.lambdas.shape == (32, 1)
    assert np.all(prof.lambdas >= 1.0) and np.all(prof.lambdas <= 2.0)
    assert np.all(prof.values >= 0.0) and prof.values.max() <= 1.0
    # weights integrate the body length
    assert abs(prof.weights.sum() - 1.0) < 1e-13


def test_synthesis_carries_spectral_form():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=24))
    assert f.spectral is not None
    assert f.meta.get("warnings") is None
    z = np.array([[0.4 + 0.2j]])
    x = np.array([[0.3]])
    c = f.spectral.coeff(z)
    direct = np.einsum(
        "...j,...j->...", c, np.exp(1j * (x @ f.spectral.lambdas.T))
    )
    assert np.allclose(direct, f(z, x), atol=1e-14)


def test_synthesis_is_a_ground_form():
    prof = bump_profile(K12, nodes=24)
    f = inverse_FN(HEIS1, prof)
    lams = prof.lambdas
    pf = np.array([spectral_data(HEIS1, lam).pfaffian for lam in lams])
    amp = CONST1 * prof.weights * prof.values * pf
    assert np.array_equal(f.spectral.amp, amp)

    def closure(z):  # the synthesis coefficients as a plain closure
        z = np.asarray(z, complex)
        ph = HEIS1.phi(z)  # (..., m)
        return amp * np.exp(-(ph @ lams.T))

    rng = np.random.default_rng(2)
    z = rng.standard_normal((5, 3, 1)) + 1j * rng.standard_normal((5, 3, 1))
    assert np.array_equal(f.spectral.coeff(z), closure(z))


@pytest.mark.parametrize("zshape, xshape", [((40, 1, 1), (1, 30, 1)), ((7, 1), (7, 1)),
                                            ((1,), (6, 1)), ((4, 1), (1,))])
def test_spectral_form_call_matches_einsum(zshape, xshape):
    # a ground and a plain form on an n = 2, m = 2 model
    rng = np.random.default_rng(4)
    lams = rng.uniform(0.2, 1.5, (9, 2))
    model = QuadraticModel(np.array([[[1.0, 0.2j], [-0.2j, 0.5]], [[0.3, 0.0], [0.0, 1.0]]]))
    zshape, xshape = zshape[:-1] + (2,), xshape[:-1] + (2,)
    z = rng.standard_normal(zshape) + 1j * rng.standard_normal(zshape)
    x = rng.standard_normal(xshape)
    amp = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for form in (SpectralForm.ground(model, lams, amp),
                 SpectralForm.ground(model, lams, amp.real),
                 SpectralForm(lams, lambda z: np.cos(np.asarray(z)[..., :1] * lams[:, 0]))):
        want = np.einsum("...j,...j->...", form.coeff(z), np.exp(1j * (x @ lams.T)))
        got = form(z, x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # a real coefficient takes the real products; its complex twin the complex one
        twin = SpectralForm(lams, lambda z, form=form: form.coeff(z).astype(complex))(z, x)
        assert np.abs(got - twin).max() <= 1e-15 * np.abs(twin).max()


def test_negative_cone_profile_warns():
    # on HEIS1, A(lam) = lam: every node of [-2, -1] lies outside the closed
    # positivity cone, and no node of [1, 2] does
    f = inverse_FN(HEIS1, bump_profile(interval_body(-2.0, -1.0), nodes=8))
    assert f.meta["warnings"] == tuple(
        f"profile node {j} lies outside the closed positivity cone" for j in range(8))
    assert "warnings" not in inverse_FN(HEIS1, bump_profile(K12, nodes=8)).meta


def test_round_trip_recovers_profile():
    prof = bump_profile(K12, nodes=64)
    f = inverse_FN(HEIS1, prof)
    probes = np.linspace(1.05, 1.95, 5)[:, None]
    rec, warns = forward_FN(f, probes, degree=6)
    truth = smooth_bump((probes[:, 0] - 1.5) / 0.5)
    assert not warns
    assert np.abs(rec - truth).max() < 1e-6
    assert np.abs(rec.imag).max() < 1e-8


def test_forward_skips_exceptional_frequency():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=16))
    vals, warns = forward_FN(f, np.array([[0.0], [1.5]]), degree=4)
    assert np.isnan(vals[0])
    assert np.isfinite(vals[1])
    assert any("exceptional" in w for w in warns)


def test_trace_is_rank_one_on_band_limited_data():
    # pi_lam(f) = psi(lam) P0 when f is synthesized from a profile: the
    # whole matrix, not just the trace, collapses onto the ground state
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=64), grid=LONG)
    sd = spectral_data(HEIS1, np.array([1.4]))
    op = pi_of_f(fock_basis(sd, 6), f, grid=LONG)
    mat = op.matrix
    psi = smooth_bump((1.4 - 1.5) / 0.5)
    assert abs(mat[0, 0] - psi) < 1e-6
    assert np.abs(np.diag(mat)[1:]).max() < 1e-6
    assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-6


def test_convolution_becomes_pointwise_product():
    p1 = bump_profile(K12, nodes=64)
    p2 = profile_from_callable(
        K12, lambda l: smooth_bump(2.0 * (l[:, 0] - 1.5)) * (l[:, 0] - 1.0),
        nodes=64,
    )
    f1 = inverse_FN(HEIS1, p1, grid=LONG)
    f2 = inverse_FN(HEIS1, p2, grid=LONG)
    h = group_convolve(f1, f2, grid=LONG)
    probes = np.array([[1.3], [1.7]])
    vh, warns = forward_FN(h, probes, degree=6)
    v1, _ = forward_FN(f1, probes, degree=6)
    v2, _ = forward_FN(f2, probes, degree=6)
    assert not warns
    assert np.abs(vh - v1 * v2).max() < 1e-6


def test_product_becomes_frequency_convolution():
    # the pointwise product transforms to the Euclidean convolution of the
    # density-weighted profiles, divided by the density at the output
    p1 = bump_profile(K12, nodes=48)
    p2 = profile_from_callable(
        K12, lambda l: smooth_bump(2.0 * (l[:, 0] - 1.5)) * (l[:, 0] - 1.0),
        nodes=48,
    )
    f1 = inverse_FN(HEIS1, p1, grid=LONG)
    f2 = inverse_FN(HEIS1, p2, grid=LONG)
    fp = SampledFunction(HEIS1, lambda z, x: f1(z, x) * f2(z, x), LONG)
    probes = np.array([[2.4], [3.0], [3.6]])
    got, warns = forward_FN(fp, probes, degree=6)

    mu, w = gauss_legendre(400, 1.0, 2.0)
    psi1 = smooth_bump(2.0 * (mu - 1.5))

    def psi2(t):
        return smooth_bump(2.0 * (t - 1.5)) * (t - 1.0)

    want = np.array([
        CONST1 * np.sum(w * psi1 * np.abs(mu) * psi2(l - mu) * np.abs(l - mu)) / abs(l)
        for l in probes[:, 0]
    ])
    assert not warns
    assert np.abs(got - want).max() < 1e-6


def test_central_transform_gaussian_closed_form():
    # exp(-|z|^2 - x^2) transforms to sqrt(pi) exp(-|z|^2) exp(-lam^2/4)
    f = gaussian_function(HEIS1)
    xn, xw = tensor_rule([gauss_legendre(768, -8.0, 8.0)])
    rng = np.random.default_rng(5)
    z = (rng.standard_normal((600, 1)) + 1j * rng.standard_normal((600, 1))) * 0.8
    assert -(-z.shape[0] // (CHUNK_ELEMENTS // xn.shape[0])) == 3  # the samples span 3 chunks
    lams = np.array([[-3.0], [-0.5], [0.0], [1.5], [4.0]])
    got, xtot, xtail = central_transform(f, z, lams, xn, xw)
    want = np.sqrt(np.pi) * np.exp(-np.abs(z) ** 2 - lams[:, 0] ** 2 / 4.0)
    assert got.shape == (600, 5)
    assert np.abs(got / want - 1.0).max() < 1e-12
    row = central_spectrum(f, lams, xbox=8.0, xnodes=768, z=z[417])
    assert np.abs(row / got[417] - 1.0).max() < 1e-13
    # the x-sums of |f|: the box boundary is the two end nodes of the rule
    absf = np.abs(f(z[:, None, :], xn[None, :, :]))  # (Z, X)
    assert abs(xtot - float(np.sum(absf @ xw))) <= 1e-12 * xtot
    assert abs(xtail - float(np.sum(absf[:, [0, -1]] @ xw[[0, -1]]))) <= 1e-12 * xtail


def test_central_transform_of_a_spectral_form():
    # a spectral form is contracted through its precontracted central phases:
    # the same x-sums as sampling it, and no observable x-tails
    grid = GridSpec(fbox=20.0, fnodes=96)
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=16), grid=grid)
    xn, xw = tensor_rule([grid.f_rule()])
    z = (np.random.default_rng(2).standard_normal((7, 1)) + 0.5j).astype(complex)
    lams = np.array([[0.7], [1.3], [1.9]])
    got, xtot, xtail = central_transform(f, z, lams, xn, xw)
    want = f(z[:, None, :], xn[None, :, :]) @ (xw[:, None] * np.exp(-1j * (xn @ lams.T)))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert xtot == xtail == 0.0


def test_leakage_outside_body():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=64))
    outside = np.array([[0.5], [0.8], [2.2], [3.0], [-1.0]])
    leak = np.abs(central_spectrum(f, outside, xbox=160.0, xnodes=768))
    ref = np.abs(central_spectrum(f, np.array([[1.5]]), xbox=160.0, xnodes=768))
    assert (leak / ref).max() < 1e-7


def test_extension_restricts_to_boundary():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=32))
    rng = np.random.default_rng(3)
    z = (rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))) * 0.7
    x = rng.standard_normal((5, 1)) * 2.0
    u = x[:, 0] + 1j * np.abs(z[:, 0]) ** 2
    assert np.abs(extend(f, z, u[:, None]) - f(z, x)).max() < 1e-13


def test_extension_singleton_is_plain_exponential():
    sd = spectral_data(HEIS1, np.array([1.0]))
    single = SpectralProfile(
        body=K12,
        lambdas=np.array([[1.0]]),
        weights=np.array([1.0]),
        # cancel the synthesis constant and the density weight so the
        # continuation is exactly the unit-frequency character
        values=np.array([1.0 / (CONST1 * sd.pfaffian)]),
    )
    f = inverse_FN(HEIS1, single)
    z = np.array([[0.2 + 0.1j]])
    u = np.array([[0.3 + 0.9j]])
    assert abs(extend(f, z, u)[0] - np.exp(1j * u[0, 0])) < 1e-13


def test_extension_decay_into_cone():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=48))
    z0 = np.zeros((1, 1), complex)
    for h in (1.0, 3.0):
        g = abs(extend(f, z0, np.array([[1j * h]]))[0])
        assert CONST1 * np.exp(-2.2 * h) < g < CONST1 * np.exp(-0.9 * h)


def test_extension_overflow_guard():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=16))
    with pytest.raises(ValueError):
        extend(f, np.zeros((1, 1), complex), np.array([[-500.0j]]))


def test_extension_requires_spectral_form():
    g = SampledFunction(HEIS1, lambda z, x: np.zeros(z.shape[:-1]), GridSpec())
    with pytest.raises(ValueError):
        extend(g, np.zeros((1, 1), complex), np.zeros((1, 1), complex))


def test_extension_routes_agree():
    prof = bump_profile(K12, nodes=96)
    rng = np.random.default_rng(7)
    n = 24
    z = (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))) * 0.6
    h = rng.uniform(0.05, 1.2, (n, 1))
    u = rng.standard_normal((n, 1)) + 1j * (HEIS1.phi(z) + h)
    f = inverse_FN(HEIS1, prof)
    vb = extend_profile(HEIS1, prof, z, u)
    va = extend_by_resynthesis(f, K12, z, u, lam_nodes=96)
    rel = np.abs(va - vb) / np.abs(vb)
    assert rel.max() < 1e-6
    # the refined quadrature route matches the spectral-form continuation
    ve = extend(f, z, u)
    assert (np.abs(vb - ve) / np.abs(ve)).max() < 1e-12


def test_sharper_boundary_damping_shrinks_weighted_sup():
    # damping the profile like d(lam, bd K)^p trades frequency-edge mass
    # for decay of the extension; the polynomially weighted sup over a
    # ladder of cone depths stays finite and never grows with p
    hs = np.geomspace(0.3, 12.0, 9)
    xs = np.array([0.0, 1.3])
    z0 = np.zeros((1, 1), complex)
    sups = []
    for p in (0, 1, 2):
        prof = profile_from_callable(
            K12,
            lambda l, p=p: smooth_bump(2.0 * (l[:, 0] - 1.5))
            * np.array([min(1.0, boundary_distance(K12, row)) for row in l]) ** p,
            nodes=64,
        )
        f = inverse_FN(HEIS1, prof)
        vals = []
        for h in hs:
            for x in xs:
                u = np.array([[x + 1j * h]])
                g = abs(extend(f, z0, u)[0])
                wt = (1.0 + abs(u[0, 0])) ** 2 * np.exp(-support(K12, np.array([h])))
                vals.append(g * wt)
        sups.append(max(vals))
    assert np.all(np.isfinite(sups))
    assert sups[0] >= sups[1] >= sups[2]
    assert sups[2] < sups[0]


def test_pw_margin_bounded_and_clamped():
    body = interval_body(1.49, 1.51)
    f = inverse_FN(HEIS1, bump_profile(body, nodes=32))
    zs = np.zeros((7, 1), complex)
    hs = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, -30.0])
    margins, ncl = pw_margin(f, body, zs, (1j * hs)[:, None], order=0)
    # support damping exactly balances the slowest mode, margins stay order one
    assert margins[:6].max() < 1.05 * margins[0]
    assert margins[:6].min() > 0.5 * margins[0]
    # the wrong-side probe has H = 1.51 * 30 > 40, so its damping is clamped
    # and the margin comes out inflated rather than underflowing
    assert ncl == 1
    assert margins[6] > 10.0 * margins[0]
