import numpy as np
import pytest
from numpy.polynomial import Polynomial

from quadric_cr import quadrature, spectral, transform
from quadric_cr.model import QuadraticModel
from quadric_cr.convex import box_body, boundary_distance, interval_body, support
from quadric_cr.fock import fock_basis, group_convolve, pi_of_f_batch
from quadric_cr.functions import (
    CHUNK_ELEMENTS,
    GridSpec,
    SampledFunction,
    SpectralForm,
    central_transform,
    gaussian_function,
)
from quadric_cr.quadrature import gauss_legendre, tensor_rule
from quadric_cr.spectral import plancherel_constant, spectral_data
from quadric_cr.transform import (
    SpectralProfile,
    bump_profile,
    extend,
    extend_by_resynthesis,
    extend_profile,
    forward_FN,
    inverse_FN,
    profile_from_callable,
    pw_margin,
    smooth_bump,
    spectrum_support,
)

HEIS1 = QuadraticModel(np.array([[[1.0]]], complex))
K12 = interval_body(1.0, 2.0)
# synthesis constant 2^(n-m)/pi^(n+m) for one perpendicular and one
# central dimension
CONST1 = 1.0 / np.pi**2
# band-limited data needs a long central quadrature box
LONG = GridSpec(ebox=4.0, enodes=40, fbox=160.0, fnodes=768)
# the point z = 0 of E, where the fiber transforms below are read
ZERO = np.zeros((1, 1), complex)


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
    assert f.warnings == ()
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
    assert f.warnings == tuple(
        f"profile node {j} lies outside the closed positivity cone" for j in range(8))
    assert inverse_FN(HEIS1, bump_profile(K12, nodes=8)).warnings == ()
    # a profile across lam = 0 warns on exactly the nodes spectral_data puts
    # outside the cone
    mixed = bump_profile(interval_body(-1.0, 1.0), nodes=9)
    outside = [j for j, lam in enumerate(mixed.lambdas)
               if (spectral_data(HEIS1, lam).eigenvalues < 0).any()]
    assert outside == [0, 1, 2, 3]
    assert inverse_FN(HEIS1, mixed).warnings == tuple(
        f"profile node {j} lies outside the closed positivity cone" for j in outside)


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
    (mat,), _ = pi_of_f_batch(fock_basis(sd, 6), f, grid=LONG)
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
    assert -(-z.shape[0] // (CHUNK_ELEMENTS // xn.shape[0])) == 10  # the samples span 10 chunks
    lams = np.array([[-3.0], [-0.5], [0.0], [1.5], [4.0]])
    got, xtot, xtail, xsq = central_transform(f, lams, 8.0, 768)(z)
    want = np.sqrt(np.pi) * np.exp(-np.abs(z) ** 2 - lams[:, 0] ** 2 / 4.0)
    assert got.shape == (600, 5)
    assert np.abs(got / want - 1.0).max() < 1e-12
    row = central_transform(f, lams, 8.0, 768)(z[417:418])[0][0]
    assert np.abs(row / got[417] - 1.0).max() < 1e-13
    # the x-sums of |f|: the box boundary is the two end nodes of the rule
    absf = np.abs(f(z[:, None, :], xn[None, :, :]))  # (Z, X)
    assert abs(xtot - float(np.sum(absf @ xw))) <= 1e-12 * xtot
    assert abs(xtail - float(np.sum(absf[:, [0, -1]] @ xw[[0, -1]]))) <= 1e-12 * xtail
    # and each point's x-integral of |f|^2, sqrt(pi/2) exp(-2|z|^2) in closed form
    want_sq = np.sqrt(np.pi / 2.0) * np.exp(-2.0 * np.abs(z[:, 0]) ** 2)
    assert np.abs(xsq / want_sq - 1.0).max() < 1e-12


def test_central_transform_of_a_spectral_form():
    # a spectral form is transformed in closed form on the box: what
    # sampling it on a resolving rule sums, and no observable x-tails
    grid = GridSpec(fbox=20.0, fnodes=96)
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=16), grid=grid)
    xn, xw = tensor_rule([grid.f_rule()])
    z = (np.random.default_rng(2).standard_normal((7, 1)) + 0.5j).astype(complex)
    lams = np.array([[0.7], [1.3], [1.9]])
    got, xtot, xtail, xsq = central_transform(f, lams, grid.fbox, grid.fnodes)(z)
    want = f(z[:, None, :], xn[None, :, :]) @ (xw[:, None] * np.exp(-1j * (xn @ lams.T)))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert xtot == xtail == 0.0 and xsq is None


# n = 2, m = 2, two decoupled copies of HEIS1
DECOUPLED22 = QuadraticModel(np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                                      complex))
CLOSED_FORM_CASES = {
    # model, form frequencies, probes (the first one is a form frequency, so
    # kappa = 0 there; |kappa| stays <= 6.5)
    "heis1": (HEIS1, np.linspace(1.0, 2.0, 9)[:, None],
              np.array([[1.25], [0.0], [1.5 + 1e-9], [-2.5], [4.0], [7.5]])),
    "decoupled22": (DECOUPLED22, np.array([[1.0, 1.5], [2.0, -0.5], [-1.0, 0.25], [0.5, 0.5]]),
                    np.array([[2.0, -0.5], [0.0, 0.0], [1.0, 1.5 + 1e-9], [-3.0, 4.0],
                              [4.5, -2.0]])),
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_central_transform_closed_form_matches_sampled_rule(case):
    # the closed form against f sampled on the 768-node rule of [-160, 160]
    # per central coordinate, entry by entry
    model, lambdas, probes = CLOSED_FORM_CASES[case]
    xbox, xnodes = 160.0, 768
    rng = np.random.default_rng(7)
    J = lambdas.shape[0]
    amp = rng.uniform(0.5, 1.5, J) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, J))
    form = SpectralForm.ground(model, lambdas, amp)
    f = SampledFunction(model, form, GridSpec(fbox=xbox, fnodes=xnodes), spectral=form)
    z = 0.6 * (rng.standard_normal((3, model.n)) + 1j * rng.standard_normal((3, model.n)))
    got, xtot, xtail, xsq = central_transform(f, probes, xbox, xnodes)(z)
    assert xtot == xtail == 0.0 and xsq is None
    # the sampled x-sum, a chunk of x nodes at a time (768^2 nodes on DECOUPLED22)
    xn, xw = tensor_rule([gauss_legendre(xnodes, -xbox, xbox)] * model.m)
    want = np.zeros((z.shape[0], probes.shape[0]), complex)
    for lo in range(0, xn.shape[0], 2**16):
        x = xn[lo : lo + 2**16]
        want += form(z[:, None, :], x[None, :, :]) @ (
            xw[lo : lo + 2**16, None] * np.exp(-1j * (x @ probes.T)))
    assert (lambdas == probes[0]).all(axis=1).any()
    assert (np.abs(got - want) <= 1e-13 * np.abs(want).max()).all()


def test_spectral_callers_build_no_central_rule(monkeypatch):
    # a spectral form's central transform is closed: no caller builds the
    # 768-node x-rule for it, and nothing samples the form; the reference
    # rules are memoized, so the memo is cleared before each counted call
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def spy(num):
        built.append(int(num))
        return leggauss(num)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
    f1 = inverse_FN(HEIS1, bump_profile(K12, nodes=16), grid=GridSpec(enodes=12, fbox=160.0,
                                                                      fnodes=768))
    f2 = inverse_FN(HEIS1, bump_profile(K12, nodes=12), grid=f1.grid)

    def no_samples(z, x):
        raise AssertionError("the spectral form was sampled")

    f1.evaluate = no_samples
    probes = np.array([[1.3], [1.7]])
    calls = {
        "forward_FN": lambda: forward_FN(f1, probes, degree=4),
        "group_convolve": lambda: group_convolve(f1, f2),
        "central_transform": lambda: central_transform(f1, probes, 160.0, 768)(ZERO),
        "extend_by_resynthesis": lambda: extend_by_resynthesis(
            f1, K12, np.array([[0.2 + 0.1j]]), np.array([[0.3 + 0.5j]]), lam_nodes=48),
        "spectrum_support": lambda: spectrum_support(f1, np.linspace(0.0, 3.0, 7)),
    }
    for name, call in calls.items():
        quadrature._reference_rule.cache_clear()
        built.clear()
        call()
        assert 768 not in built, name
    # a sampled function still gets its rule, built once
    quadrature._reference_rule.cache_clear()
    built.clear()
    central_transform(gaussian_function(HEIS1), probes, 160.0, 768)(ZERO)
    assert built == [768]


def test_leakage_outside_body():
    f = inverse_FN(HEIS1, bump_profile(K12, nodes=64))
    outside = np.array([[0.5], [0.8], [2.2], [3.0], [-1.0]])
    leak = np.abs(central_transform(f, outside, 160.0, 768)(ZERO)[0][0])
    ref = np.abs(central_transform(f, np.array([[1.5]]), 160.0, 768)(ZERO)[0][0])
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


def test_route_a_refuses_a_frequency_rule_too_coarse_for_its_box_kernel():
    # on box2 = [1, 2] x [3, 5] the xbox = 160 kernel turns through 160
    # radians across the second axis, so route A needs 2 lam_nodes - 1 >= 160;
    # its default 64 nodes read a relative error near 2 against route B
    box2 = box_body([1.0, 3.0], [2.0, 5.0])
    prof = bump_profile(box2, nodes=32)
    f = inverse_FN(DECOUPLED22, prof)
    rng = np.random.default_rng(4)
    z = 0.4 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    u = rng.standard_normal((6, 2)) + 1j * (DECOUPLED22.phi(z) + rng.uniform(0.05, 0.5, (6, 2)))
    with pytest.raises(ValueError, match="lam_nodes >= 81"):
        extend_by_resynthesis(f, box2, z, u)
    with pytest.raises(ValueError, match="lam_nodes >= 41"):
        extend_by_resynthesis(f, box2, z, u, xbox=80.0, lam_nodes=32)
    # resolved, the routes agree (8.0e-4 measured at 96 nodes)
    vb = extend_profile(DECOUPLED22, prof, z, u)
    va = extend_by_resynthesis(f, box2, z, u, lam_nodes=96)
    assert (np.abs(va - vb) / np.abs(vb)).max() < 2e-3


def test_profile_callers_take_no_per_node_spectral_data(monkeypatch):
    def per_node(*args, **kwargs):
        raise AssertionError("spectral_data called per profile node")

    monkeypatch.setattr(spectral, "spectral_data", per_node)
    monkeypatch.setattr(transform, "spectral_data", per_node)
    prof = bump_profile(box_body([1.0, 3.0], [2.0, 5.0]), nodes=32)
    assert prof.lambdas.shape == (1024, 2)
    f = inverse_FN(DECOUPLED22, prof)
    z = np.array([[0.1 + 0.2j, -0.3j]])
    u = np.array([[0.2 + 0.5j, -0.1 + 0.4j]])
    vb = extend_profile(DECOUPLED22, prof, z, u)
    ve = extend(f, z, u)
    assert np.abs(vb - ve).max() < 1e-6 * np.abs(ve).max()


def polynomial_profile(k):
    """psi_k = (lam - 1)^k (2 - lam)^k on K12, on 64 nodes: finite smoothness at the ends."""
    return profile_from_callable(K12, lambda lams: ((lams[:, 0] - 1.0) * (2.0 - lams[:, 0])) ** k,
                                 nodes=64)


def polynomial_extension(k, u):
    """The exact extension of psi_k's synthesis on HEIS1, c int_K lam psi_k e^(i lam u) dlam.

    |Pf| = lam on K12, and with s = i u repeated integration by parts of the
    polynomial p = lam psi_k gives int p e^(s lam) = e^(s lam) sum_j (-1)^j
    p^(j)(lam) / s^(j+1) between the ends.  The sum cancels for |s| below 1:
    at k = 3 it reads 2e-10 off mpmath there, and 2e-15 at s = 4.
    """
    p = Polynomial([0.0, 1.0]) * Polynomial([-2.0, 3.0, -1.0]) ** k
    s = 1j * np.asarray(u, complex)
    total = 0.0
    for j in range(p.degree() + 1):
        dp = p.deriv(j)
        total = total + (-1) ** j * (dp(2.0) * np.exp(2.0 * s) - dp(1.0) * np.exp(s)) / s ** (j + 1)
    return plancherel_constant(HEIS1, 0) * total


# three points of E and their u = 0.4 + i (Phi(z) + 0.7), 0.7 above the boundary
ORACLE_Z = np.array([[0.0], [0.3 + 0.4j], [-0.5 + 0.2j]])
ORACLE_U = 0.4 + 1j * (HEIS1.phi(ORACLE_Z) + 0.7)


def test_polynomial_extension_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    u = complex(ORACLE_U[1, 0])
    c = plancherel_constant(HEIS1, 0)
    want = complex(mpmath.quad(lambda lam: c * lam * ((lam - 1) * (2 - lam)) ** 2
                               * mpmath.exp(1j * lam * u), [1, 2]))
    assert abs(polynomial_extension(2, u) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_extension_routes_match_the_exact_oracle(k):
    prof = polynomial_profile(k)
    f = inverse_FN(HEIS1, prof)
    want = polynomial_extension(k, ORACLE_U[:, 0])
    vb = extend_profile(HEIS1, prof, ORACLE_Z, ORACLE_U)
    assert (np.abs(vb - want) <= 1e-8 * np.abs(want)).all()  # 3.4e-10 measured, at k = 3
    if k > 0:
        # route A reads 1.5e-6, 2.9e-6 and 1.6e-8 at k = 1, 2, 3; at k = 0 it
        # reads 3.8e-3, left to a route A diagnostic
        va = extend_by_resynthesis(f, K12, ORACLE_Z, ORACLE_U)
        assert (np.abs(va - want) <= 1e-5 * np.abs(want)).all()
    # route B does not depend on z: the synthesis' e^(-<lam, Phi(z)>) cancels
    # against the kernel's, so one u at two z gives `extend`'s value at both
    z, u = ORACLE_Z[1:], np.repeat(ORACLE_U[1:2], 2, axis=0)
    ve, vb = extend(f, z, u), extend_profile(HEIS1, prof, z, u)
    assert (np.abs(vb - ve) <= 1e-12 * np.abs(ve)).all()  # 8.4e-15 measured


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_growth_margin_matches_the_exact_oracle(k):
    # along u = -i h above z = 0 the support function is H_K(-h) = 2h; the
    # margin damps each term inside its exponent, so it stays exact past
    # h = 300, where `extend` refuses e^(2h) (e^640 is still a float here)
    f = inverse_FN(HEIS1, polynomial_profile(k))
    h = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 320.0])
    margins = pw_margin(f, K12, np.zeros((h.size, 1), complex), -1j * h[:, None], order=0)
    want = np.abs(polynomial_extension(k, -1j * h)) * np.exp(-2.0 * h)
    assert (np.abs(margins - want) <= 1e-10 * want).all()


def test_every_route_refuses_what_extend_refuses():
    # the deep probe u = 0.4 + i (Phi(z) - 320): rho = -320, so the
    # continuation's exponents reach 320 * 2 on K12, past EXP_LIMIT = 600
    prof = bump_profile(K12, nodes=64)
    f = inverse_FN(HEIS1, prof)
    z = np.array([[0.3 + 0.1j]])
    u = 0.4 + 1j * (HEIS1.phi(z) - 320.0)
    with pytest.raises(ValueError, match=r"route A's kernel reaches exp\(640\)"):
        extend_by_resynthesis(f, K12, z, u)
    with pytest.raises(ValueError, match=r"route B's integrand reaches exp\(640\)"):
        extend_profile(HEIS1, prof, z, u)
    with pytest.raises(ValueError, match=r"extension exponent .* reaches exp\(640\)"):
        extend(f, z, u)
    # the margin takes e^(-H_K(rho)) = e^(-2 D) inside its exponents, so it
    # stays finite at any depth D
    for depth in (320.0, 400.0):
        u = 0.4 + 1j * (HEIS1.phi(z) - depth)
        margin = pw_margin(f, K12, z, u, order=0)
        assert np.isfinite(margin).all() and 0.0 < margin[0] < 1e-10


def test_a_ground_form_continues_far_off_the_centre():
    # at z = 20, u = 0.3 the continuation is of order one, but e^(<lam, Phi(z)>)
    # reaches e^800 on K12; a ground form sums amp_j e^(i lam_j u), free of
    # Phi(z), so `extend` agrees with route B there, while route A, which reads
    # f only through its fiber transform at z, still refuses its kernel
    prof = bump_profile(K12, nodes=64)
    f = inverse_FN(HEIS1, prof)
    z, u = np.array([[20.0 + 0.0j]]), np.array([[0.3 + 0.0j]])
    ve, vb = extend(f, z, u), extend_profile(HEIS1, prof, z, u)
    assert abs(vb[0] - (0.05238 + 0.02555j)) < 1e-5
    assert (np.abs(ve - vb) <= 1e-12 * np.abs(vb)).all()
    with pytest.raises(ValueError, match=r"route A's kernel reaches exp\(800\)"):
        extend_by_resynthesis(f, K12, z, u)


@pytest.mark.parametrize("body,seen_want,change", [
    (K12, [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384], "5.000e-01"),
    (box_body([1.0, 3.0], [2.0, 5.0]), [64**2, 128**2], "7.500e-01"),
])
def test_frequency_refinement_raises_when_it_never_settles(monkeypatch, body, seen_want, change):
    # a cheap stand-in rule: leggauss at 16384 nodes takes minutes, and only
    # the node counts matter here
    monkeypatch.setattr(transform, "gauss_legendre",
                        lambda num, lo, hi: (np.linspace(lo, hi, num), np.full(num, 1.0 / num)))
    seen = []

    def drifting(lams):  # the value grows with the number of points
        seen.append(lams.shape[0])
        return np.full(lams.shape[0], float(lams.shape[0]))

    with pytest.raises(RuntimeError, match=rf"last relative change {change}, rtol 1\.0e-08"):
        transform._gl_refine(body, drifting)
    # the bound is on the points of the whole rule, not the nodes per axis
    assert seen == seen_want


@pytest.mark.parametrize("body,seen_want,points", [
    (K12, [64], r"64 nodes per axis \(64 points\)"),
    (box_body([1.0, 3.0], [2.0, 5.0]), [64**2], r"64 nodes per axis \(4096 points\)"),
])
def test_frequency_refinement_stops_at_a_non_finite_value(monkeypatch, body, seen_want, points):
    # a nan never settles: on K12 the doubling would run on to a 16384-node
    # Legendre solve, so the stand-in rule keeps a regression cheap
    monkeypatch.setattr(transform, "gauss_legendre",
                        lambda num, lo, hi: (np.linspace(lo, hi, num), np.full(num, 1.0 / num)))
    seen = []

    def broken(lams):
        seen.append(lams.shape[0])
        return np.full(lams.shape[0], np.nan)

    with pytest.raises(ValueError, match=f"non-finite integrand value at {points}"):
        transform._gl_refine(body, broken)
    assert seen == seen_want


def test_route_b_refuses_a_profile_that_reads_nan():
    box2 = box_body([1.0, 3.0], [2.0, 5.0])
    prof = profile_from_callable(box2, lambda lams: np.full(lams.shape[0], np.nan), nodes=8)
    z = np.array([[0.1 + 0.2j, -0.3j]])
    u = np.array([[0.2 + 0.5j, -0.1 + 0.4j]])
    with pytest.raises(ValueError, match="non-finite integrand value at 64 nodes per axis"):
        extend_profile(DECOUPLED22, prof, z, u)


@pytest.mark.parametrize("body,start,points", [
    (K12, 16384, 32768),
    (box_body([1.0, 3.0], [2.0, 5.0]), 128, 65536),
    (box_body([1.0, 3.0, 0.0], [2.0, 5.0, 1.0]), 64, 2097152),
])
def test_frequency_refinement_refuses_a_start_it_cannot_refine(body, start, points):
    def never(lams):
        raise AssertionError("evaluated a rule it could never compare")

    m = body.m
    with pytest.raises(ValueError, match=rf"from {start} nodes per axis on an m = {m} body "
                                         rf"needs {points} points .* the 16384 allowed"):
        transform._gl_refine(body, never, start=start)


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


def test_pw_margin_bounded_on_both_sides_of_the_cone():
    body = interval_body(1.49, 1.51)
    f = inverse_FN(HEIS1, bump_profile(body, nodes=32))
    zs = np.zeros((7, 1), complex)
    hs = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 16.0, -30.0])
    margins = pw_margin(f, body, zs, (1j * hs)[:, None], order=0)
    # support damping exactly balances the slowest mode, margins stay order one
    assert margins[:6].max() < 1.05 * margins[0]
    assert margins[:6].min() > 0.5 * margins[0]
    # the wrong-side probe has H = 1.51 * 30 = 45.3, damped exactly: its
    # margin is order one too, not inflated by a cap on the damping
    assert 0.5 * margins[0] < margins[6] < margins[0]
    # the stack gives each probe's own margin
    singles = [pw_margin(f, body, zs[i : i + 1], 1j * hs[i : i + 1, None], order=0)[0]
               for i in range(hs.size)]
    assert np.allclose(margins, singles, rtol=1e-14, atol=0.0)
