"""Band-limited synthesis, analysis, extension, and spectral windows.

A spectral profile is a smooth density psi on a convex body K of central
frequencies.  Synthesis is the weighted quadrature

    f0(z, x) = 2^(n-m)/pi^(n+m) * sum_j w_j psi(lam_j) |Pf(lam_j)|
               exp(-<lam_j, Phi(z)>) exp(i <lam_j, x>),

the ground-coefficient band-limited function with spectrum in K.  Profiles
are expected to live in the closed positivity cone, where the layer weight
is the plain pairing <lam, Phi(z)>; nodes outside it are reported and the
result is not guaranteed to satisfy the tangential equations.

Analysis is the trace of the integrated representation, lam -> tr
pi_lam(f), evaluated layer by layer.  For band-limited data the operator is
rank one on the ground vector, so the trace recovers psi exactly up to
quadrature; the central box must be long because band-limited functions
decay slowly along the center (the default reaches well past 1e-6).

The ambient extension continues f0 holomorphically in the central variable.
Route A (`extend_by_resynthesis`) resynthesizes from the boundary function:
a Euclidean transform of f0(zeta, .) followed by a complex-frequency
quadrature.  Route B (`extend_profile`) evaluates the rank-one trace display
directly from the profile.  Route A's x-sum may be reorganized through f0's
spectral form, but the two routes share no intermediate value past f0
itself, which is what makes their agreement a meaningful check.  Both grow
like exp(H_K(rho)) with rho = Im u - Phi(z).

Spectral windows are clipped-mollifier convolutions tau = chi_{K_{e/2}} *
psi_{e/4}, evaluated exactly for interval and box bodies through the
mollifier's distribution function: exactly 1 on the inner parallel body at
depth 3e/4, exactly 0 outside depth e/4, identically zero when the body is
too thin to clip.  Projection onto a window is group convolution with the
synthesized window kernel; on spectral data the convolution theorem turns
that into a node-by-node reweighting, which is how it is evaluated.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .convex import ConvexBody, contains, empty_body, erode, support
from .functions import GridSpec, SampledFunction, SpectralForm, central_transform
from .quadrature import gauss_legendre, tensor_rule
from .spectral import is_exceptional, spectral_data

__all__ = [
    "smooth_bump",
    "SpectralProfile",
    "profile_from_callable",
    "bump_profile",
    "inverse_FN",
    "central_spectrum",
    "forward_FN",
    "extend",
    "extend_profile",
    "extend_by_resynthesis",
    "pw_margin",
    "WindowFunction",
    "spectral_window",
    "bandlimit_project",
    "spectrum_support",
]

_EXP_CLAMP = 40.0
_NODE_CAP = 16384


def _pw_const(model):
    return 2.0 ** (model.n - model.m) / np.pi ** (model.n + model.m)


def smooth_bump(t, steepness=4.0):
    """exp(a - a/(1-t^2)) inside |t| < 1, zero outside; equals 1 at t = 0."""
    t = np.asarray(t, float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(steepness - steepness / (1.0 - ti**2))
    return out


def _body_box(body):
    """Axis box [lo, hi] of a polytope; the profile and window grids live here."""
    if body.kind != "polytope":
        raise ValueError("expected a polytope body")
    lo = body.points.min(axis=0)
    hi = body.points.max(axis=0)
    return lo, hi


def _is_box(body):
    lo, hi = _body_box(body)
    m = body.m
    if body.points.shape[0] != 2**m:
        return False
    for p in body.points:
        if not all(np.isclose(p[k], lo[k]) or np.isclose(p[k], hi[k]) for k in range(m)):
            return False
    return True


@dataclass(frozen=True)
class SpectralProfile:
    """A smooth density on a frequency body.

    psi is the closed-form evaluator; lambdas/weights/values carry its
    discretization on a tensor Gauss grid over the body's box.
    """

    body: ConvexBody
    lambdas: np.ndarray  # (J, m)
    weights: np.ndarray  # (J,)
    values: np.ndarray  # (J,)
    psi: object = None  # optional callable (J, m) -> (J,)


def profile_from_callable(body, fn, nodes=96):
    """Tensor Gauss discretization of a profile density over the body's box."""
    lo, hi = _body_box(body)
    rules = [gauss_legendre(nodes, lo[k], hi[k]) for k in range(body.m)]
    lams, w = tensor_rule(rules)
    vals = np.asarray(fn(lams), float).reshape(-1)
    return SpectralProfile(body=body, lambdas=lams, weights=w, values=vals, psi=fn)


def bump_profile(body, nodes=96, steepness=4.0):
    """The standard product bump filling the body's box."""
    lo, hi = _body_box(body)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0

    def fn(lams):
        lams = np.atleast_2d(np.asarray(lams, float))
        t = (lams - mid) / half
        out = np.ones(lams.shape[0])
        for k in range(body.m):
            out = out * smooth_bump(t[:, k], steepness)
        return out

    return profile_from_callable(body, fn, nodes=nodes)


def _pfaffians(model, lams):
    return np.array([spectral_data(model, lam).pfaffian for lam in lams])


def inverse_FN(model, profile, grid=None):
    """Band-limited synthesis from a spectral profile.

    Returns a SampledFunction carrying the finite SpectralForm, a ground
    form with amplitudes c_N w_j psi(lam_j) |Pf(lam_j)|.  Profile
    nodes outside the closed positivity cone (A(lam) has a negative
    eigenvalue) make the ground-layer weight formula unreliable; they are
    recorded in meta["warnings"].
    """
    grid = grid or GridSpec()
    lams = profile.lambdas
    warnings = []
    pf = np.empty(lams.shape[0])
    for j in range(lams.shape[0]):
        sd = spectral_data(model, lams[j])
        pf[j] = sd.pfaffian
        if sd.e_minus.shape[1]:
            warnings.append(
                f"profile node {j} lies outside the closed positivity cone"
            )
    amp = _pw_const(model) * profile.weights * profile.values * pf  # (J,)
    meta = {"profile": profile}
    if warnings:
        meta["warnings"] = tuple(warnings)
    form = SpectralForm.ground(model, lams, amp)
    return SampledFunction(model, form, grid, spectral=form, meta=meta)


def central_spectrum(f, lambdas, xbox=160.0, xnodes=768, z=None):
    """Raw Euclidean fiber transform fhat(z, lam) over a long central box."""
    lambdas = np.atleast_2d(np.asarray(lambdas, float))
    if z is None:
        z = np.zeros(f.model.n, complex)
    xn, xw = tensor_rule([gauss_legendre(xnodes, -xbox, xbox)] * f.model.m)
    return central_transform(f, np.asarray(z, complex)[None, :], lambdas, xn, xw)[0][0]


def forward_FN(f, lambdas, degree=8, grid=None):
    """The transform lam -> tr pi_lam(f), one layer quadrature per frequency.

    Returns (values, warnings).  Exceptional frequencies are skipped with a
    warning and a nan entry.  The grid defaults to the function's own
    perpendicular box but a long central box, which band-limited data needs;
    accuracy warnings from the operator quadrature are passed through.
    """
    from .fock import fock_basis, pi_of_f
    from .spectral import generic_dimension

    model = f.model
    lambdas = np.atleast_2d(np.asarray(lambdas, float))
    if grid is None:
        g = f.grid
        grid = GridSpec(ebox=g.ebox, enodes=g.enodes, fbox=160.0, fnodes=768)
    gen_d = generic_dimension(model)
    out = np.full(lambdas.shape[0], np.nan, complex)
    warnings = []
    for j in range(lambdas.shape[0]):
        sd = spectral_data(model, lambdas[j])
        if is_exceptional(sd, gen_d):
            warnings.append(f"frequency {j} is exceptional, skipped")
            continue
        fb = fock_basis(sd, degree)
        op = pi_of_f(fb, f, grid=grid)
        out[j] = np.trace(op.matrix)
        warnings.extend(op.warnings)
    return out, warnings


def extend(f, z, u):
    """Holomorphic continuation of a spectral-form function in the center.

    z is a point of E (complex, (..., n)), u a complex central variable
    (..., m).  On the boundary slice u = x + i Phi(z) this reproduces f.
    Raises when the exponent would overflow (the point lies too deep
    outside the pairing cone).
    """
    if f.spectral is None:
        raise ValueError("the extension needs a function with a spectral form")
    z = np.asarray(z, complex)
    u = np.asarray(u, complex)
    lams = f.spectral.lambdas
    ph = f.model.phi(z)  # (..., m)
    rho = np.imag(u) - ph
    expo = -(rho @ lams.T)  # (..., J)
    if np.max(expo) > 600.0:
        raise ValueError("extension point lies too deep outside the pairing cone")
    c = f.spectral.coeff(z)
    return np.einsum("...j,...j->...", c, np.exp(expo + 1j * (np.real(u) @ lams.T)))


def _gl_refine(body, integrand, start=64, cap=_NODE_CAP, rtol=1e-8):
    """Tensor Gauss value with node doubling until stable or capped.

    integrand maps (J, m) nodes to (..., J) values; the weighted sum over
    the last axis is the integral.
    """
    lo, hi = _body_box(body)
    m = lo.size
    nodes = start
    prev = None
    while True:
        lams, w = tensor_rule([gauss_legendre(nodes, lo[k], hi[k]) for k in range(m)])
        val = integrand(lams) @ w
        if prev is not None:
            scale = np.max(np.abs(val)) + 1e-300
            if np.max(np.abs(val - prev)) < rtol * scale or nodes * 2 > cap:
                return val
        prev = val
        nodes *= 2


def extend_profile(model, profile, z, u, lam_nodes=64, rtol=1e-8):
    """Ambient extension straight from a profile (route B).

    Quadratures the rank-one trace display

        c_N int_K psi |Pf| e^{-<lam, Phi(z)>} e^{<lam, iu + Phi(z)>} dlam

    with node doubling on the frequency body.  `extend_by_resynthesis` is
    the independent route A.
    """
    if profile.psi is None:
        raise ValueError("route B refinement needs the profile's evaluator")
    z = np.atleast_2d(np.asarray(z, complex))
    u = np.atleast_2d(np.asarray(u, complex))
    const = _pw_const(model)
    ph = model.phi(z)  # (P, m)

    def integrand(lams):
        pf = _pfaffians(model, lams)
        vals = np.asarray(profile.psi(lams), float)
        trace_factor = -(ph @ lams.T)  # <pi(z,0) e0, e0> on the positive side
        kernel = 1j * (np.real(u) @ lams.T) - (np.imag(u) @ lams.T) + ph @ lams.T
        return const * vals * pf * np.exp(trace_factor + kernel)

    return _gl_refine(profile.body, integrand, start=lam_nodes, rtol=rtol)


def extend_by_resynthesis(f, body, z, u, xbox=160.0, xnodes=768, lam_nodes=64):
    """Ambient extension of boundary data f by resynthesis (route A).

    Takes the Euclidean fiber transform of f along the center at each
    requested z, over a long central box, and resynthesizes with the
    complex-frequency kernel on a Gauss grid over the frequency body's box;
    it touches the data only through f.
    """
    model = f.model
    z = np.atleast_2d(np.asarray(z, complex))
    u = np.atleast_2d(np.asarray(u, complex))
    xn, xw = tensor_rule([gauss_legendre(xnodes, -xbox, xbox)] * model.m)
    lo, hi = _body_box(body)
    lams, lw = tensor_rule([gauss_legendre(lam_nodes, lo[k], hi[k]) for k in range(model.m)])
    fhat, _, _ = central_transform(f, z, lams, xn, xw)  # (P, J)
    # resynthesis kernel e^{i<lam, u - i Phi(z)>}: the Phi shift makes the
    # boundary slice u = x + i Phi(z) collapse back to plain e^{i<lam,x>}
    resynth = np.exp(1j * ((u - 1j * model.phi(z)) @ lams.T))  # (P, J)
    return (fhat * resynth) @ lw / (2.0 * np.pi) ** model.m


def pw_margin(f, body, z, u, order=4):
    """Growth margins |F(z, u)| (1+|z|^2+|u|)^order exp(-H_K(rho)).

    Returns (margins, clamp_count).  The support-function damping is
    clamped at exp(-40) so wrong-side probes inflate the margin instead of
    overflowing; clamped points are counted, never dropped.
    """
    z = np.atleast_2d(np.asarray(z, complex))
    u = np.atleast_2d(np.asarray(u, complex))
    vals = extend(f, z, u)
    ph = f.model.phi(z)
    rho = np.imag(u) - ph
    margins = np.empty(vals.shape[0])
    clamped = 0
    for i in range(vals.shape[0]):
        h = support(body, rho[i])
        if h > _EXP_CLAMP:
            h = _EXP_CLAMP
            clamped += 1
        poly = (1.0 + np.sum(np.abs(z[i]) ** 2) + np.linalg.norm(u[i])) ** order
        margins[i] = np.abs(vals[i]) * poly * math.exp(-h)
    return margins, clamped


@functools.lru_cache(maxsize=8)
def _bump_cdf(steepness):
    """Distribution function of the unit mollifier, on a dense grid."""
    grid = np.linspace(-1.0, 1.0, 4097)
    dens = smooth_bump(grid, steepness)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    mass = cdf[-1]
    return grid, cdf / mass, mass


@dataclass
class WindowFunction:
    """A clipped-mollifier window on a box body."""

    body: ConvexBody
    eps: float
    steepness: float
    plateau: ConvexBody
    outer: ConvexBody
    deriv_bound: float
    empty: bool = False
    _per_dim: tuple = field(repr=False, default=())

    def __call__(self, lams):
        lams = np.atleast_2d(np.asarray(lams, float))
        if self.empty:
            return np.zeros(lams.shape[0])
        out = np.ones(lams.shape[0])
        grid, cdf, _ = _bump_cdf(self.steepness)
        for k, (a, b, s) in enumerate(self._per_dim):
            ta = np.interp((lams[:, k] - a) / s, grid, cdf, left=0.0, right=1.0)
            tb = np.interp((lams[:, k] - b) / s, grid, cdf, left=0.0, right=1.0)
            out = out * (ta - tb)
        return out


def spectral_window(body, eps, steepness=4.0):
    """tau_eps = chi_{K_{eps/2}} * psi_{eps/4}, exact for box bodies.

    Exactly one on the inner parallel body at depth 3 eps/4 (which contains
    K_eps) and exactly zero outside depth eps/4.  When the clipped body
    K_{eps/2} is empty the window is identically zero.
    """
    if eps <= 0:
        raise ValueError("window width must be positive")
    if body.kind != "polytope" or not _is_box(body):
        raise NotImplementedError("windows are implemented for interval and box bodies")
    lo, hi = _body_box(body)
    s = eps / 4.0
    _, _, mass = _bump_cdf(steepness)
    if np.any(hi - lo <= eps):
        return WindowFunction(
            body=body,
            eps=eps,
            steepness=steepness,
            plateau=empty_body(body.m),
            outer=erode(body, eps / 4.0),
            deriv_bound=4.0 / (eps * mass),
            empty=True,
        )
    per_dim = tuple((lo[k] + eps / 2.0, hi[k] - eps / 2.0, s) for k in range(body.m))
    return WindowFunction(
        body=body,
        eps=eps,
        steepness=steepness,
        plateau=erode(body, 3.0 * eps / 4.0),
        outer=erode(body, eps / 4.0),
        deriv_bound=4.0 / (eps * mass),
        _per_dim=per_dim,
    )


def window_profile(window, nodes=96):
    """The window discretized as a spectral profile on its support box."""
    base = window.outer if window.outer.kind == "polytope" else window.body
    return profile_from_callable(base, window, nodes=nodes)


def bandlimit_project(f, window, lam_nodes=128, grid=None):
    """Group convolution with the synthesized window kernel.

    On spectral data the convolution theorem collapses this to reweighting
    each frequency node by the window value, and that identity is exact for
    the finite form, so it is used directly; a ground form stays a ground
    form with its amplitudes reweighted.  Otherwise the window kernel is
    synthesized and the group convolution evaluated by quadrature over the
    function's grid box.
    """
    from .fock import group_convolve

    grid = grid or f.grid
    model = f.model
    if f.spectral is not None:
        lams = f.spectral.lambdas
        scale = window(lams)
        if f.spectral.amp is not None:
            form = SpectralForm.ground(model, lams, f.spectral.amp * scale)
        else:
            base = f.spectral.coeff

            def coeff(z):
                return base(z) * scale

            form = SpectralForm(lams, coeff)
        return SampledFunction(model, form, grid, spectral=form, meta={"windowed": True})
    if window.empty:
        return SampledFunction(
            model,
            lambda z, x: np.zeros(np.broadcast_shapes(z.shape[:-1], x.shape[:-1])),
            grid,
            meta={"windowed": True},
        )
    kernel = inverse_FN(model, window_profile(window, nodes=lam_nodes))
    out = group_convolve(f, kernel, grid=grid)
    out.meta["windowed"] = True
    return out


def spectrum_support(f, lam_grid, body=None, zs=None, xbox=160.0, xnodes=768):
    """Per-frequency fiber-transform magnitudes over a small first-layer stencil.

    Returns a dict with the grid, the pointwise maximum of |fhat| over the
    stencil, and (when a body is given) the fraction of that mass sitting
    outside the body.  The grid is treated as uniform for the mass ratio.
    """
    model = f.model
    lam_grid = np.atleast_2d(np.asarray(lam_grid, float))
    if lam_grid.shape[1] != model.m:
        lam_grid = lam_grid.reshape(-1, model.m)
    if zs is None:
        rng = np.random.default_rng(0)
        zs = np.concatenate(
            [
                np.zeros((1, model.n), complex),
                0.5 * (rng.standard_normal((2, model.n))
                       + 1j * rng.standard_normal((2, model.n))),
            ]
        )
    xn, xw = tensor_rule([gauss_legendre(xnodes, -xbox, xbox)] * model.m)
    fhat, _, _ = central_transform(f, np.asarray(zs, complex), lam_grid, xn, xw)
    mass = np.abs(fhat).max(axis=0)
    out = {"lambdas": lam_grid, "mass": mass}
    if body is not None:
        inside = np.array([bool(contains(body, lam)) for lam in lam_grid])
        total = mass.sum()
        out["outside_fraction"] = float(mass[~inside].sum() / total) if total > 0 else 0.0
    return out
