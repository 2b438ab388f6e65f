"""Band-limited synthesis, analysis, extension, and spectral windows.

A spectral profile is a smooth density psi on a convex body K of central
frequencies.  Synthesis is the weighted quadrature

    f0(z, x) = c_N sum_j w_j psi(lam_j) |Pf(lam_j)|
               exp(-<lam_j, Phi(z)>) exp(i <lam_j, x>),

c_N = `plancherel_constant(model, 0)`, the ground-coefficient band-limited
function with spectrum in K.  Profiles
are expected to live in the closed positivity cone, where the layer weight
is the plain pairing <lam, Phi(z)>; nodes outside it are reported and the
result is not guaranteed to satisfy the tangential equations.

Analysis is the trace of the integrated representation, lam -> tr
pi_lam(f), evaluated layer by layer.  For band-limited data the operator is
rank one on the ground vector, so the trace recovers psi exactly up to
quadrature; the central box must be long because band-limited functions
decay slowly along the center (`LONG_XBOX` reaches well past 1e-6).

The ambient extension continues f0 holomorphically in the central variable.
Route A (`extend_by_resynthesis`) resynthesizes from the boundary function:
a Euclidean transform of f0(zeta, .) followed by a complex-frequency
quadrature.  Route B (`extend_profile`) evaluates the rank-one trace display
directly from the profile.  Route A's x-integral over the long central box
is taken in closed form through f0's spectral form, but the two routes
share no intermediate value past f0 itself, which is what makes their
agreement a meaningful check.  Both grow like exp(H_K(rho)) with
rho = Im u - Phi(z).

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
from .fock import fock_basis, group_convolve, pi_of_f_batch
from .functions import (GridSpec, SampledFunction, SpectralForm, _central_transform,
                        _check_exponent)
from .quadrature import gauss_legendre, tensor_rule
from .spectral import (generic_dimension, is_exceptional, layer_invariants,
                       plancherel_constant, spectral_data)

__all__ = [
    "smooth_bump",
    "SpectralProfile",
    "profile_from_callable",
    "bump_profile",
    "inverse_FN",
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

LONG_XBOX = 160.0
LONG_XNODES = 768
_POINT_CAP = 16384
_REFINE_RTOL = 1e-8


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


def inverse_FN(model, profile, grid=None):
    """Band-limited synthesis from a spectral profile.

    Returns a SampledFunction carrying the finite SpectralForm, a ground
    form with amplitudes c_N w_j psi(lam_j) |Pf(lam_j)|.  Profile
    nodes outside the closed positivity cone (A(lam) has a negative
    eigenvalue) make the ground-layer weight formula unreliable; the result's
    `warnings` names them.
    """
    grid = grid or GridSpec()
    lams = profile.lambdas
    pf, n_negative, _ = layer_invariants(model, lams)
    warnings = tuple(
        f"profile node {j} lies outside the closed positivity cone"
        for j in np.flatnonzero(n_negative)
    )
    amp = plancherel_constant(model, 0) * profile.weights * profile.values * pf  # (J,)
    form = SpectralForm.ground(model, lams, amp)
    return SampledFunction(model, form, grid, spectral=form, warnings=warnings)


def forward_FN(f, lambdas, degree=8):
    """The transform lam -> tr pi_lam(f), one layer quadrature per frequency.

    Each frequency is one `pi_of_f_batch` call on its own clipped grid.  A
    batch of frequencies on the shared unclipped grid would interpolate fhat
    instead, which on criterion 04's 32-node convolution grid moves the error
    from 6.5e-6 to 2.1e-5 with nothing to report it.

    Returns (values, warnings).  Exceptional frequencies are skipped with a
    warning and a nan entry.  The grid is the function's own perpendicular
    box with the central box `LONG_XBOX`, which band-limited data needs; its
    x-rule `LONG_XNODES` matters only for a sampled f, since a spectral form
    is transformed in closed form on the box.  Accuracy warnings from the
    operator quadrature are passed through.
    """
    model = f.model
    lambdas = np.atleast_2d(np.asarray(lambdas, float))
    grid = GridSpec(ebox=f.grid.ebox, enodes=f.grid.enodes, fbox=LONG_XBOX, fnodes=LONG_XNODES)
    gen_d = generic_dimension(model)
    out = np.full(lambdas.shape[0], np.nan, complex)
    warnings = []
    for j in range(lambdas.shape[0]):
        sd = spectral_data(model, lambdas[j])
        if is_exceptional(sd, gen_d):
            warnings.append(f"frequency {j} is exceptional, skipped")
            continue
        mats, warns = pi_of_f_batch(fock_basis(sd, degree), f, grid=grid)
        out[j] = np.trace(mats[0])
        warnings.extend(warns)
    return out, warnings


def _continuation(f, z, u, body=None):
    """sum_j c_j(z) e^(i<lam_j, u> + <lam_j, Phi(z)>), times e^(-H_K(Im u - Phi(z))) given K.

    For a ground form c_j(z) e^(<lam_j, Phi(z)>) = amp_j, so the sum is
    amp_j e^(i<lam_j, u>) and the exponent checked is the one it takes, free
    of Phi(z); any other form takes its coefficients and e^(<lam_j, Phi(z)>).
    """
    if f.spectral is None:
        raise ValueError("the extension needs a function with a spectral form")
    lams, amp = f.spectral.lambdas, f.spectral.amp
    rho = np.imag(u) - f.model.phi(z)
    hk = 0.0 if body is None else support(body, rho)[:, None]
    expo = -((np.imag(u) if amp is not None else rho) @ lams.T) - hk  # (..., J)
    _check_exponent(expo, "the extension exponent at points outside the pairing cone")
    c = f.spectral.coeff(z) if amp is None else np.broadcast_to(amp, rho.shape[:-1] + amp.shape)
    return np.einsum("...j,...j->...", c, np.exp(expo + 1j * (np.real(u) @ lams.T)))


def extend(f, z, u):
    """Holomorphic continuation of a spectral-form function in the center.

    z is a point of E (complex, (..., n)), u a complex central variable
    (..., m).  On the boundary slice u = x + i Phi(z) this reproduces f.
    A ground form is summed as amp_j e^(i<lam_j, u>), which does not depend
    on z, so any z is served where route B serves it; route A, which reads f
    only through its fiber transform at z, refuses a point whose
    e^(<lam, Phi(z)>) passes the limit even so.  Raises ValueError when an
    exponent passes `functions.EXP_LIMIT` (the point lies too deep outside
    the pairing cone), as both routes do.
    """
    return _continuation(f, np.asarray(z, complex), np.asarray(u, complex))


def _gl_refine(body, integrand, start=64):
    """Tensor Gauss value with node doubling until stable.

    integrand maps (J, m) nodes to (..., J) values; the weighted sum over
    the last axis is the integral.  The rule may grow to _POINT_CAP points
    in all, nodes per axis to the power m; a RuntimeError stating the last
    relative change is raised when no two successive values agree to
    _REFINE_RTOL by then.  A start whose first two rules do not fit in
    _POINT_CAP points raises a ValueError before anything is evaluated, and
    so does a non-finite integrand value, on the first rule that reads one.
    """
    lo, hi = _body_box(body)
    m = lo.size
    if (2 * start) ** m > _POINT_CAP:
        raise ValueError(
            f"frequency quadrature from {start} nodes per axis on an m = {m} body "
            f"needs {(2 * start) ** m} points for its first two rules, more than "
            f"the {_POINT_CAP} allowed; start from fewer nodes"
        )
    nodes = start
    prev = None
    change = np.inf
    while nodes**m <= _POINT_CAP:
        lams, w = tensor_rule([gauss_legendre(nodes, lo[k], hi[k]) for k in range(m)])
        vals = integrand(lams)
        if not np.isfinite(vals).all():
            raise ValueError(f"frequency quadrature read a non-finite integrand value at "
                             f"{nodes} nodes per axis ({nodes**m} points)")
        val = vals @ w
        if prev is not None:
            diff, scale = np.max(np.abs(val - prev)), np.max(np.abs(val)) + 1e-300
            if diff < _REFINE_RTOL * scale:
                return val
            change = diff / scale
        prev = val
        nodes *= 2
    raise RuntimeError(
        f"frequency quadrature did not settle within {_POINT_CAP} points: "
        f"last relative change {change:.3e}, rtol {_REFINE_RTOL:.1e}"
    )


def extend_profile(model, profile, z, u, lam_nodes=64):
    """Ambient extension straight from a profile (route B).

    Quadratures the rank-one trace display

        c_N int_K psi |Pf| e^{-<lam, Phi(z)>} e^{<lam, iu + Phi(z)>} dlam,

    whose Phi(z) factors cancel: for ground data the extension does not
    depend on z, taken so that both routes read the same (z, u) pairs.  Node
    doubling on the frequency body holds at most 16384 points in all, and
    the first two rules, lam_nodes and 2 lam_nodes per axis, must fit:
    lam_nodes <= 64 on m = 2 and <= 12 on m = 3; a larger lam_nodes raises a
    ValueError, as does a point whose exponent passes `functions.EXP_LIMIT`.
    `extend_by_resynthesis` is the independent route A, through the boundary
    function's fiber transform.
    """
    if profile.psi is None:
        raise ValueError("route B refinement needs the profile's evaluator")
    u = np.atleast_2d(np.asarray(u, complex))
    const = plancherel_constant(model, 0)

    def integrand(lams):
        pf, _, _ = layer_invariants(model, lams)
        vals = np.asarray(profile.psi(lams), float)
        return const * vals * pf * np.exp(_check_exponent(1j * (u @ lams.T), "route B's integrand"))

    return _gl_refine(profile.body, integrand, start=lam_nodes)


def extend_by_resynthesis(f, body, z, u, xbox=LONG_XBOX, lam_nodes=64):
    """Ambient extension of boundary data f by resynthesis (route A).

    Takes the Euclidean fiber transform of f along the center at each
    requested z, over a long central box, and resynthesizes with the
    complex-frequency kernel on a Gauss grid over the frequency body's box;
    it touches the data only through f.  The fiber transform of a spectral
    form is its closed form on the box, so `LONG_XNODES` matters only for sampled f.

    The box kernel oscillates like e^(i xbox lam_k), so across an axis of
    width hi_k - lo_k it turns through xbox (hi_k - lo_k) / 2 radians about
    the midpoint, and a lam_nodes-point Gauss rule, exact to degree
    2 lam_nodes - 1, resolves it only when that degree reaches the turn.  A
    rule short of it on any axis raises a ValueError naming the lam_nodes
    needed, rather than return unresolved values; so does a point whose
    kernel exponent passes `functions.EXP_LIMIT`, as in `extend`.  The
    kernel carries e^(<lam, Phi(z)>) against the fiber transform's decay, so
    far off the centre (|z|^2 max lam past 600 on the Heisenberg model)
    route A refuses points where `extend` and route B, which sum a ground
    form free of Phi(z), return values of order one.
    """
    model = f.model
    z = np.atleast_2d(np.asarray(z, complex))
    u = np.atleast_2d(np.asarray(u, complex))
    lo, hi = _body_box(body)
    turn = float(np.max(xbox * (hi - lo) / 2.0))
    if 2 * lam_nodes - 1 < turn:
        raise ValueError(
            f"route A with {lam_nodes} frequency nodes per axis cannot resolve the box "
            f"kernel of xbox = {xbox:g} on this body: it needs lam_nodes >= "
            f"{math.ceil((turn + 1.0) / 2.0)}"
        )
    lams, lw = tensor_rule([gauss_legendre(lam_nodes, lo[k], hi[k]) for k in range(model.m)])
    # resynthesis kernel e^{i<lam, u - i Phi(z)>}: the Phi shift makes the
    # boundary slice u = x + i Phi(z) collapse back to plain e^{i<lam,x>}
    resynth = np.exp(_check_exponent(1j * ((u - 1j * model.phi(z)) @ lams.T), "route A's kernel"))
    fhat = _central_transform(f, lams, xbox, LONG_XNODES, False)(z)[0]  # (P, J)
    return (fhat * resynth) @ lw / (2.0 * np.pi) ** model.m


def pw_margin(f, body, z, u, order=4):
    """Growth margins |F(z, u)| (1+|z|^2+|u|)^order exp(-H_K(rho)), rho = Im u - Phi(z).

    -H_K(rho) enters each exponent of `extend`'s sum, so with f's frequencies
    in K none is positive and the margins are exact at any depth.  On a cone
    body, probes outside the polar have H_K = +inf and read 0.
    """
    z = np.atleast_2d(np.asarray(z, complex))
    u = np.atleast_2d(np.asarray(u, complex))
    poly = (1.0 + np.sum(np.abs(z) ** 2, axis=1) + np.linalg.norm(u, axis=1)) ** order
    return np.abs(_continuation(f, z, u, body)) * poly


@functools.cache
def _bump_cdf():
    """Distribution function of the unit mollifier, on a dense grid."""
    grid = np.linspace(-1.0, 1.0, 4097)
    dens = smooth_bump(grid)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    mass = cdf[-1]
    return grid, cdf / mass, mass


@dataclass
class WindowFunction:
    """A clipped-mollifier window on a box body."""

    body: ConvexBody
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
        grid, cdf, _ = _bump_cdf()
        for k, (a, b, s) in enumerate(self._per_dim):
            ta = np.interp((lams[:, k] - a) / s, grid, cdf, left=0.0, right=1.0)
            tb = np.interp((lams[:, k] - b) / s, grid, cdf, left=0.0, right=1.0)
            out = out * (ta - tb)
        return out


def spectral_window(body, eps):
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
    _, _, mass = _bump_cdf()
    empty = bool(np.any(hi - lo <= eps))
    return WindowFunction(
        body=body,
        plateau=empty_body(body.m) if empty else erode(body, 3.0 * eps / 4.0),
        outer=erode(body, eps / 4.0),
        deriv_bound=4.0 / (eps * mass),
        empty=empty,
        _per_dim=() if empty else tuple((lo[k] + eps / 2.0, hi[k] - eps / 2.0, eps / 4.0)
                                        for k in range(body.m)),
    )


def bandlimit_project(f, window, lam_nodes=128):
    """Group convolution with the synthesized window kernel.

    On spectral data the convolution theorem collapses this to reweighting
    each frequency node by the window value, and that identity is exact for
    the finite form, so it is used directly; a ground form stays a ground
    form with its amplitudes reweighted.  Otherwise the window kernel is
    synthesized and the group convolution evaluated by quadrature over the
    function's grid box.
    """
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
        return SampledFunction(model, form, f.grid, spectral=form)
    if window.empty:
        return SampledFunction(
            model,
            lambda z, x: np.zeros(np.broadcast_shapes(z.shape[:-1], x.shape[:-1])),
            f.grid,
        )
    # a window that is not empty has a polytope support box, `outer`
    kernel = inverse_FN(model, profile_from_callable(window.outer, window, lam_nodes))
    return group_convolve(f, kernel)


def spectrum_support(f, lam_grid, body=None):
    """Per-frequency fiber-transform magnitudes over a small first-layer stencil.

    Returns a dict with the grid, the pointwise maximum of |fhat| over the
    stencil, and (when a body is given) the fraction of that mass sitting
    outside the body.  The grid is treated as uniform for the mass ratio.
    fhat is taken over the central box `LONG_XBOX`, in closed form for a
    spectral form; `LONG_XNODES` matters only for sampled f.
    """
    model = f.model
    lam_grid = np.atleast_2d(np.asarray(lam_grid, float))
    if lam_grid.shape[1] != model.m:
        lam_grid = lam_grid.reshape(-1, model.m)
    rng = np.random.default_rng(0)
    seeded = 0.5 * (rng.standard_normal((2, model.n)) + 1j * rng.standard_normal((2, model.n)))
    zs = np.concatenate([np.zeros((1, model.n), complex), seeded])
    fhat = _central_transform(f, lam_grid, LONG_XBOX, LONG_XNODES, False)(zs)[0]
    mass = np.abs(fhat).max(axis=0)
    out = {"lambdas": lam_grid, "mass": mass}
    if body is not None:
        inside = contains(body, lam_grid)
        total = mass.sum()
        out["outside_fraction"] = float(mass[~inside].sum() / total) if total > 0 else 0.0
    return out
