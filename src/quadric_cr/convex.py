"""Convex bodies of central frequencies and their cone geometry.

Bodies live in the real dual of the center.  A body is either a polytope
(convex hull of finitely many vertices), a closed convex cone (nonnegative
hull of finitely many generators), or empty.  The support function follows
the sign convention

    H_K(v) = sup_{lam in K} < lam, -v >,

so that growth estimates read exp(H_K(Im z)) directly.  `contains`,
`support` and `boundary_distance` take one point (m,) and return a scalar, or
a stack (P, m) and return a (P,) array; the last two give a point the same
bits in any stack.

Polar cones come from one rule in every dimension: the facet normals of
the cone over the body's rays, each the null vector of rays spanning a
facet, plus the orthogonal complement of the rays' span.

Only three routines need scipy, and each imports it where it is called:
polytope hulls in m >= 2 (`ConvexHull`), erosion (`linprog`,
`HalfspaceIntersection`) and nnls membership (`nnls`).  Importing
scipy.optimize takes longer than most of this package's computations, and
the frequency-layer paths never build a hull.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexBody",
    "polytope_body",
    "interval_body",
    "box_body",
    "segment_body",
    "cone_body",
    "empty_body",
    "support",
    "contains",
    "polar_cone",
    "boundary_distance",
    "erode",
    "project_body",
    "cone_inequality_constant",
]

_TOL = 1e-12


@dataclass(frozen=True)
class ConvexBody:
    """A polytope (vertices), closed cone (generators), or empty set."""

    kind: str
    points: np.ndarray

    def __post_init__(self):
        if self.kind not in ("polytope", "cone", "empty"):
            raise ValueError(f"unknown body kind {self.kind!r}")
        pts = np.atleast_2d(np.asarray(self.points, float))
        object.__setattr__(self, "points", pts)

    @property
    def m(self):
        return self.points.shape[1]


def _dedupe(pts):
    """The points in order, each dropped that is close to an earlier kept one.

    Close is `np.allclose`'s rule against the kept point q,
    |p - q| <= 1e-12 + 1e-5 |q| in every coordinate, read off one pairwise
    matrix; a dropped point drops nothing after it.
    """
    pts = np.atleast_2d(np.asarray(pts, float))
    if pts.shape[0] < 2:
        return pts
    # close[i, k]: point i lies within the rule of point k
    close = np.isclose(pts[:, None, :], pts[None, :, :], rtol=1e-5, atol=1e-12).all(axis=-1)
    keep = np.ones(pts.shape[0], bool)
    for k in range(pts.shape[0]):
        if keep[k]:
            keep[k + 1 :] &= ~close[k + 1 :, k]
    return pts[keep]


def polytope_body(vertices):
    v = _dedupe(vertices)
    if v.size == 0:
        raise ValueError("a polytope needs at least one vertex")
    return ConvexBody("polytope", v)


def interval_body(lo, hi):
    if hi < lo:
        raise ValueError("empty interval")
    return polytope_body([[float(lo)], [float(hi)]])


def box_body(lo, hi):
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    if np.any(hi < lo):
        raise ValueError("empty box")
    corners = [[]]
    for k in range(lo.size):
        corners = [c + [v] for c in corners for v in (lo[k], hi[k])]
    return polytope_body(corners)


def segment_body(a, b):
    return polytope_body([a, b])


def cone_body(generators):
    g = np.atleast_2d(np.asarray(generators, float))
    m = g.shape[1]
    norms = np.linalg.norm(g, axis=1)
    g = g[norms > _TOL]
    if g.shape[0]:
        g = _dedupe(g / np.linalg.norm(g, axis=1, keepdims=True))
    return ConvexBody("cone", g if g.size else np.zeros((0, m)))


def empty_body(m):
    return ConvexBody("empty", np.zeros((0, m)))


def support(body, v):
    """H_K(v) = sup over the body of <lam, -v>."""
    v = np.asarray(v, float)
    pts = _stack(body, v)
    h = np.max(-_pairings(pts, body.points), axis=1, initial=-np.inf)
    if body.kind == "cone":
        h = np.where(h <= _TOL * np.maximum(1.0, np.linalg.norm(pts, axis=1)), 0.0, np.inf)
    return float(h[0]) if v.ndim == 1 else h


def _stack(body, lam):
    """One point (m,) or a stack (P, m) as a (P, m) stack; other shapes raise."""
    pts = np.atleast_2d(lam)
    if pts.ndim != 2 or pts.shape[1] != body.m:
        raise ValueError(f"expected points of shape (m,) or (P, m) with m = {body.m}")
    return pts


def _pairings(pts, vecs):
    """<pts[p], vecs[k]> as (P, K): one matrix-vector product per point, so a
    point gets the same bits alone or in any stack, unlike (P, m) @ (m, K)."""
    return np.matmul(vecs, pts[:, :, None])[:, :, 0]


def contains(body, lam, tol=1e-9):
    """Membership of one point (m,), a bool, or of a stack (P, m), a (P,) array.

    A point is inside when its measured distance is at most tol * scale,
    scale = max(1, max |vertex or generator entry|, max |lam entry|), point
    by point.  The measure depends on the body:

    - polytope, m = 1: the distance to the interval;
    - cone with linearly independent generators (none, or the one of a
      half-line, included): the distance to the cone, from its own
      generators (`_cone_distance`), never from halfspaces of its polar;
    - anything else (a polytope with m >= 2, a cone with dependent
      generators): the residual of a nonnegative least-squares fit on the
      generators, one nnls per point (`_nnls_residual`).

    The nnls rule is the reference.  On a cone it measures the same distance,
    so the two agree up to rounding.  On an interval it measures the distance
    from (lam, 1) to the cone over the lifted vertices (v, 1), which lies
    between d / sqrt(1 + R^2) and d, where d is the distance to the interval
    and R its largest endpoint norm.  The rules therefore agree at every point
    with d <= tol * scale (inside) and with d > sqrt(1 + R^2) tol * scale
    (outside), and may differ only in the band between.
    """
    lam = np.asarray(lam, float)
    pts = _stack(body, lam)
    if body.kind == "empty":
        inside = np.zeros(pts.shape[0], bool)
    else:
        scale = np.maximum(
            max(1.0, float(np.abs(body.points).max(initial=0.0))),
            np.abs(pts).max(axis=1),
        )
        inside = _measure(body, pts) <= tol * scale
    return bool(inside[0]) if lam.ndim == 1 else inside


def _measure(body, pts):
    """The distance-like quantity `contains` compares with tol * scale."""
    if body.kind == "polytope" and body.m == 1:
        lo, hi = body.points.min(), body.points.max()
        return np.maximum(lo - pts[:, 0], pts[:, 0] - hi)
    if body.kind == "cone" and np.linalg.matrix_rank(body.points) == body.points.shape[0]:
        return _cone_distance(body.points, pts)
    return np.array([_nnls_residual(body, p) for p in pts])


def _cone_distance(gens, pts):
    """Distance from each point (P, m) to the cone of independent generators.

    The nearest point of the cone is the least-squares fit on the one face
    whose coefficients all come out nonnegative, so the distance is the least
    residual over such faces, the apex (|lam|) included.  Each face is one
    solve for all points; on a half-line this is max(-<lam, g>, 0) for unit g.
    """
    best = np.linalg.norm(pts, axis=1)
    k = gens.shape[0]
    for size in range(1, k + 1):
        for face in itertools.combinations(range(k), size):
            g = gens[list(face)].T
            x = np.linalg.lstsq(g, pts.T, rcond=None)[0]
            res = np.linalg.norm(g @ x - pts.T, axis=0)
            best = np.where(np.all(x >= 0, axis=0), np.minimum(best, res), best)
    return best


def _nnls_residual(body, lam):
    """Residual of the nonnegative least-squares fit of one point.

    A cone fits lam by its generators, which gives the distance to the cone.
    A polytope fits (lam, 1) by its lifted vertices (v, 1).  The reference
    rule of `contains`; the body needs at least one vertex or generator.
    """
    # local: scipy.optimize is slow to import and only nnls membership needs it
    from scipy.optimize import nnls

    a, b = body.points.T, np.asarray(lam, float)
    if body.kind == "polytope":
        a = np.vstack([a, np.ones(a.shape[1])])
        b = np.append(b, 1.0)
    x, _ = nnls(a, b)
    # recompute the residual ourselves: scipy 1.15's nnls can report a
    # zero rnorm for systems it did not actually fit
    return float(np.linalg.norm(a @ x - b))


def _rays(body):
    pts = body.points
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > _TOL]
    if pts.shape[0] == 0:
        return pts
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def polar_cone(body):
    """The cone { h : <lam, h> >= 0 for all lam in the body }, in any dimension.

    The polar of the cone over the body's rays is generated by the facet
    normals of that cone (Rockafellar, Convex Analysis, 1970, section 14).
    With r the dimension of the rays' span, its generators are +-each basis
    vector of the span's orthogonal complement and, inside the span, each
    unit null vector of r - 1 independent rays with which every ray pairs
    >= -1e-9.  A span direction thinner than that pairing tolerance counts
    as no direction, so the rank cut is the same 1e-9.
    """
    if body.kind == "empty":
        raise ValueError("the polar of the empty body is not represented")
    rays = _rays(body)
    _, s, vt = np.linalg.svd(rays)
    r = int(np.sum(s > 1e-9 * s.max(initial=0.0)))
    span, perp = vt[:r], vt[r:]
    gens = [perp, -perp]
    # no subsets when r = 0: the body is {0} and its polar the whole space
    for face in itertools.combinations(range(rays.shape[0]), r - 1) if r else ():
        _, fs, fvt = np.linalg.svd(rays[list(face)] @ span.T)
        if np.all(fs > 1e-9 * fs.max(initial=0.0)):
            normal = fvt[-1] @ span
            gens += [n[None, :] for n in (normal, -normal) if np.min(rays @ n) >= -1e-9]
    return cone_body(np.concatenate(gens))


def _affine_dim(pts, tol=1e-10):
    if pts.shape[0] < 2:
        return 0
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def _hull_halfspaces(vertices):
    # local: only polytope hulls with m >= 2 need scipy.spatial
    from scipy.spatial import ConvexHull

    hull = ConvexHull(vertices)
    # rows are [normal | offset] with normal x + offset <= 0 inside
    return hull.equations


def boundary_distance(body, lam):
    """Euclidean distance from lam to the boundary; 0 outside or on it."""
    lam = np.asarray(lam, float)
    pts = _stack(body, lam)
    normals, offsets = _facets(body)
    slack = np.min(_pairings(pts, normals) + offsets, axis=1)
    dist = np.where(slack > 0.0, slack, 0.0)
    return float(dist[0]) if lam.ndim == 1 else dist


def _facets(body):
    """Unit inward normals (F, m) and offsets (F,) of the facets, the polar's
    generators on a cone; one zero normal, and so distance 0, for a body with
    no interior or a cone with a trivial polar."""
    if body.kind == "polytope" and body.m == 1:
        lo, hi = body.points.min(), body.points.max()
        return np.array([[1.0], [-1.0]]), np.array([-lo, hi])
    if body.kind == "polytope" and _affine_dim(body.points) == body.m:
        eqs = _hull_halfspaces(body.points)
        return -eqs[:, :-1], -eqs[:, -1]
    dual = polar_cone(body).points if body.kind == "cone" else np.zeros((0, body.m))
    return (dual if dual.shape[0] else np.zeros((1, body.m))), 0.0


def erode(body, eps):
    """Inner parallel body { lam : dist(lam, boundary) >= eps }."""
    if eps < 0:
        raise ValueError("erosion depth must be nonnegative")
    if body.kind == "empty":
        return body
    if body.kind == "cone":
        raise ValueError("erosion is defined here for polytopes only")
    if eps == 0:
        return body
    if body.m == 1:
        lo, hi = body.points.min(), body.points.max()
        if hi - lo < 2 * eps:
            return empty_body(1)
        return interval_body(lo + eps, hi - eps)
    if _affine_dim(body.points) < body.m:
        return empty_body(body.m)
    # local: only erosion needs the LP solver and the halfspace intersection
    from scipy.optimize import linprog
    from scipy.spatial import HalfspaceIntersection

    eqs = _hull_halfspaces(body.points)
    a, b = eqs[:, :-1], eqs[:, -1] + eps  # normals are unit: shift inward
    # Chebyshev center of the shrunk region to seed the intersection
    res = linprog(
        c=np.concatenate([np.zeros(body.m), [-1.0]]),
        A_ub=np.hstack([a, np.ones((a.shape[0], 1))]),
        b_ub=-b,
        bounds=[(None, None)] * body.m + [(None, None)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 0:
        return empty_body(body.m)
    center = res.x[: body.m]
    hs = HalfspaceIntersection(np.hstack([a, b[:, None]]), center)
    return polytope_body(hs.intersections)


def project_body(body, basis):
    """Image of the body under lam -> basis^T lam, basis of shape (m, p)."""
    basis = np.asarray(basis, float)
    pts = body.points @ basis
    if body.kind == "empty":
        return empty_body(basis.shape[1])
    if body.kind == "cone":
        return cone_body(pts)
    return polytope_body(pts)


def _sphere_directions(m, count):
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        th = 2 * np.pi * np.arange(count) / count
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    out = []
    bands = max(2, int(math.sqrt(count)))
    for i in range(bands + 1):
        phi = np.pi * i / bands
        ring = max(1, int(round(count / bands * math.sin(phi))) or 1)
        for j in range(ring):
            th = 2 * np.pi * j / ring
            out.append(
                [math.sin(phi) * math.cos(th), math.sin(phi) * math.sin(th), math.cos(phi)]
            )
    return _dedupe(np.array(out))


def _body_directions(body, count):
    """Deterministic unit directions inside the cone, mixes of its generators.

    Every pair of generators is mixed along the segment between them.  With
    three or more generators those mixes may all lie on faces (they do on a
    simplicial cone), so strictly positive weights on a simplex lattice of
    at least count points are added to reach the interior.
    """
    rays = _rays(body)
    k = rays.shape[0]
    if k <= 1:
        return rays
    steps = max(2, count // (k - 1))
    mixes = [(1 - t) * rays[i] + t * rays[j]
             for i, j in itertools.combinations(range(k), 2)
             for t in np.linspace(0.0, 1.0, steps)]
    if k > 2:
        s = k
        while math.comb(s - 1, k - 1) < count:
            s += 1
        # the k - 1 bars of a stars-and-bars split of s give weights >= 1/s
        for bars in itertools.combinations(range(1, s), k - 1):
            mixes.append(np.diff((0,) + bars + (s,)) / s @ rays)
    out = []
    for v in mixes:
        n = np.linalg.norm(v)
        if n > _TOL:
            out.append(v / n)
    return np.array(out)


def cone_inequality_constant(body, directions=181):
    """Largest C with <lam, h> >= C |h| dist(lam, boundary) on scanned pairs.

    lam runs over a deterministic angular grid inside the cone, h over unit
    directions filtered to the polar cone (every generator pairs
    nonnegatively); `directions` sets the size of both scans.  The returned
    value is the infimum over the scan, an upper bound for the sharp
    constant that converges as the grids refine.  The sphere grid of h is
    built for m <= 3, so a cone in more dimensions is a ValueError.
    """
    if body.kind != "cone":
        raise ValueError("the cone inequality is about cone bodies")
    if body.m > 3:
        raise ValueError(f"the direction scan covers m <= 3, not m = {body.m}")
    lam_dirs = _body_directions(body, directions)
    if lam_dirs.shape[0] == 0:
        raise ValueError("cannot scan the trivial cone")
    hs = _sphere_directions(body.m, directions)
    # h lies in the polar cone exactly where the cone's support at h is 0
    hs = hs[support(body, hs) == 0.0]
    if hs.shape[0] == 0:
        raise ValueError("the polar cone contains no scan directions")
    dist = boundary_distance(body, lam_dirs)
    pairings = np.min(lam_dirs @ hs.T, axis=1)
    # a direction on a face has distance 0, or a rounding residue of the
    # facet normals near 1e-16: skip it rather than divide by it; a trivial
    # polar leaves every distance 0 and the constant inf
    keep = dist > 1e-9
    return float(np.min(pairings[keep] / dist[keep], initial=np.inf))
