import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadric_cr import convex
from quadric_cr.configio import load_body
from quadric_cr.convex import (
    _body_directions,
    _nnls_residual,
    _sphere_directions,
    box_body,
    boundary_distance,
    cone_body,
    cone_inequality_constant,
    contains,
    empty_body,
    erode,
    interval_body,
    polar_cone,
    polytope_body,
    project_body,
    segment_body,
    support,
)


TRIVIAL_CONE = [[1.0, 0.1], [-1.0, 0.1], [0.0, -1.0]]


def _assert_stack_is_pointwise(fn, body, extra=()):
    """fn on a (P, m) stack gives the bits of fn point by point; a point gives a float."""
    rng = np.random.default_rng(17)
    pts = np.concatenate([np.reshape(extra, (-1, body.m)), 2.0 * rng.standard_normal((64, body.m))])
    singles = [fn(body, p) for p in pts]
    assert all(type(v) is float for v in singles)
    got = fn(body, pts)
    assert got.shape == (pts.shape[0],)
    assert got.tobytes() == np.array(singles).tobytes()
    return got


def test_support_sign_convention():
    k = interval_body(1.0, 2.0)
    assert support(k, np.array([1.0])) == -1.0
    assert support(k, np.array([-1.0])) == 2.0
    box = box_body([0.0, 0.0], [1.0, 2.0])
    assert support(box, np.array([-1.0, -1.0])) == 3.0
    assert support(empty_body(2), np.array([1.0, 0.0])) == -np.inf
    assert _assert_stack_is_pointwise(support, k, [[1.0], [-1.0]])[:2].tolist() == [-1.0, 2.0]
    assert _assert_stack_is_pointwise(support, box, [-1.0, -1.0])[0] == 3.0
    seg = segment_body([0.0, 0.3], [1.1, 0.7])
    assert _assert_stack_is_pointwise(support, seg, [0.0, -1.0])[0] == 0.7
    assert np.all(_assert_stack_is_pointwise(support, empty_body(2)) == -np.inf)
    with pytest.raises(ValueError):
        support(box, np.zeros((3, 3)))


def test_support_on_cones():
    half = cone_body([[1.0]])
    assert support(half, np.array([1.0])) == 0.0
    assert support(half, np.array([-1.0])) == np.inf
    quad = cone_body([[1.0, 0.0], [0.0, 1.0]])
    assert support(quad, np.array([0.5, 0.5])) == 0.0
    assert support(quad, np.array([-0.1, 1.0])) == np.inf
    assert _assert_stack_is_pointwise(support, half, [[1.0], [-1.0]])[:2].tolist() == [0.0, np.inf]
    got = _assert_stack_is_pointwise(support, quad, [[0.5, 0.5], [-0.1, 1.0]])
    assert got[:2].tolist() == [0.0, np.inf]
    got = _assert_stack_is_pointwise(support, cone_body(np.eye(3)), [[1.0, 2.0, 0.0], [1.0, -1e-3, 0.0]])
    assert got[:2].tolist() == [0.0, np.inf]
    # the trivial cone's support is inf in every direction but 0
    got = _assert_stack_is_pointwise(support, cone_body(TRIVIAL_CONE), [0.0, 0.0])
    assert got[0] == 0.0 and np.all(got[1:] == np.inf)


def test_contains_polytope():
    box = box_body([0.0, 0.0], [1.0, 1.0])
    assert contains(box, [0.5, 0.5])
    assert contains(box, [1.0, 1.0])
    assert contains(box, [1.0 + 1e-12, 0.5])
    assert not contains(box, [1.1, 0.5])
    seg = segment_body([0.0, 0.0], [1.0, 1.0])
    assert contains(seg, [0.25, 0.25])
    assert not contains(seg, [0.25, 0.3])
    got = contains(box, [[0.5, 0.5], [1.1, 0.5]])
    assert got.dtype == bool and got.tolist() == [True, False]
    assert contains(box, [0.5, 0.5]) is True
    with pytest.raises(ValueError):
        contains(box, [0.5, 0.5, 0.5])


def test_contains_cone():
    quad = cone_body([[1.0, 0.0], [0.0, 1.0]])
    assert contains(quad, [3.0, 5.0])
    assert contains(quad, [0.0, 0.0])
    assert not contains(quad, [-0.5, 1.0])


def test_polar_cone_1d():
    assert np.allclose(polar_cone(interval_body(1.0, 2.0)).points, [[1.0]])
    assert np.allclose(polar_cone(interval_body(-2.0, -1.0)).points, [[-1.0]])
    mixed = polar_cone(interval_body(-1.0, 2.0))
    assert mixed.points.shape[0] == 0


def test_polar_cone_2d_quadrant():
    quad = cone_body([[1.0, 0.0], [0.0, 1.0]])
    dual = polar_cone(quad)
    assert contains(dual, [1.0, 0.0]) and contains(dual, [0.0, 1.0])
    assert contains(dual, [0.7, 0.7])
    assert not contains(dual, [-0.1, 1.0])


def test_polar_cone_2d_single_ray_is_halfplane():
    dual = polar_cone(cone_body([[1.0, 0.0]]))
    for h in ([0.0, 1.0], [0.0, -1.0], [1.0, 5.0], [1.0, -5.0], [2.0, 0.0]):
        assert contains(dual, np.asarray(h) / np.linalg.norm(h))
    assert not contains(dual, [-0.1, 1.0])


def test_polar_cone_2d_wide_is_trivial():
    wide = cone_body([[1.0, 0.1], [-1.0, 0.1], [0.0, -1.0]])
    trivial = polar_cone(wide)
    assert trivial.points.shape[0] == 0
    assert contains(trivial, [0.0, 0.0]) and not contains(trivial, [0.1, 0.0])


def test_polar_cone_3d_octant():
    oct3 = cone_body(np.eye(3))
    dual = polar_cone(oct3)
    assert contains(dual, [1.0, 1.0, 1.0])
    for e in np.eye(3):
        assert contains(dual, e)
    assert not contains(dual, [-0.2, 0.5, 0.5])


def test_polar_cone_octant_generators_are_exact():
    dual = polar_cone(cone_body(np.eye(3))).points
    assert dual.shape == (3, 3)
    assert np.allclose(dual[np.argsort(np.argmax(dual, axis=1))], np.eye(3), rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", ["simplicial3d", "pyramid3d"])
def test_polar_generators_are_facet_normals(name):
    cone = cone_body(CONE_SCANS[name][0])
    rays, dual = cone.points, polar_cone(cone).points
    assert dual.shape[0] == rays.shape[0]
    pair = dual @ rays.T  # (generators, rays)
    assert pair.min() >= -1e-14
    assert np.all(np.sum(np.abs(pair) <= 1e-14, axis=1) >= 2)


def test_boundary_distance_octant_faces():
    octant = cone_body(np.eye(3))
    assert boundary_distance(octant, np.array([1.0, 1.0, 0.0])) == 0.0
    assert boundary_distance(octant, np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0, abs=1e-14)
    got = _assert_stack_is_pointwise(boundary_distance, octant, [[1.0, 1.0, 0.0], [1.0, 2.0, 3.0]])
    assert got[0] == 0.0 and got[1] == pytest.approx(1.0, abs=1e-14)


def test_boundary_distance_interval_and_box():
    k = interval_body(1.0, 2.0)
    assert boundary_distance(k, np.array([1.4])) == pytest.approx(0.4)
    assert boundary_distance(k, np.array([2.5])) == 0.0
    box = box_body([0.0, 0.0], [1.0, 1.0])
    assert boundary_distance(box, np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert boundary_distance(box, np.array([0.2, 0.9])) == pytest.approx(0.1)
    assert boundary_distance(box, np.array([1.2, 0.5])) == 0.0
    got = _assert_stack_is_pointwise(boundary_distance, k, [[1.4], [2.5], [1.0]])
    assert got[0] == pytest.approx(0.4) and got[1] == got[2] == 0.0
    got = _assert_stack_is_pointwise(boundary_distance, box, [[0.5, 0.5], [0.2, 0.9], [1.2, 0.5]])
    assert got[:3] == pytest.approx([0.5, 0.1, 0.0])


def test_boundary_distance_flat_and_cone():
    seg = segment_body([0.0, 0.0], [1.0, 0.0])
    assert boundary_distance(seg, np.array([0.5, 0.0])) == 0.0
    quad = cone_body([[1.0, 0.0], [0.0, 1.0]])
    assert boundary_distance(quad, np.array([0.3, 0.8])) == pytest.approx(0.3)
    assert boundary_distance(quad, np.array([-0.3, 0.8])) == 0.0
    half = cone_body([[1.0]])
    assert boundary_distance(half, np.array([0.7])) == pytest.approx(0.7)
    assert np.all(_assert_stack_is_pointwise(boundary_distance, seg, [0.5, 0.0]) == 0.0)
    got = _assert_stack_is_pointwise(boundary_distance, quad, [[0.3, 0.8], [-0.3, 0.8]])
    assert got[:2] == pytest.approx([0.3, 0.0])
    got = _assert_stack_is_pointwise(boundary_distance, half, [[0.7], [-0.7]])
    assert got[:2] == pytest.approx([0.7, 0.0])
    for body in (cone_body(TRIVIAL_CONE), empty_body(2)):
        assert np.all(_assert_stack_is_pointwise(boundary_distance, body, [0.3, 0.8]) == 0.0)


def test_erode_interval_and_box():
    k = erode(interval_body(1.0, 2.0), 0.1)
    assert np.allclose(sorted(k.points[:, 0]), [1.1, 1.9])
    assert erode(interval_body(1.0, 2.0), 0.6).kind == "empty"
    box = erode(box_body([0.0, 0.0], [1.0, 1.0]), 0.2)
    got = sorted(tuple(np.round(p, 9)) for p in box.points)
    assert got == sorted(
        [(0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)]
    )


def test_erode_triangle_keeps_margin():
    tri = polytope_body([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    inner = erode(tri, 0.5)
    for p in inner.points:
        assert boundary_distance(tri, p) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ValueError):
        erode(cone_body([[1.0, 0.0]]), 0.1)


def test_project_body():
    box = box_body([0.0, -1.0], [1.0, 1.0])
    proj = project_body(box, np.array([[1.0], [0.0]]))
    assert proj.kind == "polytope"
    assert sorted(proj.points[:, 0]) == [0.0, 1.0]


def _dedupe_point_by_point(pts):
    """The former `_dedupe`: one `np.allclose` per point and kept point."""
    pts = np.atleast_2d(np.asarray(pts, float))
    if pts.shape[0] < 2:
        return pts
    out = []
    for p in pts:
        if not any(np.allclose(p, q, atol=1e-12) for q in out):
            out.append(p)
    return np.array(out)


def test_dedupe_matches_the_point_by_point_rule(monkeypatch):
    rng = np.random.default_rng(21)
    for m in (1, 2, 3):
        base = rng.standard_normal((40, m))
        # planted near-duplicates: inside the rule, at its edge and past it,
        # and chains where a dropped point sits close to a later one
        near = base[rng.integers(0, 40, 60)]
        near = near + rng.choice([0.0, 1e-13, 5e-6, 2e-5, 1e-3], (60, 1)) * np.abs(near)
        chain = base[:1] + np.arange(8)[:, None] * 6e-6 * np.abs(base[:1])
        pts = rng.permutation(np.concatenate([base, near, chain, base[:3]]))
        got, want = convex._dedupe(pts), _dedupe_point_by_point(pts)
        assert np.array_equal(got, want)
        assert 40 <= got.shape[0] < pts.shape[0]
    for count in (20, 100, 181):
        got = _sphere_directions(3, count)
        monkeypatch.setattr(convex, "_dedupe", _dedupe_point_by_point)
        want = _sphere_directions(3, count)
        monkeypatch.undo()
        assert np.array_equal(got, want), count


def test_cone_constant_halfline():
    assert cone_inequality_constant(cone_body([[1.0]])) == pytest.approx(1.0)


def test_cone_constant_quadrant():
    c = cone_inequality_constant(cone_body([[1.0, 0.0], [0.0, 1.0]]))
    assert 0.99 <= c <= 1.05


def _cone_constant_direction_by_direction(body, count):
    """The scan of `cone_inequality_constant` with one `boundary_distance`
    call, and so one polar cone, per lam direction."""
    lam_dirs = _body_directions(body, count)
    hs = _sphere_directions(body.m, count)
    hs = hs[np.array([float(np.min(body.points @ h)) >= -1e-12 for h in hs])]
    best = np.inf
    for lam in lam_dirs:
        dist = boundary_distance(body, lam)
        if dist > 1e-9:
            best = min(best, float(np.min(hs @ lam)) / dist)
    return best


CONE_SCANS = {
    "halfline": ([[1.0]], (12, 40, 100)),
    "quadrant": ([[1.0, 0.0], [0.0, 1.0]], (12, 40, 100)),
    "wedge": ([[1.0, 0.2], [0.3, 1.0]], (12, 40, 100)),
    # a square pyramid: mixtures of opposite generators cross its interior
    "pyramid3d": ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]],
                  (12, 40)),
    # simplicial: every mixture of two generators lies on a face
    "octant": (np.eye(3).tolist(), (12, 40)),
    "simplicial3d": ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]], (12, 40)),
}


@pytest.mark.parametrize("name", sorted(CONE_SCANS))
def test_cone_constant_matches_the_per_direction_scan(name):
    gens, counts = CONE_SCANS[name]
    body = cone_body(gens)
    for count in counts:
        want = _cone_constant_direction_by_direction(body, count)
        assert np.isfinite(want)
        got = cone_inequality_constant(body, directions=count)
        assert got == pytest.approx(want, rel=1e-12), count


def test_cone_constant_on_simplicial_3d_cones():
    """Pair mixtures of three generators lie on faces, at distance 0 or a
    rounding residue of it; the interior lattice carries the scan.  The
    octant's sharp constant is 1 (dist = min lam_k, <lam, h> >= min lam_k
    sum h_k); before the lattice the octant read 0 and the second cone 4e8."""
    octant = cone_body(np.eye(3))
    simplicial = cone_body([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])
    for count in (20, 100, 181):
        c = cone_inequality_constant(octant, directions=count)
        assert c == pytest.approx(1.0, abs=1e-14), count
        c = cone_inequality_constant(simplicial, directions=count)
        assert 0.5 < c < 2.0, count


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.integers(min_value=0, max_value=10**6))
def test_support_subadditive(seed):
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-2, 2, size=(4, 2))
    body = polytope_body(verts)
    v, w = rng.uniform(-1, 1, size=(2, 2))
    assert support(body, v + w) <= support(body, v) + support(body, w) + 1e-12
    assert contains(body, verts.mean(axis=0))


BODIES = Path(__file__).resolve().parents[1] / "scenarios" / "bodies"


def _shipped(name):
    return load_body(str(BODIES / f"{name}.body"))


MEMBERSHIP_CASES = {
    "interval": lambda: _shipped("k12"),
    "box2": lambda: _shipped("box2"),
    "seg": lambda: _shipped("seg"),
    "halfline": lambda: _shipped("halfline"),
    "quadrant": lambda: _shipped("quadrant"),
    "quadrant-double-polar": lambda: polar_cone(polar_cone(_shipped("quadrant"))),
    "octant-polar": lambda: polar_cone(cone_body(np.eye(3))),
}


def _probe_points(body, tol, rng):
    """Random points, and points tol/2, tol scale/2 and 10 tol scale off every
    vertex or generator and every edge midpoint, along the axes and the
    diagonals: off the band where the two rules may differ."""
    m = body.m
    anchors = [body.points, np.zeros((1, m)) if body.kind == "cone" else body.points[:0]]
    if body.kind == "cone":
        anchors.append(3.0 * body.points)
    for a, b in itertools.combinations(body.points, 2):
        anchors.append(((a + b) / 2.0)[None, :])
    anchors = np.concatenate(anchors)
    dirs = np.concatenate([np.eye(m), -np.eye(m)])
    if m > 1:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        dirs = np.concatenate([dirs, signs / np.sqrt(m)])
    pts = [rng.standard_normal((300, m)) * 2.0 + body.points.mean(axis=0)]
    for a in anchors:
        scale = max(1.0, np.abs(body.points).max(), np.abs(a).max())
        for step in (tol / 2.0, tol * scale / 2.0, 10.0 * tol * scale):
            pts.append(a + step * dirs)
    return np.concatenate(pts)


BIPOLAR_CASES = {
    "halfline": [[1.0]],
    "quadrant": [[1.0, 0.0], [0.0, 1.0]],
    "ray2d": [[1.0, 0.0]],
    # its polar is {0}, and the polar of that the whole plane
    "wide2d": [[1.0, 0.1], [-1.0, 0.1], [0.0, -1.0]],
    "octant": np.eye(3).tolist(),
    "simplicial3d": CONE_SCANS["simplicial3d"][0],
    "pyramid3d": CONE_SCANS["pyramid3d"][0],
    # not full-dimensional: its polar is cone(+-e3, e1, e2)
    "flat3d": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    # self-polar
    "orthant4d": np.eye(4).tolist(),
}


@pytest.mark.parametrize("name", sorted(BIPOLAR_CASES))
def test_bipolar_gives_back_the_cone(name):
    cone = cone_body(BIPOLAR_CASES[name])
    double = polar_cone(polar_cone(cone))
    pts = _probe_points(cone, 1e-9, np.random.default_rng(5))
    assert np.array_equal(contains(cone, pts), contains(double, pts))


@pytest.mark.parametrize("case", sorted(MEMBERSHIP_CASES))
def test_batched_contains_matches_nnls_point_by_point(case):
    body = MEMBERSHIP_CASES[case]()
    tol = 1e-9
    pts = _probe_points(body, tol, np.random.default_rng(17))
    got = contains(body, pts, tol=tol)
    assert got.shape == (pts.shape[0],) and got.dtype == bool
    for p, g in zip(pts, got):
        scale = max(1.0, np.abs(body.points).max(), np.abs(p).max())
        want = _nnls_residual(body, p) <= tol * scale
        assert g == want, f"{case}: {p!r}"
        assert contains(body, p, tol=tol) is bool(g)
    # the probes sit on both sides of the boundary
    assert got.any() and not got.all()


def test_contains_on_the_empty_body():
    body = empty_body(2)
    assert contains(body, [0.0, 0.0]) is False
    got = contains(body, np.zeros((5, 2)))
    assert got.shape == (5,) and not got.any()
