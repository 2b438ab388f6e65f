"""The convex layer: supports, polars, erosion, and the cone constant.

Everything the band-limit machinery needs from convex geometry is finite
dimensional and exact: supporting functions of polytopes and cones, polar
cones, erosions, and membership.  One quantity deserves a note: the sampled
infimum of <lam,h>/(|h| d(lam, bd K)) over a cone equals 1 for the quadrant
because the minimizing h is the nearest facet normal; the inradius of the
unit slice (1/sqrt 2 here) is a different, smaller constant that certifies
the same inequality with the incenter direction fixed.
"""

import numpy as np

from quadric_cr.convex import (boundary_distance, cone_body,
                               cone_inequality_constant, contains, erode,
                               interval_body, polar_cone, polytope_body,
                               project_body, support)

K = polytope_body(np.array([[1.0, 3.0], [2.0, 3.0], [2.0, 5.0], [1.0, 5.0]]))
print("support of the box in a few directions:")
for v in ([1.0, 0.0], [0.0, -1.0], [1.0, 1.0]):
    print(f"  H_K({v}) = {support(K, -np.asarray(v)):.3f}")

basis = np.array([[1.0], [0.0]])
pK = project_body(K, basis)
print("projection onto the first axis:", sorted(set(map(tuple, pK.points))))

print("erosion of [1,2] by 0.25:", erode(interval_body(1.0, 2.0), 0.25).points.ravel())

quadrant = cone_body(np.array([[1.0, 0.0], [0.0, 1.0]]))
print("polar of the quadrant, generators:")
print(polar_cone(quadrant).points)

print("membership:", contains(quadrant, np.array([0.5, 2.0])),
      contains(quadrant, np.array([-0.1, 2.0])))
print("boundary distance of (1,2):", boundary_distance(quadrant, np.array([1.0, 2.0])))

c = cone_inequality_constant(quadrant, directions=100)
theta = np.linspace(1e-3, np.pi / 2 - 1e-3, 1001)
inradius = np.minimum(np.cos(theta), np.sin(theta)).max()
print(f"sampled cone constant: {c:.6f}   unit-slice inradius: {inradius:.6f}")
