"""``Point2`` arithmetic for the tests' reference forms.

Package code never adds, subtracts, scales or crosses ``Point2``s: the
kernel runs its constructions on a plane (``FloatPlane`` pairs or
``homogeneous.Plane`` triples).  The tests keep these operations to write
the reference forms those planes are held to, bit for bit: each takes the
float or ``Fraction`` operations, in order, that the former ``Point2``
methods took, and builds its result through the ``Point2`` constructor and
its finiteness check.  ``float_sides`` takes exact sides to floats, as the
former ``SideLengths.as_float`` did.
"""

from ninepoint.numeric import coerce_scalar
from ninepoint.triangle import Barycentric, Point2, SideLengths


def add(p, q):
    return Point2(p.x + q.x, p.y + q.y)


def sub(p, q):
    return Point2(p.x - q.x, p.y - q.y)


def scaled(p, k):
    k = coerce_scalar(k)
    return Point2(k * p.x, k * p.y)


def dot(p, q):
    return p.x * q.x + p.y * q.y


def cross(p, q):
    return p.x * q.y - p.y * q.x


def as_float(p):
    return Point2(float(p.x), float(p.y))


def float_sides(sides):
    return SideLengths(*map(float, sides.as_tuple()))


def cartesian_to_barycentric(point, vertex_a, vertex_b, vertex_c):
    """Barycentric coordinates of a point (2x2 linear solve): the reference
    form of ``FloatPlane.barycentric``."""
    ac = sub(vertex_a, vertex_c)
    bc = sub(vertex_b, vertex_c)
    det = cross(ac, bc)
    if det == 0:
        raise ValueError("collinear vertices")
    xc = sub(point, vertex_c)
    alpha = cross(xc, bc) / det
    beta = cross(ac, xc) / det
    gamma = 1 - alpha - beta
    return Barycentric(alpha, beta, gamma)
