"""Triangle geometry kernel with an exact nine-point tangency verifier.

Side lengths are the canonical triangle description; every quantity needed
to verify Feuerbach's theorem (nine-point circle internally tangent to the
incircle, externally tangent to the excircles) is rational in the sides,
so the exact backend proves the tangencies with zero residuals while the
float backend tracks them within documented tolerances.

The names below are the documented library API (see "Library API" in the
README); everything else stays importable from its module.
"""

from .numeric import ToleranceProfile
from .triangle import (
    InvalidTriangleError,
    SideLengths,
    barycentric_distance_sq,
    metrics,
    point_on_side,
)
from .centers import bisector_foot_barycentric, vertex_to_ninepoint_dist_sq
from .feuerbach import (
    Tangency,
    classify_tangency_sq,
    excircle_ninepoint_residual,
    feuerbach_report,
    incircle_ninepoint_residual,
)
from .harness import FuzzProfile, check_identity_suite, random_triangle
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "SideLengths",
    "InvalidTriangleError",
    "ToleranceProfile",
    "metrics",
    "feuerbach_report",
    "Tangency",
    "classify_tangency_sq",
    "barycentric_distance_sq",
    "point_on_side",
    "bisector_foot_barycentric",
    "vertex_to_ninepoint_dist_sq",
    "incircle_ninepoint_residual",
    "excircle_ninepoint_residual",
    "FuzzProfile",
    "random_triangle",
    "check_identity_suite",
    "render_svg",
    "__version__",
]
