"""Barypolygonal sequences, their derived parameter system, and dual sequences.

A barypolygon step slides every vertex of an ordered point family toward its
cyclic successor by a fixed parameter; iterating contracts the family onto a
single point with closed-form barycentric weights.  Feeding those weights
back in as the next parameter vector yields the derived system, whose orbit
drives a dual sequence of limit points toward the centroid of the original
family.  This package computes all of it at desk scale: iteration, orbit
classification, dual-trace convergence reports, trace serialisation, SVG
figures, and a CLI.
"""

from .affine import (
    AffinePoint,
    GeometryError,
    PointFamily,
    barycenter,
    centroid,
    diameter,
)
from .barypolygon import (
    ParamVector,
    PolygonTrace,
    barypolygon_step,
    iterate_final,
    iterate_sequence,
    iterate_to_diameter,
    limit_point,
    limit_weights,
)
from .config import ConfigError, SimulationConfig, parse_config
from .derived import (
    DerivedTrace,
    DynamicsClass,
    DynamicsVerdict,
    classify_dynamics,
    conjugate_step,
    conjugate_trace,
    derived_step,
    derived_trace,
    drift_slope_peak,
    solve_alpha,
)
from .dual import (
    CentroidConvergenceReport,
    DualTrace,
    centroid_convergence_report,
    dual_trace,
)
from .svgfig import emit_svg
from .traceio import render_trace, write_trace

__version__ = "0.1.0"
