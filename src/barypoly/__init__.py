"""Barypolygonal sequences, their derived parameter system, and dual sequences.

A barypolygon step slides every vertex of an ordered point family toward its
cyclic successor by a fixed parameter; iterating contracts the family onto a
single point with closed-form barycentric weights.  Feeding those weights
back in as the next parameter vector yields the derived system, whose orbit
drives a dual sequence of limit points toward the centroid of the original
family.  This package computes all of it at desk scale: iteration, orbit
classification, inequality diagnostics, trace serialisation, SVG figures,
and a CLI.
"""

from .affine import (
    AffinePoint,
    GeometryError,
    PointFamily,
    WeightVector,
    barycenter,
    centroid,
    diameter,
    distance,
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
    BoundingSequenceReport,
    DerivedTrace,
    DynamicsClass,
    DynamicsVerdict,
    RatioBoundReport,
    StabilityReport3,
    bounding_sequence_check,
    classify_dynamics,
    conjugate_step,
    conjugate_trace,
    derived_step,
    derived_trace,
    double_step_drift,
    double_step_identity_residual,
    drift_slope_peak,
    find_lockin,
    order_check,
    ratio_bound_check,
    regular_map,
    solve_alpha,
    stability_report_p3,
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
