"""Euclidean point substrate for the paper's section 3 (Euclidean wireless
networks, power attenuation ``c(x, y) = dist(x, y) ** alpha``)."""

from repro.geometry.layouts import LAYOUT_FAMILIES, layout_points
from repro.geometry.points import (
    PointSet,
    clustered_points,
    grid_points,
    pentagon_layout,
    uniform_points,
)

__all__ = [
    "LAYOUT_FAMILIES",
    "PointSet",
    "clustered_points",
    "grid_points",
    "layout_points",
    "pentagon_layout",
    "uniform_points",
]
