"""Tests for repro.geometry.points."""

import numpy as np
import pytest

from repro.geometry.points import (
    PointSet,
    clustered_points,
    grid_points,
    pentagon_layout,
    uniform_points,
)


class TestPointSet:
    def test_shapes_and_1d_promotion(self):
        ps = PointSet([1.0, 2.0, 4.0])
        assert ps.n == 3 and ps.dim == 1
        assert ps.distance(0, 2) == pytest.approx(3.0)

    def test_distance_matrix_matches_pairwise(self):
        ps = uniform_points(6, 3, rng=0)
        m = ps.distance_matrix()
        for i in range(6):
            for j in range(6):
                assert m[i, j] == pytest.approx(ps.distance(i, j))
        assert np.allclose(np.diag(m), 0.0)

    def test_power_matrix(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        pm = ps.power_matrix(2.0)
        assert pm[0, 1] == pytest.approx(25.0)
        with pytest.raises(ValueError):
            ps.power_matrix(0.5)

    def test_immutability(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 9.0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((2, 2, 2)))

    def test_translate_concat(self):
        a = PointSet([[0.0, 0.0]])
        b = a.translated([1.0, 2.0])
        c = a.concatenated(b)
        assert c.n == 2 and c.distance(0, 1) == pytest.approx(np.hypot(1, 2))


class TestGenerators:
    def test_uniform_bounds(self):
        ps = uniform_points(50, 2, side=3.0, rng=0)
        assert ps.coords.min() >= 0.0 and ps.coords.max() <= 3.0

    def test_grid(self):
        ps = grid_points(2, 3, spacing=2.0)
        assert ps.n == 6
        assert ps.distance(0, 1) == pytest.approx(2.0)

    def test_clusters_shape(self):
        ps = clustered_points(3, 4, rng=0)
        assert ps.n == 12 and ps.dim == 2


class TestPentagonLayout:
    def test_geometry_of_figure_2(self):
        m = 10.0
        layout = pentagon_layout(m=m)
        pts = layout["points"]
        src = layout["source"]
        # Externals on radius m, internals on m/2.
        for e in layout["external"]:
            assert pts.distance(src, e) == pytest.approx(m)
        for i in layout["internal"]:
            assert pts.distance(src, i) == pytest.approx(m / 2)
        # Each internal equidistant from its two closest externals.
        for i in layout["internal"]:
            dists = sorted(pts.distance(i, e) for e in layout["external"])
            assert dists[0] == pytest.approx(dists[1])

    def test_chains_cover_all_lines(self):
        layout = pentagon_layout(m=6.0)
        # 5 src->ext + 5 src->int + 10 int->ext = 20 chains.
        assert len(layout["chains"]) == 20
        pts = layout["points"]
        for chain in layout["chains"]:
            # Consecutive stations at most ~spacing apart, collinear steps.
            for a, b in zip(chain, chain[1:]):
                assert pts.distance(a, b) <= 1.0 + 1e-6

    def test_chain_endpoints_are_named_stations(self):
        layout = pentagon_layout(m=6.0)
        named = {layout["source"], *layout["external"], *layout["internal"]}
        for chain in layout["chains"]:
            assert chain[0] in named and chain[-1] in named
