"""Point sets in d-dimensional Euclidean space.

:class:`PointSet` is a thin numpy wrapper giving vectorised pairwise
distances; the module-level generators build the layouts used by the
experiments (uniform cubes, grids, clusters, and the pentagon construction
of the paper's Fig. 2).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.random_graphs import as_rng


class PointSet:
    """Immutable array of ``n`` points in ``R^d``."""

    def __init__(self, coords: np.ndarray | list) -> None:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValueError(f"coords must be (n, d), got shape {coords.shape}")
        self._coords = coords.copy()
        self._coords.setflags(write=False)

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def n(self) -> int:
        return self._coords.shape[0]

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> np.ndarray:
        return self._coords[i]

    def distance(self, i: int, j: int) -> float:
        return float(np.linalg.norm(self._coords[i] - self._coords[j]))

    def distance_matrix(self) -> np.ndarray:
        """Full pairwise Euclidean distance matrix (vectorised)."""
        diff = self._coords[:, None, :] - self._coords[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def power_matrix(self, alpha: float) -> np.ndarray:
        """``dist ** alpha`` transmission-cost matrix (zero diagonal)."""
        if alpha < 1:
            raise ValueError(f"distance-power gradient alpha must be >= 1, got {alpha}")
        return self.distance_matrix() ** alpha

    def translated(self, offset: np.ndarray | list) -> "PointSet":
        return PointSet(self._coords + np.asarray(offset, dtype=float))

    def concatenated(self, other: "PointSet") -> "PointSet":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return PointSet(np.vstack([self._coords, other._coords]))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def uniform_points(n: int, dim: int = 2, *, side: float = 10.0,
                   rng: int | np.random.Generator | None = None) -> PointSet:
    """``n`` points uniform in ``[0, side]^dim``."""
    rng = as_rng(rng)
    return PointSet(rng.uniform(0.0, side, size=(n, dim)))


def grid_points(rows: int, cols: int, *, spacing: float = 1.0) -> PointSet:
    """A regular ``rows x cols`` grid in the plane."""
    ys, xs = np.mgrid[0:rows, 0:cols]
    coords = np.stack([xs.ravel() * spacing, ys.ravel() * spacing], axis=1)
    return PointSet(coords.astype(float))


def clustered_points(n_clusters: int, per_cluster: int, *, side: float = 10.0,
                     spread: float = 0.5,
                     rng: int | np.random.Generator | None = None) -> PointSet:
    """Gaussian clusters — the "users in buildings" style layout."""
    rng = as_rng(rng)
    centers = rng.uniform(0.0, side, size=(n_clusters, 2))
    coords = np.vstack([
        centers[c] + rng.normal(0.0, spread, size=(per_cluster, 2))
        for c in range(n_clusters)
    ])
    return PointSet(coords)


def pentagon_layout(m: float = 10.0, spacing: float = 1.0) -> dict:
    """The Fig. 2 construction (Lemma 3.3 empty-core instance).

    Five *external* stations on the corners of a radius-``m`` pentagon
    centred at the source, five *internal* stations on a radius-``m/2``
    pentagon rotated so that each internal station is equidistant from the
    two closest external ones, and chains of *crossing* stations at distance
    ``spacing`` along (a) the five source->external spokes (which pass
    through nothing else) and (b) the internal->external connections.  The
    source sits at the origin.

    Returns a dict with keys ``source`` (index), ``external`` (list of 5
    indices), ``internal`` (list of 5 indices), ``points``
    (:class:`PointSet`) and ``chains`` — each chain is the full station
    index sequence endpoint..endpoint along one dotted line, so callers can
    rebuild the unit-hop connectivity exactly.
    """
    coords: list[np.ndarray] = [np.zeros(2)]
    source = 0
    chains: list[list[int]] = []

    ext_angles = 2.0 * np.pi * np.arange(5) / 5
    int_angles = ext_angles + np.pi / 5  # rotated by 36 degrees
    external_xy = np.stack([m * np.cos(ext_angles), m * np.sin(ext_angles)], axis=1)
    internal_xy = np.stack([(m / 2) * np.cos(int_angles), (m / 2) * np.sin(int_angles)], axis=1)

    external: list[int] = []
    for xy in external_xy:
        coords.append(xy)
        external.append(len(coords) - 1)
    internal: list[int] = []
    for xy in internal_xy:
        coords.append(xy)
        internal.append(len(coords) - 1)

    def chain(a_idx: int, b_idx: int) -> None:
        """Crossing stations every ``spacing`` strictly between endpoints."""
        a, b = coords[a_idx], coords[b_idx]
        dist = float(np.linalg.norm(b - a))
        n_seg = max(1, int(round(dist / spacing)))
        indices = [a_idx]
        for step in range(1, n_seg):
            coords.append(a + (b - a) * (step / n_seg))
            indices.append(len(coords) - 1)
        indices.append(b_idx)
        chains.append(indices)

    # Source -> each external and each internal station (the ten spokes).
    for e in external:
        chain(source, e)
    for i in internal:
        chain(source, i)
    # Each internal station -> its two closest external stations.
    for idx, i in enumerate(internal):
        dists = np.linalg.norm(external_xy - internal_xy[idx], axis=1)
        for j in np.argsort(dists)[:2]:
            chain(i, external[int(j)])

    return {
        "source": source,
        "external": external,
        "internal": internal,
        "points": PointSet(np.array(coords)),
        "chains": chains,
    }
