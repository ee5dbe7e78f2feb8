"""Incremental voxel-hash point map with exact k-nearest-neighbor queries.

Storage. Cells are keyed by their integer coordinates packed into one int64
(21 bits per axis, so coordinates must stay within about a million cells of
the origin). Every occupied cell owns one row of a single padded
(rows, cell_cap, 3) float array: the row holds the cell's points in
insertion order, and its empty slots hold +inf, which is infinitely far
from every query. A fill count per row and a dict from cell key to row
complete the store. Row 0 is a sentinel that stays empty; lookups of absent
cells gather it. Rows are handed out in order of first insertion, and the
array doubles when it runs out of rows, so a cell costs cell_cap * 24 bytes
whatever its fill.

Batched search (knn_batch). Per scan, one vectorized pass ranks for every
query the points of a box of cells around it: whole rows are gathered, the
squared distances come from the same einsum knn uses, a partial sort keeps
k + 8 candidates (at most the box's slot count), and a lexicographic sort
on (d^2, x, y, z) orders them. For a query at fractional position f inside
its cell (per axis), the first box is the 2x2x2 octant toward the nearest
cell corner. Every stored point outside it lies at least
margin = edge * min over axes of max(f, 1 - f) >= edge / 2 away, so its k
best are exact when the k-th d^2 is strictly below margin^2 (the margin
shrunk by a tiny safety factor against rounding, and capped at the search
radius) and, when the partial sort dropped candidates, not tied with the
farthest one kept. Rows the octant cannot certify retry the same way on the
3x3x3 block centred on their cell, whose margin is
edge * min over axes of (1 + min(f, 1 - f)) >= edge.

Shell expansion (knn). A single query, and every batched query neither box
certifies (sparse or one-sided geometry, fewer than k points nearby, a tie
at the partition boundary), expands Chebyshev shells of cells around the
query, looking each shell's keys up at once, until no unvisited cell can
hold a closer point or the search radius is passed. All paths rank by
bitwise-identical distances and break ties by lexicographic coordinates,
so they return identical arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

_AXIS_BITS = 21
_AXIS_OFF = 1 << (_AXIS_BITS - 1)

# Cell offsets of a side x side x side box from its lowest corner.
_BOX = {side: np.array(list(product(range(side), repeat=3)), dtype=np.int64)
        for side in (2, 3)}
# Candidate slots gathered per chunk of queries: 64 octants of full 32-point
# cells. Bounds the temporaries of a pass (and so peak memory) whatever the
# box size.
_CHUNK_SLOTS = 64 * 8 * 32
# Shrinks a box's margin so rounding in cell assignment and in the
# squared distances can never certify a point that lies outside it.
_MARGIN_SAFETY = 1.0 - 1e-8
_INITIAL_ROWS = 64


def pack_cells(cells) -> np.ndarray:
    """Pack integer cell coordinates (n, 3) into int64 keys."""
    cells = np.asarray(cells, dtype=np.int64)
    return (((cells[..., 0] + _AXIS_OFF) << (2 * _AXIS_BITS))
            | ((cells[..., 1] + _AXIS_OFF) << _AXIS_BITS)
            | (cells[..., 2] + _AXIS_OFF))


@lru_cache(maxsize=16)
def _shell_deltas(radius: int) -> np.ndarray:
    """Key offsets of the cells on the Chebyshev shell of a radius; packing
    is linear in the coordinates, so a neighbor's key is the center key
    plus a constant."""
    span = np.arange(-radius, radius + 1)
    cells = np.stack(np.meshgrid(span, span, span, indexing="ij"), -1).reshape(-1, 3)
    cells = cells[np.abs(cells).max(axis=1) == radius]
    deltas = (cells[:, 0] << (2 * _AXIS_BITS)) + (cells[:, 1] << _AXIS_BITS) + cells[:, 2]
    deltas.setflags(write=False)
    return deltas


@dataclass
class Plane:
    """uT q + offset == 0 for on-plane q; fit_residual is the worst |uT q + d|."""

    normal: np.ndarray
    offset: float
    fit_residual: float


def plane_fit_batch(stacks, max_residual: float = 0.1, cond_limit: float = 1e8):
    """Least-squares planes through stacked 5-point sets (m, 5, 3).

    Solves q_i . n = -1 per set, then normalizes. Returns
    (normals (m,3), offsets (m,), residuals (m,), valid (m,)); a set is
    invalid when the solve is ill-conditioned (near-collinear points) or the
    worst point-plane distance exceeds max_residual.
    """
    stacks = np.asarray(stacks, dtype=float)
    m = stacks.shape[0]
    if m == 0:
        return (np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))
    u, s, vt = np.linalg.svd(stacks, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    ok = np.isfinite(cond) & (cond <= cond_limit)

    inv_s = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    rhs = -np.ones((m, 5))
    # Min-norm least squares via the SVD: n = V diag(1/s) U^T rhs.
    n_raw = np.einsum("mij,mi->mj", vt, inv_s * np.einsum("mij,mi->mj", u, rhs))
    norms = np.linalg.norm(n_raw, axis=1)
    ok &= norms > 0.0
    safe = np.where(norms > 0.0, norms, 1.0)
    normals = n_raw / safe[:, None]
    offsets = 1.0 / safe
    dists = np.abs(np.einsum("mij,mj->mi", stacks, normals) + offsets[:, None])
    residuals = dists.max(axis=1)
    ok &= residuals <= max_residual
    return normals, offsets, residuals, ok


def plane_fit(points, max_residual: float = 0.1, cond_limit: float = 1e8) -> Plane | None:
    """Fit a plane through exactly 5 points; None when degenerate or loose."""
    points = np.asarray(points, dtype=float)
    if points.shape != (5, 3):
        raise ValueError("plane_fit expects exactly 5 points")
    normals, offsets, residuals, ok = plane_fit_batch(points[None], max_residual, cond_limit)
    if not ok[0]:
        return None
    return Plane(normals[0], float(offsets[0]), float(residuals[0]))


class VoxelMap:
    """Single-writer voxel-hash map (insert and query never interleave)."""

    def __init__(self, edge: float = 0.5, cell_cap: int = 32, search_radius: float = 5.0):
        if edge <= 0.0 or cell_cap < 1 or search_radius <= 0.0:
            raise ValueError("edge, cell_cap and search_radius must be positive")
        self.edge = edge
        self.cell_cap = cell_cap
        self.search_radius = search_radius
        self.min_separation = edge / 4.0
        # Rows past the last occupied cell are never read; np.empty leaves
        # their pages untouched until a cell claims them.
        self._slots = np.empty((_INITIAL_ROWS, cell_cap, 3))
        self._slots[0] = np.inf
        self._fill = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._rows: dict[int, int] = {}
        self._sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._count = 0
        self._cell_lo = np.full(3, np.iinfo(np.int64).max >> 2, dtype=np.int64)
        self._cell_hi = np.full(3, -(np.iinfo(np.int64).max >> 2), dtype=np.int64)

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """Stored points, cell by cell in order of first insertion."""
        used = slice(1, len(self._rows) + 1)
        return self._slots[used][np.arange(self.cell_cap) < self._fill[used, None]]

    def _grow(self) -> None:
        rows = len(self._slots)
        slots = np.empty((2 * rows, self.cell_cap, 3))
        slots[:rows] = self._slots
        fill = np.zeros(2 * rows, dtype=np.int64)
        fill[:rows] = self._fill
        self._slots, self._fill = slots, fill

    def insert(self, points) -> None:
        """Add world-frame points, honoring the per-cell cap.

        A full cell admits a newcomer only when it sits farther than the
        min-separation from every resident, in which case it replaces its
        nearest resident (occupancy never exceeds the cap).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("insert expects finite points")
        if len(points) == 0:
            return
        cells = np.floor(points / self.edge).astype(np.int64)
        np.minimum(self._cell_lo, cells.min(axis=0), out=self._cell_lo)
        np.maximum(self._cell_hi, cells.max(axis=0), out=self._cell_hi)
        min_sep_sq = self.min_separation ** 2
        rows = self._rows
        cells_before = len(rows)
        for point, key in zip(points, pack_cells(cells).tolist()):
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(rows) + 1
                if row == len(self._slots):
                    self._grow()
                self._slots[row] = np.inf
            fill = self._fill[row]
            if fill < self.cell_cap:
                self._slots[row, fill] = point
                self._fill[row] = fill + 1
                self._count += 1
                continue
            members = self._slots[row]
            diff = members - point
            d2 = np.einsum("ij,ij->i", diff, diff)
            nearest = int(np.argmin(d2))
            if d2[nearest] > min_sep_sq:
                members[nearest] = point
        if len(rows) != cells_before:
            self._sorted = None

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Row of each cell key; the empty sentinel row 0 for absent cells."""
        known, rows = self._sorted_cells()
        pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        return np.where(known[pos] == keys, rows[pos], 0)

    def _ring_points(self, center_key: int, radius: int) -> np.ndarray:
        """Slots of the occupied cells on one Chebyshev shell, padding
        (+inf) included."""
        rows = self._lookup(center_key + _shell_deltas(radius))
        return self._slots[rows[rows > 0]].reshape(-1, 3)

    def _ring_span(self, center) -> tuple[int, int]:
        """Chebyshev cell distances from center to the nearest and farthest
        occupied-cell bounding-box corners; (1, 0) when the map is empty."""
        if self._count == 0:
            return 1, 0
        below = self._cell_lo - center
        above = center - self._cell_hi
        near = int(np.max(np.maximum(np.maximum(below, above), 0)))
        far = int(np.max(np.maximum(np.abs(center - self._cell_lo),
                                    np.abs(center - self._cell_hi))))
        return near, far

    def knn(self, query, k: int) -> np.ndarray:
        """Up to k nearest stored points within the search radius.

        Exact Euclidean nearest neighbors, ascending distance, ties broken
        by lexicographic coordinates. Returns fewer than k points when the
        radius cap prunes the search.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.asarray(query, dtype=float)
        center = np.floor(query / self.edge).astype(np.int64)
        center_key = int(pack_cells(center))
        cap_sq = self.search_radius ** 2
        ring_lo, ring_hi = self._ring_span(center)

        best = np.empty((0, 3))
        best_d = np.empty(0)
        radius = 0
        while True:
            if ring_lo <= radius <= ring_hi:
                # Points outside the best k so far can never re-enter it.
                pts = np.concatenate((best, self._ring_points(center_key, radius)))
                diff = pts - query
                d2 = np.einsum("ij,ij->i", diff, diff)
                keep = d2 <= cap_sq  # drops the padding too
                pts, d2 = pts[keep], d2[keep]
                order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], d2))[:k]
                best, best_d = pts[order], d2[order]
            # Cells on ring radius+1 hold points no closer than radius*edge.
            floor_sq = (radius * self.edge) ** 2
            if len(best_d) == k and best_d[-1] <= floor_sq:
                break
            if floor_sq > cap_sq or radius >= ring_hi:
                break
            radius += 1
        return best

    def _sorted_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied cell keys in ascending order, and the row of each."""
        if self._sorted is None:
            keys = np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))
            order = np.argsort(keys)
            # The i-th key inserted owns row i + 1.
            self._sorted = (keys[order], order + 1)
        return self._sorted

    def knn_batch(self, queries, k: int) -> list[np.ndarray]:
        """knn for many queries; exact, same contract as knn.

        Each query ranks the points of its 2x2x2 octant of cells in one
        batched pass, rows the octant cannot certify retry on their 3x3x3
        block, and the rest fall back to knn (see the module docstring).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if not self._rows:
            return [np.empty((0, 3)) for _ in range(len(queries))]
        results: list = [None] * len(queries)
        pending = np.arange(len(queries))
        for side in (2, 3):
            pending = self._box_pass(queries, pending, k, results, side)
        for r in pending.tolist():
            results[r] = self.knn(queries[r], k)
        return results

    def _box_pass(self, queries: np.ndarray, pending: np.ndarray, k: int,
                  results: list, side: int) -> np.ndarray:
        """Rank each pending query's side**3 box of cells: the octant toward
        the nearest cell corner (side 2) or the block centred on its cell
        (side 3). Fills results[r] for every row the box certifies and
        returns the rows it could not."""
        width = side ** 3 * self.cell_cap
        if k > width or len(pending) == 0:
            return pending
        scaled = queries[pending] / self.edge
        cells = np.floor(scaled)
        frac = scaled - cells
        low = np.where(frac >= 0.5, 0, -1) if side == 2 else np.full(cells.shape, -1)
        # Distance from the query to the box's nearest face, in cells.
        margin = np.min(np.minimum(frac - low, low + side - frac), axis=1)
        certify_sq = np.minimum(margin * self.edge * _MARGIN_SAFETY, self.search_radius) ** 2
        corner = cells.astype(np.int64) + low
        box_rows = self._lookup(pack_cells(corner[:, None, :] + _BOX[side]))
        # Enough spare candidates that a tie at the k-th distance rarely
        # reaches the partition boundary.
        take = min(k + 8, width)
        certified = np.zeros(len(pending), dtype=bool)
        chunk = max(1, _CHUNK_SLOTS // width)
        for lo in range(0, len(pending), chunk):
            hi = lo + chunk
            q = queries[pending[lo:hi]]
            cand = self._slots[box_rows[lo:hi]].reshape(len(q), width, 3)
            diff = cand - q[:, None, :]
            d2 = np.einsum("qij,qij->qi", diff, diff)
            if take < width:
                sub = np.argpartition(d2, take - 1, axis=1)[:, :take]
                d2 = np.take_along_axis(d2, sub, axis=1)
                cand = np.take_along_axis(cand, sub[:, :, None], axis=1)
            order = np.lexsort((cand[..., 2], cand[..., 1], cand[..., 0], d2), axis=-1)[:, :k]
            d2k = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
            ok = d2k < certify_sq[lo:hi]
            if take < width:
                # A tie with the farthest kept candidate means a point the
                # partition dropped could still win on coordinates.
                ok &= d2k < d2.max(axis=1)
            best = np.take_along_axis(cand, order[:, :, None], axis=1)
            for i in np.flatnonzero(ok).tolist():
                results[pending[lo + i]] = best[i]
            certified[lo:hi] = ok
        return pending[~certified]
