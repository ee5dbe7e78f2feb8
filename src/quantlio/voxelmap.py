"""Incremental voxel-hash point map with exact k-nearest-neighbor queries.

Storage. Cells are keyed by their integer coordinates packed into one int64
(21 bits per axis, so coordinates must stay within about a million cells of
the origin). Every occupied cell owns one row of a single padded
(3, rows, cell_cap) float array, stored axis-major: per axis, the row holds
that coordinate of the cell's points in insertion order, and empty slots
hold +inf, which is infinitely far from every query. A fill count per row
and the occupied cell keys in ascending order, with the row of each,
complete the store. Row 0 is a sentinel that stays empty; lookups of absent
cells gather it. Rows are handed out in order of first insertion, and the
array doubles when it runs out of rows, so a cell costs cell_cap * 24 bytes
whatever its fill.

Distances. Every squared distance comes from _sq_dist, which adds the
per-axis squares in the order np.einsum("ij,ij->i") adds the three columns
of (n, 3) rows, (dx^2 + dz^2) + dy^2. The map therefore ranks by the same
bits as an einsum brute force (the test suite checks the order).

Insertion (insert) runs in rounds: round r places the r-th point, in batch
order, of every cell the batch touches, so the rows of one round are
distinct and a round is a few array operations. A cell below its cap
appends; a full cell lets a newcomer replace its nearest resident when the
newcomer sits farther than the min-separation from every resident. The
loop count is the largest number of points any one cell receives.

Batched search (knn_batch). Per scan, one vectorized pass ranks for every
query the points of a box of cells around it: whole rows are gathered, a
partition finds each query's k-th smallest d^2, every candidate at or below
it is kept (ties included), and one lexicographic sort on
(query, d^2, x, y, z) orders the kept candidates. For a query at fractional
position f inside its cell (per axis), the first box is the 2x2x2 octant
toward the nearest cell corner. Every stored point outside it lies at least
margin = edge * min over axes of max(f, 1 - f) >= edge / 2 away, so its k
best are exact when the k-th d^2 is strictly below margin^2 (the margin
shrunk by a tiny safety factor against rounding, and capped at the search
radius): no point outside the box can then tie with or beat a kept one.
Rows the octant cannot certify retry the same way on the 3x3x3 block
centred on their cell, whose margin is
edge * min over axes of (1 + min(f, 1 - f)) >= edge.

Shell expansion (knn). A single query, and every batched query neither box
certifies (sparse or one-sided geometry, fewer than k points nearby),
expands Chebyshev shells of cells around the query, looking each shell's
keys up at once, until no unvisited cell can hold a closer point or the
search radius is passed. All paths rank by bitwise-identical distances and
break ties by lexicographic coordinates, so they return identical arrays.
"""

from __future__ import annotations

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


def _sq_dist(dx, dy, dz) -> np.ndarray:
    """Squared norms from per-axis differences, summed in einsum's order
    (see the module docstring)."""
    d2 = dx * dx
    d2 += dz * dz
    d2 += dy * dy
    return d2


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
        self._slots = np.empty((3, _INITIAL_ROWS, cell_cap))
        self._slots[:, 0] = np.inf
        self._fill = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # Occupied cell keys in ascending order, and the row of each.
        self._keys = np.empty(0, dtype=np.int64)
        self._key_rows = np.empty(0, dtype=np.int64)
        self._count = 0
        self._cell_lo = np.full(3, np.iinfo(np.int64).max >> 2, dtype=np.int64)
        self._cell_hi = np.full(3, -(np.iinfo(np.int64).max >> 2), dtype=np.int64)

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """Stored points, cell by cell in order of first insertion."""
        used = slice(1, len(self._keys) + 1)
        filled = np.arange(self.cell_cap) < self._fill[used, None]
        return np.ascontiguousarray(self._slots[:, used][:, filled].T)

    def _reserve(self, needed: int) -> None:
        """Double the row capacity until it holds `needed` rows."""
        size = len(self._fill)
        if needed <= size:
            return
        while size < needed:
            size *= 2
        slots = np.empty((3, size, self.cell_cap))
        slots[:, :len(self._fill)] = self._slots
        fill = np.zeros(size, dtype=np.int64)
        fill[:len(self._fill)] = self._fill
        self._slots, self._fill = slots, fill

    def insert(self, points) -> None:
        """Add world-frame points, honoring the per-cell cap.

        A full cell admits a newcomer only when it sits farther than the
        min-separation from every resident, in which case it replaces its
        nearest resident (occupancy never exceeds the cap). Points are
        applied in batch order within each cell.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("insert expects finite points")
        if len(points) == 0:
            return
        cells = np.floor(points / self.edge).astype(np.int64)
        np.minimum(self._cell_lo, cells.min(axis=0), out=self._cell_lo)
        np.maximum(self._cell_hi, cells.max(axis=0), out=self._cell_hi)
        keys = pack_cells(cells)
        # Group the points by cell, batch order kept within each cell.
        perm = np.argsort(keys, kind="stable")
        sorted_keys = keys[perm]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[0] - 1))
        counts = np.diff(starts, append=len(keys))
        rows = self._claim_rows(sorted_keys[starts], perm[starts])
        for r in range(int(counts.max())):
            has = counts > r
            self._place(points[perm[starts[has] + r]], rows[has])

    def _claim_rows(self, cell_keys: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Row of each of the ascending, distinct cell_keys; absent cells
        get fresh rows in order of their first point's batch index."""
        rows = self._lookup(cell_keys)
        new = np.flatnonzero(rows == 0)
        if len(new) == 0:
            return rows
        base = len(self._keys) + 1
        rows[new[np.argsort(first[new])]] = np.arange(base, base + len(new))
        self._reserve(base + len(new))
        self._slots[:, rows[new]] = np.inf
        at = np.searchsorted(self._keys, cell_keys[new])
        self._keys = np.insert(self._keys, at, cell_keys[new])
        self._key_rows = np.insert(self._key_rows, at, rows[new])
        return rows

    def _place(self, points: np.ndarray, rows: np.ndarray) -> None:
        """Apply the insertion rule to one point in each of distinct rows."""
        fill = self._fill[rows]
        room = fill < self.cell_cap
        open_rows, open_fill = rows[room], fill[room]
        self._slots[:, open_rows, open_fill] = points[room].T
        self._fill[open_rows] = open_fill + 1
        self._count += len(open_rows)
        if len(open_rows) == len(rows):
            return
        rows, points = rows[~room], points[~room]
        d2 = _sq_dist(*(np.take(self._slots, rows, axis=1) - points.T[:, :, None]))
        nearest = np.argmin(d2, axis=1)
        far = d2[np.arange(len(rows)), nearest] > self.min_separation ** 2
        self._slots[:, rows[far], nearest[far]] = points[far].T

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Row of each cell key; the empty sentinel row 0 for absent cells."""
        known = self._keys
        if len(known) == 0:
            return np.zeros(np.shape(keys), dtype=np.int64)
        pos = known.searchsorted(keys)
        np.minimum(pos, len(known) - 1, out=pos)
        return np.where(known[pos] == keys, self._key_rows[pos], 0)

    def _ring_points(self, center_key: int, radius: int) -> np.ndarray:
        """Slots (3, n) of the occupied cells on one Chebyshev shell,
        padding (+inf) included."""
        rows = self._lookup(center_key + _shell_deltas(radius))
        return np.take(self._slots, rows[rows > 0], axis=1).reshape(3, -1)

    def _ring_span(self, center) -> tuple[int, int]:
        """Chebyshev cell distances from center to the nearest and farthest
        occupied-cell bounding-box corners; (1, 0) when the map is empty."""
        if self._count == 0:
            return 1, 0
        # Three coordinates: Python ints are cheaper than array calls here.
        axes = list(zip(center.tolist(), self._cell_lo.tolist(), self._cell_hi.tolist()))
        near = max(max(lo - c, c - hi, 0) for c, lo, hi in axes)
        far = max(max(abs(c - lo), abs(c - hi)) for c, lo, hi in axes)
        return near, far

    def knn(self, query, k: int) -> np.ndarray:
        """Up to k nearest stored points within the search radius.

        Exact Euclidean nearest neighbors, ascending distance, ties broken
        by lexicographic coordinates. Returns fewer than k points when the
        radius cap prunes the search.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        query = np.asarray(query, dtype=float).reshape(3)
        center = np.floor(query / self.edge).astype(np.int64)
        center_key = int(pack_cells(center))
        cap_sq = self.search_radius ** 2
        ring_lo, ring_hi = self._ring_span(center)

        best = np.empty((3, 0))
        best_d = np.empty(0)
        radius = 0
        while True:
            if ring_lo <= radius <= ring_hi:
                # Points outside the best k so far can never re-enter it.
                pts = np.concatenate((best, self._ring_points(center_key, radius)), axis=1)
                d2 = _sq_dist(*(pts - query[:, None]))
                keep = d2 <= cap_sq  # drops the padding too
                pts, d2 = pts.compress(keep, axis=1), d2.compress(keep)
                order = np.lexsort((pts[2], pts[1], pts[0], d2))[:k]
                best, best_d = pts.take(order, axis=1), d2.take(order)
            # Cells on ring radius+1 hold points no closer than radius*edge.
            floor_sq = (radius * self.edge) ** 2
            if len(best_d) == k and best_d[-1] <= floor_sq:
                break
            if floor_sq > cap_sq or radius >= ring_hi:
                break
            radius += 1
        return np.ascontiguousarray(best.T)

    def knn_batch(self, queries, k: int) -> list[np.ndarray]:
        """knn for many queries; exact, same contract as knn.

        Each query ranks the points of its 2x2x2 octant of cells in one
        batched pass, rows the octant cannot certify retry on their 3x3x3
        block, and the rest fall back to knn (see the module docstring).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if len(self._keys) == 0:
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
        certified = np.zeros(len(pending), dtype=bool)
        chunk = max(1, _CHUNK_SLOTS // width)
        for lo in range(0, len(pending), chunk):
            hi = lo + chunk
            q = queries[pending[lo:hi]]
            cand = np.take(self._slots, box_rows[lo:hi], axis=1).reshape(3, len(q), width)
            d2 = _sq_dist(*(cand - q.T[:, :, None]))
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            ok = kth < certify_sq[lo:hi]
            if not ok.any():
                continue
            # Keep every candidate up to the k-th distance of a certified
            # row, ties included; uncertified rows keep none.
            kept = d2 <= np.where(ok, kth, -np.inf)[:, None]
            flat = np.flatnonzero(kept)
            pts = cand.reshape(3, -1).take(flat, axis=1)
            # The row is the primary key, so row i's candidates fill
            # order[starts[i]:starts[i] + counts[i]], best first.
            order = np.lexsort((pts[2], pts[1], pts[0], d2.take(flat), flat // width))
            counts = kept.sum(axis=1)
            starts = np.cumsum(counts) - counts
            top = order[(starts[ok, None] + np.arange(k)).ravel()]
            best = pts.take(top, axis=1).T.reshape(-1, k, 3)
            for r, b in zip(pending[lo:hi][ok].tolist(), best):
                results[r] = b
            certified[lo:hi] = ok
        return pending[~certified]
