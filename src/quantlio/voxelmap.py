"""Incremental voxel-hash point map with exact k-nearest-neighbor queries.

Storage. Cells are keyed by their integer coordinates packed into one int64
(21 bits per axis, so coordinates must stay within about a million cells of
the origin). A cell keeps at most one point per sub-voxel, one of its 2x2x2
cubes of side edge / 2, so it has _CELL_CAP = 8 slots. Every occupied cell
owns one row of a single padded (3, rows, _CELL_CAP) float array, stored
axis-major: per axis, the row holds that coordinate of the cell's points in
insertion order, and empty slots hold +inf, which is infinitely far from
every query. A fill count and a sub-voxel occupancy mask per row and the
occupied cell keys in ascending order, with the row of each, complete the
store. Row 0 is a sentinel that stays empty; lookups of absent cells gather
it. Rows are handed out in order of first insertion, and the arrays double
when they run out of rows, so a cell costs _CELL_CAP * 24 bytes whatever
its fill.

Distances. Every squared distance comes from _sq_dist, which adds the
per-axis squares in the order np.einsum("ij,ij->i") adds the three columns
of (n, 3) rows, (dx^2 + dz^2) + dy^2. The map therefore ranks by the same
bits as an einsum brute force (the test suite checks the order).

Insertion (insert) keeps the first point to reach each sub-voxel and drops
every later one; nothing is replaced. A point's sub-voxel is its half of the
cell per axis, floor(2 p / edge) - 2 floor(p / edge), from the quotient that
gives its cell. Insertion runs in rounds: round r places the r-th point, in
batch order, of every cell the batch touches, so the rows of one round are
distinct and a round is a few array operations. The loop count is the
largest number of points any one cell receives.

Search (knn_batch). Every query is answered by box passes. A pass ranks,
for each pending query, the points of a box of cells around it: the box's
occupied rows are gathered (so a wide box costs only its occupied cells), a
partition finds each query's k-th smallest d^2, and every candidate at or
below it is kept (ties included). For a query at fractional position f
inside its cell (per axis), the first box is the 2x2x2 octant toward the
nearest cell corner. Every stored point outside it lies at least
margin = edge * min over axes of max(f, 1 - f) >= edge / 2 away, so its k
best are exact when the k-th d^2 is strictly below margin^2 (the margin
shrunk by a tiny safety factor against rounding, and capped at the search
radius): no point outside the box can then tie with or beat a kept one.
Rows a pass cannot certify retry on the box centred on their cell with the
next odd side of 3, 5, 9, 17, ..., whose margin for side 2h + 1 is
edge * min over axes of (h + min(f, 1 - f)) >= h * edge. The last pass uses
the cover side 2h + 1 with h = floor(search_radius / edge) + 1. Every point
within the search radius lies within h cells of the query's cell on each
axis; when search_radius / edge is whole, as at the defaults, exact
arithmetic needs only h - 1, and the spare cell holds the points whose
coordinates round onto the next cell's face. So the cover pass certifies
every row it gets. It keeps the candidates up to
min(k-th d^2, search_radius^2) and so returns fewer than k points where the
radius cuts the search off.

Chunks. A pass sorts its rows by the number of occupied cells in their box,
most first (a stable sort, so equal rows keep query order), and ranks them
in chunks. Each chunk gathers only as many cells per row as its widest row
occupies, absent cells padded with the empty sentinel row, and holds as
many rows as fit into _CHUNK_SLOTS candidate slots at that width; sparse
boxes thus share chunks with sparse boxes and no chunk pays for the densest
box of the pass.

Ranking. The answer is ordered by (d^2, x, y, z). In the common case every
certified row of a chunk keeps exactly k candidates, and a stable argsort
of their (rows, k) distances orders them; that order is the exact answer
whenever the sorted distances strictly increase in every row, since the
coordinates then break no tie. Otherwise (a tie among the kept, a tie at
the k-th distance that keeps more than k, or a radius cut that keeps fewer)
the chunk takes the tie fallback: one lexicographic sort of all kept
candidates on (row, d^2, x, y, z), cut to k per row. Both paths give the
same bits; the fallback is the general rule and the argsort its shortcut.

The answer (Neighbors) is one (n, k, 3) array, NaN past each row's count,
with the count per row; indexing it gives the row's (count, 3) points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_AXIS_BITS = 21
_AXIS_OFF = 1 << (_AXIS_BITS - 1)

# Slots per cell: one per sub-voxel of side edge / 2.
_CELL_CAP = 2 ** 3
# Candidate slots gathered per chunk of queries: a chunk holds as many rows
# as fit at the width of its widest row (occupied box cells times _CELL_CAP).
# Bounds the temporaries of a pass (and so peak memory) whatever the box size.
_CHUNK_SLOTS = 256 * 8 * _CELL_CAP
# Box cells looked up per group of queries; bounds the lookup's temporaries
# when a wide box reaches many queries.
_GROUP_CELLS = 1 << 16
# Shrinks a box's margin so rounding in cell assignment and in the
# squared distances can never certify a point that lies outside it.
_MARGIN_SAFETY = 1.0 - 1e-8
_INITIAL_ROWS = 64
# A plane fit is refused when its 5x3 system is worse conditioned.
_COND_LIMIT = 1e8
# tr(G)^3 <= _GRAM_CERTIFY * det(G) proves cond(A) <= 1e6 (plane_fit_batch).
_GRAM_CERTIFY = 4e12
# Refinement steps after the closed-form solve; one leaves up to 2e-9.
_REFINE_STEPS = 2


def pack_cells(cells) -> np.ndarray:
    """Pack integer cell coordinates (n, 3) into int64 keys."""
    cells = np.asarray(cells, dtype=np.int64)
    return (((cells[..., 0] + _AXIS_OFF) << (2 * _AXIS_BITS))
            | ((cells[..., 1] + _AXIS_OFF) << _AXIS_BITS)
            | (cells[..., 2] + _AXIS_OFF))


@lru_cache(maxsize=16)
def _box(side: int) -> np.ndarray:
    """Key offsets of the cells of a side x side x side box from its lowest
    corner; packing is linear in the coordinates, so a cell's key is the
    corner's key plus a constant."""
    span = np.arange(side)
    cells = np.stack(np.meshgrid(span, span, span, indexing="ij"), -1).reshape(-1, 3)
    deltas = (cells[:, 0] << (2 * _AXIS_BITS)) + (cells[:, 1] << _AXIS_BITS) + cells[:, 2]
    deltas.setflags(write=False)
    return deltas


@dataclass(frozen=True)
class Neighbors:
    """Nearest neighbors of n queries: points (n, k, 3), NaN past each row's
    count, and counts (n,) int64. Row i, by index or iteration, is
    points[i, :counts[i]], so a row with no neighbor is (0, 3)."""

    points: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i) -> np.ndarray:
        return self.points[i, :self.counts[i]]

    def __iter__(self):
        return (row[:c] for row, c in zip(self.points, self.counts.tolist()))


def _sq_dist(dx, dy, dz) -> np.ndarray:
    """Squared norms from per-axis differences, summed in einsum's order
    (see the module docstring)."""
    d2 = dx * dx
    d2 += dz * dz
    d2 += dy * dy
    return d2


def plane_fit_batch(stacks, max_residual: float = 0.1):
    """Least-squares planes through stacked 5-point sets (m, 5, 3).

    Solves A n = -1 per set A (rows q_i, so q_i . n = -1), then normalizes.
    Returns (normals (m,3), offsets (m,), residuals (m,), valid (m,)); a set
    is invalid when cond(A) exceeds _COND_LIMIT (near-collinear points, or a
    plane through the origin, which this form cannot represent) or the worst
    point-plane distance exceeds max_residual.

    The solve is closed form on the normal equations: G = A^T A, then
    n = G^-1 A^T(-1) by adjugate and determinant, then _REFINE_STEPS steps of
    n += G^-1 A^T(-1 - A n). A set is certified when det G > 0 and
    tr(G)^3 <= _GRAM_CERTIFY det G. With eigenvalues l1 >= l2 >= l3 of G,
    tr^3 / det >= (l1 + l2)^3 / (l1 l2 l3) >= 4 l1 / l3 = 4 cond(A)^2, so a
    certified set has cond(A) <= 1e6. Rounding moves the computed det by
    about 1e-15 tr^3, under 1% of the bound, so the true cond(A) stays within
    about 1.01e6, far inside _COND_LIMIT: a certified set passes the SVD's
    condition test too, and its normal and offset agree with the SVD
    solution to about 1e-10 (relative, for the offset). One refinement step
    is not enough for that: when two eigenvalues of G are small, as for a
    small patch far from the origin, the adjugate solve errs by up to 1e-4
    and one step leaves about 2e-9. Sets the bound cannot certify (a few in
    10^4 on the benchmark's maps) take the SVD solve, which decides the
    condition test exactly and gives them the bits it gives them alone.
    """
    stacks = np.asarray(stacks, dtype=float)
    if len(stacks) == 0:
        return (np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool))
    n_raw, ok = _solve_gram(stacks)
    rest = np.flatnonzero(~ok)
    n_raw[rest], ok[rest] = _solve_svd(stacks[rest])
    norms = np.linalg.norm(n_raw, axis=1)
    ok &= norms > 0.0
    safe = np.where(norms > 0.0, norms, 1.0)
    normals = n_raw / safe[:, None]
    offsets = 1.0 / safe
    dists = np.abs(np.einsum("mij,mj->mi", stacks, normals) + offsets[:, None])
    residuals = dists.max(axis=1)
    ok &= residuals <= max_residual
    return normals, offsets, residuals, ok


def _solve_gram(stacks: np.ndarray):
    """Closed-form solutions of A n = -1 per set, and which sets the Gram
    bound certifies (see plane_fit_batch); uncertified rows hold junk."""
    # Coordinates as (5, m) rows: sums over a set's 5 points then add whole
    # rows, several times faster than reducing the short last axis.
    x, y, z = np.ascontiguousarray(stacks.transpose(2, 1, 0))
    # G = [[a, d, e], [d, b, f], [e, f, c]] and its adjugate.
    a, b, c = (x * x).sum(0), (y * y).sum(0), (z * z).sum(0)
    d, e, f = (x * y).sum(0), (x * z).sum(0), (y * z).sum(0)
    adj = (b * c - f * f, e * f - d * c, d * f - b * e,
           a * c - e * e, d * e - a * f, a * b - d * d)
    det = a * adj[0] + d * adj[1] + e * adj[2]
    trace = a + b + c
    ok = (det > 0.0) & (trace * trace * trace <= _GRAM_CERTIFY * det)
    inv_det = 1.0 / np.where(ok, det, 1.0)

    def solve(gx, gy, gz):
        """G^-1 (gx, gy, gz) per set."""
        return ((adj[0] * gx + adj[1] * gy + adj[2] * gz) * inv_det,
                (adj[1] * gx + adj[3] * gy + adj[4] * gz) * inv_det,
                (adj[2] * gx + adj[4] * gy + adj[5] * gz) * inv_det)

    nx, ny, nz = solve(-x.sum(0), -y.sum(0), -z.sum(0))
    for _ in range(_REFINE_STEPS):
        r = -1.0 - (x * nx + y * ny + z * nz)
        dx, dy, dz = solve((x * r).sum(0), (y * r).sum(0), (z * r).sum(0))
        nx, ny, nz = nx + dx, ny + dy, nz + dz
    return np.stack([nx, ny, nz], axis=1), ok


def _solve_svd(stacks: np.ndarray):
    """Min-norm least-squares solutions of A n = -1 per set via the SVD, and
    which sets pass the condition test."""
    u, s, vt = np.linalg.svd(stacks, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    ok = np.isfinite(cond) & (cond <= _COND_LIMIT)
    inv_s = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    rhs = -np.ones((len(stacks), 5))
    # n = V diag(1/s) U^T rhs.
    return np.einsum("mij,mi->mj", vt, inv_s * np.einsum("mij,mi->mj", u, rhs)), ok


class VoxelMap:
    """Single-writer voxel-hash map (insert and query never interleave)."""

    def __init__(self, edge: float = 0.5, search_radius: float = 5.0):
        if edge <= 0.0 or search_radius <= 0.0:
            raise ValueError("edge and search_radius must be positive")
        self.edge = edge
        self.search_radius = search_radius
        # Rows past the last occupied cell are never read; np.empty leaves
        # their pages untouched until a cell claims them.
        self._slots = np.empty((3, _INITIAL_ROWS, _CELL_CAP))
        self._slots[:, 0] = np.inf
        self._fill = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        # Bit 4 x + 2 y + z: the sub-voxel with halves (x, y, z) holds a point.
        self._occupied = np.zeros(_INITIAL_ROWS, dtype=np.uint8)
        # Occupied cell keys in ascending order, and the row of each.
        self._keys = np.empty(0, dtype=np.int64)
        self._key_rows = np.empty(0, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """Stored points, cell by cell in order of first insertion."""
        used = slice(1, len(self._keys) + 1)
        filled = np.arange(_CELL_CAP) < self._fill[used, None]
        return np.ascontiguousarray(self._slots[:, used][:, filled].T)

    def _reserve(self, needed: int) -> None:
        """Double the row capacity until it holds `needed` rows."""
        size = len(self._fill)
        if needed <= size:
            return
        while size < needed:
            size *= 2
        slots = np.empty((3, size, _CELL_CAP))
        slots[:, :len(self._fill)] = self._slots
        grow = (0, size - len(self._fill))
        self._slots, self._fill, self._occupied = (
            slots, np.pad(self._fill, grow), np.pad(self._occupied, grow))

    def insert(self, points) -> None:
        """Add world-frame points, dropping each whose sub-voxel already holds
        one, stored or earlier in the batch."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("insert expects finite points")
        if len(points) == 0:
            return
        scaled = points / self.edge
        cells = np.floor(scaled)
        halves = (np.floor(2.0 * scaled) - 2.0 * cells).astype(np.int64)
        bits = (1 << (halves @ (4, 2, 1))).astype(np.uint8)
        keys = pack_cells(cells.astype(np.int64))
        # Group the points by cell, batch order kept within each cell.
        perm = np.argsort(keys, kind="stable")
        sorted_keys = keys[perm]
        starts = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[0] - 1))
        counts = np.diff(starts, append=len(keys))
        rows = self._claim_rows(sorted_keys[starts], perm[starts])
        for r in range(int(counts.max())):
            has = counts > r
            at = perm[starts[has] + r]
            self._place(points[at], rows[has], bits[at])

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

    def _place(self, points: np.ndarray, rows: np.ndarray, bits: np.ndarray) -> None:
        """Apply the insertion rule to one point in each of distinct rows:
        a point whose sub-voxel bit is set is dropped, the others append."""
        free = (self._occupied[rows] & bits) == 0
        rows, points, bits = rows[free], points[free], bits[free]
        fill = self._fill[rows]
        self._slots[:, rows, fill] = points.T
        self._fill[rows] = fill + 1
        self._occupied[rows] |= bits
        self._count += len(rows)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Row of each cell key; the empty sentinel row 0 for absent cells."""
        known = self._keys
        if len(known) == 0:
            return np.zeros(np.shape(keys), dtype=np.int64)
        pos = known.searchsorted(keys)
        np.minimum(pos, len(known) - 1, out=pos)
        return np.where(known[pos] == keys, self._key_rows[pos], 0)

    def knn_batch(self, queries, k: int) -> Neighbors:
        """Up to k nearest stored points within the search radius, per query.

        Exact Euclidean nearest neighbors, ascending distance, ties broken
        by lexicographic coordinates; fewer than k points where the radius
        cuts the search off. Box passes of growing side answer the queries,
        the last one every query still open (see the module docstring).
        Returns one Neighbors record for all queries, in query order.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        nb = Neighbors(np.full((len(queries), k, 3), np.nan),
                       np.zeros(len(queries), dtype=np.int64))
        if len(self._keys) == 0:
            return nb
        pending = np.arange(len(queries))
        cover = 2 * (int(self.search_radius / self.edge) + 1) + 1
        side = 2
        while side < cover:
            pending = self._box_pass(queries, pending, k, nb, side, cover=False)
            side = 2 * side - 1
        self._box_pass(queries, pending, k, nb, cover, cover=True)
        return nb

    def _box_pass(self, queries: np.ndarray, pending: np.ndarray, k: int,
                  nb: Neighbors, side: int, cover: bool) -> np.ndarray:
        """Rank each pending query's side**3 box of cells: the octant toward
        the nearest cell corner (side 2) or the box centred on its cell (odd
        side). Fills nb's row for every query the box certifies, or for
        every query in the cover pass, and returns the ones it could not."""
        if len(pending) == 0:
            return pending
        scaled = queries[pending] / self.edge
        cells = np.floor(scaled)
        frac = scaled - cells
        low = np.where(frac >= 0.5, 0, -1) if side == 2 else -(side // 2)
        # Distance from the query to the box's nearest face, in cells.
        margin = np.min(np.minimum(frac - low, low + side - frac), axis=1)
        certify_sq = np.minimum(margin * self.edge * _MARGIN_SAFETY, self.search_radius) ** 2
        corner_keys = pack_cells(cells.astype(np.int64) + low)
        certified = np.zeros(len(pending), dtype=bool)
        group = max(1, _GROUP_CELLS // side ** 3)
        for g in range(0, len(pending), group):
            box_rows = self._lookup(corner_keys[g:g + group, None] + _box(side))
            # Occupied cells first (absent ones look up the sentinel row 0),
            # and rows with the most of them first.
            box_rows = np.sort(box_rows, axis=1)[:, ::-1]
            occupied = np.count_nonzero(box_rows, axis=1)
            by_width = np.argsort(-occupied, kind="stable")
            lo = 0
            while lo < len(by_width):
                width = max(1, int(occupied[by_width[lo]]))
                hi = min(lo + max(1, _CHUNK_SLOTS // (width * _CELL_CAP)), len(by_width))
                rows = by_width[lo:hi]
                at = g + rows
                certified[at] = self._rank(queries, pending[at], box_rows[rows, :width], k,
                                           None if cover else certify_sq[at], nb)
                lo = hi
        return pending[~certified]

    def _rank(self, queries: np.ndarray, pending: np.ndarray, box_rows: np.ndarray, k: int,
              certify_sq, nb: Neighbors) -> np.ndarray:
        """Rank the points of the cell rows box_rows[i] for the query
        pending[i]. Fills nb's row with the up to k best points within the
        search radius of every query it certifies (all when certify_sq is
        None) and returns which those are."""
        q = queries[pending]
        width = box_rows.shape[1] * _CELL_CAP
        # The differences overwrite the gathered coordinates, so a chunk
        # holds one (3, rows, width) array, freed before the partition; the
        # few ranked points are gathered again from the store (_candidates).
        diff = np.take(self._slots, box_rows, axis=1).reshape(3, len(q), width)
        diff -= q.T[:, :, None]
        d2 = _sq_dist(*diff)
        del diff
        kth = (np.partition(d2, k - 1, axis=1)[:, k - 1] if k <= width
               else np.full(len(q), np.inf))
        ok = np.ones(len(q), dtype=bool) if certify_sq is None else kth < certify_sq
        if not ok.any():
            return ok
        # Keep every candidate up to the k-th distance of a certified row,
        # ties included, and within the search radius; uncertified rows
        # keep none.
        limit = np.where(ok, np.minimum(kth, self.search_radius ** 2), -np.inf)
        kept = d2 <= limit[:, None]
        counts = np.count_nonzero(kept, axis=1)
        if np.all(counts[ok] == k):
            answered = pending[ok]
            # Row-major, so certified row i's k candidates fill row i.
            flat = np.flatnonzero(kept).reshape(len(answered), k)
            d2_kept = d2.take(flat)
            order = np.argsort(d2_kept, axis=1, kind="stable")
            order += np.arange(0, flat.size, k)[:, None]
            d2_kept = d2_kept.take(order)
            if np.all(d2_kept[:, 1:] > d2_kept[:, :-1]):
                top = flat.take(order)
                nb.points[answered] = self._candidates(box_rows, top).transpose(1, 2, 0)
                nb.counts[answered] = k
                return ok
        self._rank_ties(box_rows, d2, kept, counts, pending, k, nb)
        return ok

    def _rank_ties(self, box_rows: np.ndarray, d2: np.ndarray, kept: np.ndarray,
                   counts: np.ndarray, pending: np.ndarray, k: int, nb: Neighbors) -> None:
        """The general ranking of _rank: order each row's kept candidates by
        (d^2, x, y, z) and write its first min(count, k) points and their
        number into nb (uncertified rows keep none and stay empty)."""
        flat = np.flatnonzero(kept)
        pts = self._candidates(box_rows, flat)
        # The row is the primary key, so row i's candidates fill
        # order[starts[i]:starts[i] + counts[i]], best first.
        order = np.lexsort((pts[2], pts[1], pts[0], d2.take(flat), flat // d2.shape[1]))
        starts = np.cumsum(counts) - counts
        take = np.minimum(counts, k)
        ends = np.cumsum(take)
        slot = np.arange(ends[-1]) - np.repeat(ends - take, take)
        top = order[slot + np.repeat(starts, take)]
        nb.points[np.repeat(pending, take), slot] = pts.take(top, axis=1).T
        nb.counts[pending] = take

    def _candidates(self, box_rows: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Coordinates (3, *flat.shape) of the candidates at flat indices into
        the (rows, box cells * _CELL_CAP) candidate grid of box_rows."""
        cell, slot = np.divmod(flat, _CELL_CAP)
        return self._slots[:, box_rows.ravel()[cell], slot]
