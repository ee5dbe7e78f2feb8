"""Incremental sub-voxel point map with exact k-nearest-neighbor queries.

Store. The map keeps at most one point per sub-voxel, a cube of side
edge / 2 whose integer coordinates are floor(2 (p / edge)) per axis. The
points sit in one (3, N + 1) float array in insertion order, stored
axis-major; column 0 is a +inf sentinel, infinitely far from every query.
A dense int32 grid over a box of sub-voxels holds each sub-voxel's column,
or 0 where it is empty, so a lookup is a take of flat grid indices and
needs no key search. The grid's size follows the box the map spans, not
its point count.

Growth. The grid starts as the bounding box of the first batch. When a
batch reaches past it, the grid is reallocated over the box that holds
both, widened on each side that grew by _GRID_SPARE of the new extent along
that axis, so a map that keeps growing one way (a sensor driving down a
corridor) is copied a few times, not once per batch. _GRID_CAP caps the
grid's entries: the spare room is dropped where it alone would pass the
cap, and insert refuses a batch whose box passes it before it allocates
anything. With at most one point per entry, the cap also keeps every
column inside int32.

Distances. Every squared distance comes from _sq_dist, which adds the
per-axis squares in the order np.einsum("ij,ij->i") adds the three columns
of (n, 3) rows, (dx^2 + dz^2) + dy^2. The map therefore ranks by the same
bits as an einsum brute force (the test suite checks the order).

Insertion (insert) keeps the first point to reach each sub-voxel and drops
every later one; nothing is replaced. It is one pass: of the batch's points
whose grid entry is empty, the first in batch order of each sub-voxel
(np.unique) is appended, and its column written into the grid.

Search (knn_batch). Every query is answered by box passes. A pass ranks,
for each pending query, the stored points of a box of sub-voxels around it:
the box's grid entries are gathered (so a wide box costs only its points),
a partition finds each query's k-th smallest d^2, and every candidate at or
below it is kept (ties included). Distances below are in sub-voxels. For a
query at fractional position f inside its sub-voxel (per axis), the first
box is the 4x4x4 block centred on the nearest sub-voxel corner, so the
query lies at least 1.5 from each of its faces. Every stored point outside
it lies at least margin = min over axes of the distance to the nearer face
away, so its k best are exact when the k-th d^2 is strictly below margin^2
(the margin shrunk by a tiny safety factor against rounding, and capped at
the search radius): no point outside the box can then tie with or beat a
kept one. Rows a pass cannot certify retry on the box centred on their
sub-voxel with the next odd side of 7, 13, 25, ... (2 s - 1 after side s),
whose margin for side 2h + 1 is min over axes of (h + min(f, 1 - f)) >= h.
The last pass uses the cover side 2h + 1 with h = floor(2 search_radius / edge)
+ 1. Every point within the search radius lies within h sub-voxels of the
query's on each axis; when 2 search_radius / edge is whole, as at the
defaults, exact arithmetic needs only h - 1, and the spare sub-voxel holds
the points whose coordinates round onto the next one's face. So the cover
pass certifies every row it gets. It keeps the candidates up to
min(k-th d^2, search_radius^2) and so returns fewer than k points where the
radius cuts the search off.

Clipping. A box is cut to the grid's size on each axis and shifted inside
the grid, so its lookups never leave it, however far outside the query
lies. The shifted box still holds every entry the true box shares with the
grid, and the part of the true box it drops lies outside the grid, where no
point is stored; the points it adds from outside the true box can only be
ranked, never missed. The margin stays the true box's, so every
certificate stays exact.

Chunks. A pass sorts each row's box entries, occupied ones last, and its
rows by their number of points, most first (a stable sort, so equal rows
keep query order), and ranks the rows in chunks. Each chunk gathers only as
many entries per row as its widest row holds points, the rest padded with
the sentinel, and holds as many rows as fit into _CHUNK_SLOTS candidate
slots at that width; sparse boxes thus share chunks with sparse boxes and
no chunk pays for the densest box of the pass. Box lookups run in groups of
queries of at most _GROUP_CELLS entries, so a wide box bounds them too.

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

import math
from dataclasses import dataclass

import numpy as np

# Entries the sub-voxel grid may hold, 4 bytes each (512 MiB at the cap):
# about 450 times the largest preset map's, 153 x 149 x 13 = 296 361 on an
# open-yard circle, and below 2**31, so a point's column always fits int32.
_GRID_CAP = 1 << 27
# Spare room a growing side of the grid takes, as a share of the new extent.
# Without it the 10 s corridor line regrows the grid on 49 of its 100 scans.
_GRID_SPARE = 0.125
# Candidate slots gathered per chunk of queries: a chunk holds as many rows
# as fit at the width of its widest row (the most points any of its boxes
# holds). Bounds the temporaries of a pass (and so peak memory) whatever the
# box size.
_CHUNK_SLOTS = 1 << 14
# Grid entries looked up per group of queries; bounds the lookup's
# temporaries when a wide box reaches many queries.
_GROUP_CELLS = 1 << 16
# Shrinks a box's margin so rounding in sub-voxel assignment and in the
# squared distances can never certify a point that lies outside it.
_MARGIN_SAFETY = 1.0 - 1e-8
_INITIAL_POINTS = 1 << 10
# tr(G)^3 <= _GRAM_CERTIFY * det(G) proves cond(A) <= 1e6 (plane_fit_batch).
_GRAM_CERTIFY = 4e12
# Refinement steps after the closed-form solve; one leaves up to 2e-9.
_REFINE_STEPS = 2


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
    Returns (normals (m,3), offsets (m,), residuals (m,), valid (m,)). A set
    is valid if and only if the Gram bound below certifies it and its worst
    point-plane distance is at most max_residual; the bound refuses
    near-collinear points and planes through the origin, which this form
    cannot represent. Refused rows hold unspecified values.

    The solve is closed form on the normal equations: G = A^T A, then
    n = G^-1 A^T(-1) by adjugate and determinant, then _REFINE_STEPS steps of
    n += G^-1 A^T(-1 - A n). A set is certified when det G > 0 and
    tr(G)^3 <= _GRAM_CERTIFY det G. With eigenvalues l1 >= l2 >= l3 of G,
    tr^3 / det >= (l1 + l2)^3 / (l1 l2 l3) >= 4 l1 / l3 = 4 cond(A)^2, so a
    certified set has cond(A) <= 1e6. Rounding moves the computed det by
    about 1e-15 tr^3, under 1% of the bound, so the true cond(A) stays within
    about 1.01e6, and a certified set's normal and offset agree with an SVD
    solve to about 1e-10 (relative, for the offset). One refinement step is
    not enough for that: when two eigenvalues of G are small, as for a small
    patch far from the origin, the adjugate solve errs by up to 1e-4 and one
    step leaves about 2e-9.
    """
    stacks = np.asarray(stacks, dtype=float)
    n_raw, ok = _solve_gram(stacks)
    norms = np.linalg.norm(n_raw, axis=1)
    ok &= norms > 0.0
    safe = np.where(ok, norms, 1.0)
    normals = n_raw / safe[:, None]
    offsets = 1.0 / safe
    dists = np.abs(np.einsum("mij,mj->mi", stacks, normals) + offsets[:, None])
    residuals = dists.max(axis=1)
    ok &= residuals <= max_residual
    return normals, offsets, residuals, ok


def _solve_gram(stacks: np.ndarray):
    """Closed-form solutions of A n = -1 per set, and which sets the Gram
    bound certifies (see plane_fit_batch); uncertified rows hold zeros."""
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
    inv_det = ok / np.where(ok, det, 1.0)

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


class VoxelMap:
    """Single-writer sub-voxel map (insert and query never interleave)."""

    def __init__(self, edge: float = 0.5, search_radius: float = 5.0):
        if not (0.0 < edge < math.inf and 0.0 < search_radius < math.inf):
            raise ValueError("edge and search_radius must be positive and finite")
        self.edge = edge
        self.search_radius = search_radius
        # Columns past the last point are never read; np.empty leaves their
        # pages untouched until a point claims them.
        self._points = np.empty((3, _INITIAL_POINTS + 1))
        self._points[:, 0] = np.inf
        self._count = 0
        # The grid, flat and C-ordered, of shape _shape with its lowest entry
        # at sub-voxel _lo. _lo holds whole floats, like the sub-voxel
        # coordinates, which are cast to integers only as offsets into the
        # grid, so no coordinate can overflow an int64.
        self._grid = np.zeros(0, dtype=np.int32)
        self._shape = np.zeros(3, dtype=np.int64)
        self._lo = np.zeros(3)

    def __len__(self) -> int:
        return self._count

    @property
    def points(self) -> np.ndarray:
        """Stored points in insertion order."""
        return np.ascontiguousarray(self._points[:, 1:self._count + 1].T)

    def insert(self, points) -> None:
        """Add world-frame points, dropping each whose sub-voxel already holds
        one, stored or earlier in the batch."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(points)):
            raise ValueError("insert expects finite points")
        if len(points) == 0:
            return
        entries = self._grid_index(np.floor(2.0 * (points / self.edge)))
        free = np.flatnonzero(self._grid.take(entries) == 0)
        _, first = np.unique(entries[free], return_index=True)
        new = free[np.sort(first)]
        end = self._count + 1 + len(new)
        if end > self._points.shape[1]:
            grown = np.empty((3, max(end, 2 * self._points.shape[1])))
            grown[:, :self._count + 1] = self._points[:, :self._count + 1]
            self._points = grown
        self._points[:, self._count + 1:end] = points[new].T
        self._grid[entries[new]] = np.arange(self._count + 1, end)
        self._count += len(new)

    def _grid_index(self, subs: np.ndarray) -> np.ndarray:
        """Flat grid index of each sub-voxel of subs (n, 3), after growing
        the grid to hold them all (see the module docstring)."""
        lo, hi = subs.min(axis=0), subs.max(axis=0) + 1.0
        top = self._lo + self._shape
        low, high = lo < self._lo, hi > top
        if self._count == 0:
            self._regrid(lo, hi)
        elif low.any() or high.any():
            lo, hi = np.minimum(lo, self._lo), np.maximum(hi, top)
            spare = np.floor(_GRID_SPARE * (hi - lo))
            wide_lo, wide_hi = np.where(low, lo - spare, lo), np.where(high, hi + spare, hi)
            if np.prod(wide_hi - wide_lo) <= _GRID_CAP:
                lo, hi = wide_lo, wide_hi
            self._regrid(lo, hi)
        return np.ravel_multi_index((subs - self._lo).astype(np.int64).T, self._shape)

    def _regrid(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Reallocate the grid over sub-voxels lo to hi (exclusive), keeping
        every stored entry; refuse a grid of more than _GRID_CAP entries."""
        if not np.prod(hi - lo) <= _GRID_CAP:
            raise ValueError(f"the map's sub-voxel grid would span {(hi - lo).tolist()} "
                             f"sub-voxels, more than {_GRID_CAP} entries")
        shape = (hi - lo).astype(np.int64)
        grid = np.zeros(tuple(shape), dtype=np.int32)
        if self._count:
            at = (self._lo - lo).astype(np.int64)
            grid[tuple(map(slice, at, at + self._shape))] = self._grid.reshape(self._shape)
        self._grid, self._shape, self._lo = grid.ravel(), shape, lo

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
        if not np.all(np.isfinite(queries)):
            raise ValueError("knn_batch expects finite queries")
        nb = Neighbors(np.full((len(queries), k, 3), np.nan),
                       np.zeros(len(queries), dtype=np.int64))
        if self._count == 0:
            return nb
        pending = np.arange(len(queries))
        cover = 2 * (int(2.0 * self.search_radius / self.edge) + 1) + 1
        side = 4
        while side < cover:
            pending = self._box_pass(queries, pending, k, nb, side, cover=False)
            side = 2 * side - 1
        self._box_pass(queries, pending, k, nb, cover, cover=True)
        return nb

    def _box_pass(self, queries: np.ndarray, pending: np.ndarray, k: int,
                  nb: Neighbors, side: int, cover: bool) -> np.ndarray:
        """Rank each pending query's side**3 box of sub-voxels: the block
        centred on the nearest sub-voxel corner (side 4) or the box centred
        on its sub-voxel (odd side), clipped into the grid. Fills nb's row
        for every query the box certifies, or for every query in the cover
        pass, and returns the ones it could not."""
        if len(pending) == 0:
            return pending
        scaled = 2.0 * (queries[pending] / self.edge)
        subs = np.floor(scaled)
        frac = scaled - subs
        low = np.where(frac >= 0.5, -1.0, -2.0) if side == 4 else -(side // 2)
        # Distance from the query to the box's nearest face, in sub-voxels.
        margin = np.min(np.minimum(frac - low, low + side - frac), axis=1)
        certify_sq = np.minimum(margin * (0.5 * self.edge) * _MARGIN_SAFETY,
                                self.search_radius) ** 2
        dims = np.minimum(side, self._shape)
        corners = np.clip(subs + low - self._lo, 0, self._shape - dims).astype(np.int64)
        bases = np.ravel_multi_index(corners.T, self._shape)
        offsets = np.ravel_multi_index(np.indices(dims).reshape(3, -1), self._shape)
        certified = np.zeros(len(pending), dtype=bool)
        group = max(1, _GROUP_CELLS // len(offsets))
        for g in range(0, len(pending), group):
            # Occupied entries last (empty ones hold the sentinel column 0),
            # and rows with the most of them first.
            box = np.sort(self._grid.take(bases[g:g + group, None] + offsets), axis=1)
            occupied = np.count_nonzero(box, axis=1)
            by_width = np.argsort(-occupied, kind="stable")
            lo = 0
            while lo < len(by_width):
                width = max(1, int(occupied[by_width[lo]]))
                hi = min(lo + max(1, _CHUNK_SLOTS // width), len(by_width))
                rows = by_width[lo:hi]
                at = g + rows
                certified[at] = self._rank(queries, pending[at], box[rows, -width:], k,
                                           None if cover else certify_sq[at], nb)
                lo = hi
        return pending[~certified]

    def _rank(self, queries: np.ndarray, pending: np.ndarray, box: np.ndarray, k: int,
              certify_sq, nb: Neighbors) -> np.ndarray:
        """Rank the points of the columns box[i] for the query pending[i].
        Fills nb's row with the up to k best points within the search
        radius of every query it certifies (all when certify_sq is None) and
        returns which those are."""
        q = queries[pending]
        # The differences overwrite the gathered coordinates, so a chunk
        # holds one (3, rows, width) array, freed before the partition; the
        # few ranked points are gathered again from the store.
        diff = self._points.take(box, axis=1)
        diff -= q.T[:, :, None]
        d2 = _sq_dist(*diff)
        del diff
        width = box.shape[1]
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
                top = box.take(flat.take(order))
                nb.points[answered] = self._points.take(top, axis=1).transpose(1, 2, 0)
                nb.counts[answered] = k
                return ok
        self._rank_ties(box, d2, kept, counts, pending, k, nb)
        return ok

    def _rank_ties(self, box: np.ndarray, d2: np.ndarray, kept: np.ndarray,
                   counts: np.ndarray, pending: np.ndarray, k: int, nb: Neighbors) -> None:
        """The general ranking of _rank: order each row's kept candidates by
        (d^2, x, y, z) and write its first min(count, k) points and their
        number into nb (uncertified rows keep none and stay empty)."""
        flat = np.flatnonzero(kept)
        pts = self._points.take(box.take(flat), axis=1)
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
