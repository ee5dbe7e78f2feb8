import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantlio import coprocessor, pipeline, voxelmap
from quantlio.voxelmap import Neighbors, VoxelMap, _solve_gram, _sq_dist, plane_fit_batch
from test_pipeline import record_knn_calls, short_run


def brute_knn(points, query, k, radius=5.0):
    """Exact k nearest within radius: the einsum squared distance the map
    ranks by, ties broken by lexicographic coordinates."""
    if len(points) == 0:
        return np.empty((0, 3))
    diff = points - query
    d2 = np.einsum("ij,ij->i", diff, diff)
    keep = d2 <= radius ** 2
    pts, d2 = points[keep], d2[keep]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0], d2))[:k]
    return pts[order]


def replay_insert(batches, edge):
    """The insertion rule replayed point by point: the first point to reach a
    sub-voxel (a cube of side edge / 2) stays and every later one is dropped.
    Returns the kept points in insertion order."""
    kept, taken = [], set()
    for batch in batches:
        for p in batch:
            sub = tuple(np.floor(p / (edge / 2)).astype(int))
            if sub not in taken:
                taken.add(sub)
                kept.append(p.copy())
    return np.array(kept).reshape(-1, 3)


def assert_exact(vm, queries, k):
    """knn_batch equals the brute force, array for array."""
    stored = vm.points
    got = vm.knn_batch(queries, k)
    assert len(got) == len(queries)
    for q, g in zip(queries, got):
        np.testing.assert_array_equal(g, brute_knn(stored, q, k, vm.search_radius))


def record_passes(monkeypatch):
    """Wrap VoxelMap._box_pass; the returned list collects, per pass that
    got rows, (side, rows it answered)."""
    answered = []
    box_pass = VoxelMap._box_pass

    def recording(vm, queries, pending, k, nb, side, cover):
        rest = box_pass(vm, queries, pending, k, nb, side, cover)
        if len(pending):
            answered.append((side, len(pending) - len(rest)))
        return rest

    monkeypatch.setattr(VoxelMap, "_box_pass", recording)
    return answered


def record_chunks(monkeypatch):
    """Wrap VoxelMap._box_pass, _rank and _rank_ties; the returned list
    collects, per chunk, (box side of its pass, candidates gathered per row,
    rows certified, whether the tie fallback ranked it)."""
    chunks = []
    side, fell_back = [], []
    box_pass, rank, rank_ties = VoxelMap._box_pass, VoxelMap._rank, VoxelMap._rank_ties

    def recording_pass(vm, queries, pending, k, nb, side_, cover):
        side[:] = [side_]
        return box_pass(vm, queries, pending, k, nb, side_, cover)

    def recording_ties(vm, *args):
        fell_back.append(True)
        return rank_ties(vm, *args)

    def recording(vm, queries, pending, box, k, certify_sq, nb):
        fell_back.clear()
        ok = rank(vm, queries, pending, box, k, certify_sq, nb)
        chunks.append((side[0], box.shape[1], int(np.count_nonzero(ok)), bool(fell_back)))
        return ok

    monkeypatch.setattr(VoxelMap, "_box_pass", recording_pass)
    monkeypatch.setattr(VoxelMap, "_rank", recording)
    monkeypatch.setattr(VoxelMap, "_rank_ties", recording_ties)
    return chunks


class TestInsert:
    def test_single_point_retrievable(self):
        vm = VoxelMap()
        vm.insert([1.0, 2.0, 3.0])
        np.testing.assert_allclose(vm.knn_batch([0.0, 0.0, 0.0], 1)[0], [[1.0, 2.0, 3.0]])

    def test_duplicate_at_cap_unchanged(self):
        # One point at the centre of each of a cell's 8 sub-voxels fills it;
        # a later point in a taken sub-voxel, an exact copy or not, is
        # dropped and replaces nothing, and of two points of one batch that
        # share a free sub-voxel the first stays.
        centres = np.stack(np.meshgrid(*[[0.25, 0.75]] * 3, indexing="ij"), -1).reshape(-1, 3)
        vm = VoxelMap(edge=1.0)
        vm.insert(centres)
        assert len(vm) == 8
        vm.insert([centres[3], centres[5] + 0.2])
        np.testing.assert_array_equal(vm.points, centres)
        vm = VoxelMap(edge=1.0)
        vm.insert([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.6, 0.1, 0.1]])
        np.testing.assert_array_equal(vm.points, [[0.1, 0.1, 0.1], [0.6, 0.1, 0.1]])

    def test_cap_respected(self):
        vm = VoxelMap(edge=1.0)
        rng = np.random.default_rng(0)
        vm.insert(rng.uniform(0, 1, (100, 3)))
        assert len(vm) == 8

    def test_replay_oracle(self):
        # Replaying the insertion rule point by point reproduces the stored set.
        vm = VoxelMap(edge=0.5)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, (10_000, 3))
        vm.insert(pts)
        expected = replay_insert([pts], 0.5)
        got = vm.points
        assert len(got) == len(expected) < len(pts)
        order_a = np.lexsort((expected[:, 2], expected[:, 1], expected[:, 0]))
        order_b = np.lexsort((got[:, 2], got[:, 1], got[:, 0]))
        np.testing.assert_allclose(expected[order_a], got[order_b])

    def test_replay_oracle_across_grid_growth(self):
        # Each batch reaches past the grid on some side, and between them on
        # every side of every axis, negative coordinates included, so the
        # grid is reallocated mid-run with its entries shifted; the point
        # store outgrows its first allocation too. Points come back in
        # insertion order and every query stays exact.
        vm = VoxelMap(edge=0.5)
        rng = np.random.default_rng(11)
        boxes = [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), ((-2.0, 0.5, -0.5), (0.5, 3.0, 0.5)),
                 ((0.5, -3.0, -4.0), (2.5, 0.5, 0.0)), ((-1.0, -1.0, 0.0), (4.0, 1.0, 3.0)),
                 ((-6.0, -5.0, -6.0), (-1.0, -2.0, -3.0))]
        batches = [rng.uniform(lo, hi, (1500, 3)) for lo, hi in boxes]
        lows, highs = [], []
        for batch in batches:
            vm.insert(batch)
            lows.append(vm._lo.copy())
            highs.append(vm._lo + vm._shape)
        lows, highs = np.array(lows), np.array(highs)
        assert np.all((np.diff(lows, axis=0) < 0).any(axis=0))
        assert np.all((np.diff(highs, axis=0) > 0).any(axis=0))
        assert len(vm) > 2 * voxelmap._INITIAL_POINTS
        np.testing.assert_array_equal(vm.points, replay_insert(batches, 0.5))
        assert_exact(vm, rng.uniform(-7, 5, (60, 3)), 5)

    @settings(max_examples=25)
    @given(edge=st.sampled_from([0.5, 1.0]), clusters=st.integers(1, 120),
           per_cluster=st.integers(1, 30), spread=st.sampled_from([0.02, 0.1, 0.3]),
           calls=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    # One call that outgrows the point store's first allocation and fills
    # most of the sub-voxels it reaches.
    @example(edge=0.5, clusters=120, per_cluster=30, spread=0.3, calls=1, seed=0)
    def test_batched_insert_matches_replay(self, edge, clusters, per_cluster, spread,
                                           calls, seed):
        # Clustered points send many points to one sub-voxel in one call, so
        # later ones meet a sub-voxel taken earlier in the same batch; a
        # fifth are exact copies of other points.
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-6, 6, (clusters, 3))
        n = clusters * per_cluster
        pts = centres[rng.integers(0, clusters, n)] + rng.normal(0, spread, (n, 3))
        copies = rng.random(n) < 0.2
        pts[copies] = pts[rng.integers(0, n, np.count_nonzero(copies))]
        batches = np.array_split(pts, calls)
        vm = VoxelMap(edge=edge)
        for batch in batches:
            vm.insert(batch)
        expected = replay_insert(batches, edge)
        assert len(vm) == len(expected)
        np.testing.assert_array_equal(vm.points, expected)

    def test_repeated_ray_hits_keep_one_point_per_sub_voxel(self):
        # A static sensor's fixed rays hit the plane x + 2y + 3z = 4 again on
        # every scan, spread only by range noise: the map keeps at most one
        # hit per sub-voxel, so no cell holds more than 8. The rays aim at
        # a 6 m patch of the plane, as a range-limited sensor's would.
        rng = np.random.default_rng(17)
        normal, offset = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0), 4.0 / np.sqrt(14.0)
        origin = np.array([0.3, -0.2, -1.0])
        u = np.cross(normal, [1.0, 0.0, 0.0])
        u /= np.linalg.norm(u)
        targets = offset * normal + rng.uniform(-3, 3, (40, 2)) @ [u, np.cross(normal, u)]
        rays = targets - origin
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        ranges = (offset - origin @ normal) / (rays @ normal)
        vm = VoxelMap(edge=0.5)
        for _ in range(200):
            noisy = ranges + 0.02 * rng.standard_normal(len(ranges))
            vm.insert(origin + rays * noisy[:, None])
        stored = vm.points
        subs = np.floor(stored / 0.25)
        assert len(np.unique(subs, axis=0)) == len(stored) == len(vm)
        _, per_cell = np.unique(np.floor(stored / 0.5), axis=0, return_counts=True)
        assert per_cell.max() <= 8
        assert len(stored) < 0.05 * 200 * len(rays)

    def test_grid_cap_refuses_before_allocating(self):
        # A batch whose sub-voxels span more grid entries than _GRID_CAP
        # (here 4e4 per axis, 6.4e13 entries) is refused whole, whether it
        # would start the grid or grow it, and the map keeps what it held.
        vm = VoxelMap(edge=0.5)
        with pytest.raises(ValueError, match="grid"):
            vm.insert([[0.0, 0.0, 0.0], [1e4, 1e4, 1e4]])
        assert len(vm) == 0
        vm.insert([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="grid"):
            vm.insert([[1.0, 1.0, 1.0], [-1e4, 0.0, 1e4]])
        np.testing.assert_array_equal(vm.points, [[0.0, 0.0, 0.0]])

    def test_grid_cap_is_exact(self, monkeypatch):
        # At a cap of 1000 entries a 10x10x10 block of sub-voxels fits,
        # grown to from half of it (the spare room it would take is dropped
        # at the cap), and one sub-voxel more is refused.
        monkeypatch.setattr(voxelmap, "_GRID_CAP", 1000)
        axis = (np.arange(10) + 0.5) * 0.25
        block = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        vm = VoxelMap(edge=0.5)
        vm.insert(block[:500])
        vm.insert(block[500:])
        assert len(vm) == 1000 and vm._shape.tolist() == [10, 10, 10]
        with pytest.raises(ValueError, match="grid"):
            vm.insert([2.6, 0.1, 0.1])
        assert len(vm) == 1000
        assert_exact(vm, block[::37] + 0.05, 7)

    def test_empty_insert_is_noop(self):
        vm = VoxelMap()
        vm.insert(np.empty((0, 3)))
        assert len(vm) == 0 and vm.points.shape == (0, 3)

    def test_rejects_nonfinite(self):
        vm = VoxelMap()
        with pytest.raises(ValueError):
            vm.insert([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("sizes", [{"edge": np.nan}, {"edge": np.inf}, {"edge": 0.0},
                                   {"search_radius": np.nan}, {"search_radius": np.inf},
                                   {"search_radius": -1.0}])
def test_map_refuses_sizes_that_are_not_positive_and_finite(sizes):
    with pytest.raises(ValueError, match="positive and finite"):
        VoxelMap(**sizes)


def test_sq_dist_has_einsum_bits():
    # The map's distances and every einsum brute force (here and in the
    # benchmark's checks) must rank by the same bits.
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 7, 8, 9, 64, 1001):
        diff = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-4, 4, (n, 3))
        np.testing.assert_array_equal(_sq_dist(*diff.T), np.einsum("ij,ij->i", diff, diff))


class TestKnn:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        vm = VoxelMap(edge=0.5)
        pts = rng.uniform(-4, 4, (1000, 3))
        vm.insert(pts)
        stored = vm.points
        for _ in range(100):
            q = rng.uniform(-5, 5, 3)
            got = vm.knn_batch(q, 5)[0]
            np.testing.assert_allclose(got, brute_knn(stored, q, 5), atol=0)

    def test_batch_matches_brute_force(self):
        rng = np.random.default_rng(3)
        vm = VoxelMap(edge=0.5)
        pts = rng.uniform(-4, 4, (3000, 3))
        vm.insert(pts)
        stored = vm.points
        queries = rng.uniform(-5, 5, (200, 3))
        for q, got in zip(queries, vm.knn_batch(queries, 5)):
            np.testing.assert_allclose(got, brute_knn(stored, q, 5), atol=0)

    def test_radius_cap_empty(self):
        vm = VoxelMap(edge=0.5, search_radius=5.0)
        vm.insert([0.0, 0.0, 0.0])
        assert vm.knn_batch([10.0, 0.0, 0.0], 3)[0].shape == (0, 3)

    def test_partial_result_inside_cap(self):
        vm = VoxelMap(edge=0.5, search_radius=5.0)
        vm.insert(np.array([[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]]))
        got = vm.knn_batch([0.5, 0.0, 0.0], 5)[0]
        assert got.shape == (1, 3)

    def test_sparse_instances_randomized(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            vm = VoxelMap(edge=0.5)
            n = rng.integers(1, 400)
            pts = rng.uniform(-8, 8, (n, 3))
            vm.insert(pts)
            stored = vm.points
            for _ in range(5):
                q = rng.uniform(-9, 9, 3)
                k = int(rng.integers(1, 8))
                np.testing.assert_allclose(vm.knn_batch(q, k)[0], brute_knn(stored, q, k))

    def test_k_validation(self):
        vm = VoxelMap()
        with pytest.raises(ValueError):
            vm.knn_batch([0, 0, 0], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_queries(self, bad):
        vm = VoxelMap()
        vm.insert([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            vm.knn_batch([[0.0, 0.0, 0.0], [0.0, bad, 0.0]], 1)


class TestKnnBatchProperties:
    """knn_batch against the brute force on maps built to hit the edges of
    the box certification: exact ties, half-cell queries, queries only wide
    boxes or the cover pass answer, and lattices finer than the sub-voxels,
    which the map thins."""

    @given(spacing=st.sampled_from([0.125, 0.25, 0.5]), n=st.integers(2, 6),
           origin=st.tuples(*[st.integers(-6, 6)] * 3), density=st.floats(0.2, 1.0),
           k=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_lattice_ties(self, spacing, n, origin, density, k, seed):
        # Lattice points and queries on the half-lattice: distances tie exactly.
        rng = np.random.default_rng(seed)
        grid = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), -1).reshape(-1, 3)
        # Shuffled, so slot order says nothing about coordinate order.
        grid = rng.permutation(grid[rng.random(len(grid)) < density])
        base = np.array(origin) * spacing
        vm = VoxelMap(edge=0.5)
        vm.insert(base + grid * spacing)
        queries = base + rng.integers(-2, 2 * n + 2, (16, 3)) * (spacing / 2)
        assert_exact(vm, queries, k)

    def test_ties_at_the_partition_boundary(self, monkeypatch):
        # Around lattice points, 12 neighbors tie at spacing * sqrt(2); for k
        # from 8 to 19 the k-th distance falls inside that tie, so more than
        # k candidates sit at or below it and the lexicographically smallest
        # of the tied ones must win. Every such query is inside the margin
        # of its 4x4x4 block or its centred 7x7x7 box of sub-voxels, so no
        # wider box is needed.
        axis = np.arange(-2, 3)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3) * 0.25
        queries = grid[np.abs(grid).max(axis=1) <= 0.25]
        answered = record_passes(monkeypatch)
        for seed in range(4):
            vm = VoxelMap(edge=0.5)
            vm.insert(np.random.default_rng(seed).permutation(grid))
            stored = vm.points
            for k in range(6, 20):
                for q, got in zip(queries, vm.knn_batch(queries, k)):
                    np.testing.assert_array_equal(got, brute_knn(stored, q, k))
        assert {side for side, _ in answered} <= {4, 7}

    @given(edge=st.sampled_from([0.25, 0.5, 1.0]), k=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_half_cell_queries(self, edge, k, seed):
        # Queries whose offset inside the cell is exactly 1/2 on some axes.
        rng = np.random.default_rng(seed)
        vm = VoxelMap(edge=edge)
        vm.insert(rng.uniform(-2, 2, (300, 3)))
        cells = rng.integers(-4, 4, (8, 3))
        frac = np.where(rng.random((8, 3)) < 0.6, 0.5, rng.random((8, 3)))
        assert_exact(vm, (cells + frac) * edge, k)

    @given(n=st.integers(1, 30), radius=st.sampled_from([0.3, 1.0, 2.5]),
           k=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_sparse_maps_fall_back(self, n, radius, k, seed):
        # Few points far apart: most rows need wide boxes or the cover pass,
        # k can exceed the map, and a small search radius caps the margins
        # and shrinks the cover box (to 3x3x3 at 0.3 m).
        rng = np.random.default_rng(seed)
        vm = VoxelMap(edge=0.5, search_radius=radius)
        vm.insert(rng.uniform(-2, 2, (n, 3)))
        assert_exact(vm, rng.uniform(-2.5, 2.5, (8, 3)), k)

    @given(k=st.integers(1, 12), radius=st.sampled_from([0.3, 2.0, 5.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_queries_outside_the_grid(self, k, radius, seed):
        # A map on a 2 x 2 x 0.2 m slab, so the grid is thinner than every
        # box along z, queried from just past its faces to beyond the search
        # radius and far away: every box is cut to the grid and shifted into
        # it, and the answers stay exact (empty ones included).
        rng = np.random.default_rng(seed)
        vm = VoxelMap(edge=0.5, search_radius=radius)
        vm.insert(rng.uniform([-1.0, -1.0, 0.0], [1.0, 1.0, 0.2], (300, 3)))
        directions = rng.standard_normal((24, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        distances = rng.choice([1.05, 1.3, 2.0, 3.5, 6.0, 1e3, 1e12], 24)
        assert_exact(vm, directions * distances[:, None], k)

    @given(k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_empty_map(self, k, seed):
        queries = np.random.default_rng(seed).uniform(-3, 3, (5, 3))
        got = VoxelMap().knn_batch(queries, k)
        assert [g.shape for g in got] == [(0, 3)] * 5

    @pytest.mark.parametrize("cell", [(1, -3, 0), (-8, 19, 40), (2000, -1000, 7)])
    def test_cover_pass_reaches_the_search_radius(self, cell):
        # From a query whose offset inside its cell is near 0 or near 1 on
        # each axis, points along every axis exactly at the search radius
        # and one ulp inside it. Near the top of a cell, query + radius can
        # round up onto the next cell's face: the point then sits one cell
        # beyond floor(radius / edge) cells yet its distance rounds to the
        # radius, so only a cover box with a cell to spare holds it. Each
        # map holds 12 points, fewer than k = 20, so the cover pass returns
        # every point in range; k = 1 and 5 cut inside them.
        edge, radius = 0.5, 5.0
        cell = np.array(cell, dtype=float)
        for corner in np.ndindex(2, 2, 2):
            low, high = cell * edge, (cell + 1) * edge
            query = np.where(corner, np.nextafter(high, -np.inf), np.nextafter(low, np.inf))
            points = []
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    p = query.copy()
                    p[axis] = query[axis] + sign * radius
                    points.append(p.copy())
                    p[axis] = np.nextafter(p[axis], query[axis])
                    points.append(p)
            vm = VoxelMap(edge=edge, search_radius=radius)
            vm.insert(np.array(points))
            for k in (1, 5, 20):
                assert_exact(vm, query[None], k)

    def test_dense_map_mostly_certified(self, monkeypatch):
        # A map with a point in nearly every sub-voxel: the 4x4x4 block
        # answers at least 95% of the queries itself (all of them here) and
        # the centred 7x7x7 box any rest.
        rng = np.random.default_rng(12)
        vm = VoxelMap(edge=0.5)
        vm.insert(rng.uniform(-2, 2, (20_000, 3)))
        assert len(vm) >= 0.98 * 16 ** 3
        answered = record_passes(monkeypatch)
        queries = rng.uniform(-1.5, 1.5, (400, 3))
        vm.knn_batch(queries, 5)
        assert answered[0][0] == 4 and answered[0][1] >= 0.95 * len(queries)
        assert {side for side, _ in answered} <= {4, 7}
        assert sum(n for _, n in answered) == len(queries)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            VoxelMap().knn_batch(np.zeros((1, 3)), 0)


class TestRankingPaths:
    """The tie-free argsort path and the lexsort tie fallback of _rank, in
    chunks small enough that one call splits into chunks of several widths."""

    def test_mixed_tie_free_and_tied_rows(self, monkeypatch):
        # The lattice of test_ties_at_the_partition_boundary, queried at its
        # central lattice points (the k-th distance falls inside a tie) and
        # at jittered points (no ties), interleaved in one batch. Eight far
        # corners widen the grid, so the boxes of queries near the
        # lattice's faces hold empty sub-voxels.
        monkeypatch.setattr(voxelmap, "_CHUNK_SLOTS", 2 * 64)
        axis = np.arange(-2, 3)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3) * 0.25
        rng = np.random.default_rng(21)
        tied = grid[np.abs(grid).max(axis=1) <= 0.25]
        free = rng.uniform(-0.6, 0.6, (len(tied), 3))
        queries = np.stack([tied, free], axis=1).reshape(-1, 3)
        vm = VoxelMap(edge=0.5)
        vm.insert(rng.permutation(grid))
        vm.insert(np.stack(np.meshgrid(*[[-2.0, 2.0]] * 3, indexing="ij"), -1).reshape(-1, 3))
        stored = vm.points
        chunks = record_chunks(monkeypatch)
        for k in (6, 9, 13, 19):
            for q, got in zip(queries, vm.knn_batch(queries, k)):
                np.testing.assert_array_equal(got, brute_knn(stored, q, k))
        # The first pass alone splits into chunks of several widths, and
        # both ranking paths certify rows.
        assert len({width for side, width, _, _ in chunks if side == 4}) > 1
        assert {fell_back for _, _, n, fell_back in chunks if n} == {False, True}

    def test_radius_cut_does_not_compensate_a_tie(self, monkeypatch):
        # One cover-pass chunk of two rows, k = 3. The centre row keeps 4
        # points: two inside the radius and two tied exactly at it, the
        # k-th distance. The far row keeps 2, cut short by the radius. The
        # rows keep 2k points between them, and cut into rows of 3 in
        # candidate order, each would read strictly increasing; the fast
        # path still must not take them, since neither row keeps exactly k.
        k, centre = 3, np.full(3, 0.25)
        far = centre + [10.0, 0.0, 0.0]
        # Insertion order sets the columns, and so the candidate order
        # (ascending columns): the tied points come first and last in the
        # centre row's box.
        tie_low, near, mid, tie_high = centre + np.array(
            [[0, 0, -1], [0.3, 0, 0], [0, 0.6, 0], [1, 0, 0]])
        far_pts = far + np.array([[0.0, 0.2, 0.0], [0.5, 0.0, 0.0]])
        vm = VoxelMap(edge=0.5, search_radius=1.0)
        vm.insert(np.concatenate([[tie_low, near, mid, tie_high], far_pts]))
        passes = record_passes(monkeypatch)
        chunks = record_chunks(monkeypatch)
        nb = vm.knn_batch([far, centre], k)
        assert passes == [(4, 0), (7, 0), (11, 2)]
        assert chunks[-1] == (11, 4, 2, True)
        np.testing.assert_array_equal(nb[0], far_pts)
        np.testing.assert_array_equal(nb[1], [near, mid, tie_low])
        stored = vm.points
        for q, got in zip([far, centre], nb):
            np.testing.assert_array_equal(got, brute_knn(stored, q, k, 1.0))

    def test_real_map_rows_take_the_fast_path(self, monkeypatch):
        # The map and the last three scans' queries of a short run: at least
        # 95% of the rows are ranked by the argsort, and all exactly.
        calls = record_knn_calls(monkeypatch)
        short_run()
        monkeypatch.undo()
        vm = calls[-1][0]
        queries = np.concatenate([q for _, q in calls[-3:]])
        chunks = record_chunks(monkeypatch)
        nb = vm.knn_batch(queries, 5)
        fast = sum(n for _, _, n, fell_back in chunks if not fell_back)
        assert sum(n for _, _, n, _ in chunks) == len(queries)
        assert fast >= 0.95 * len(queries)
        stored = vm.points
        for q, got in zip(queries, nb):
            np.testing.assert_array_equal(got, brute_knn(stored, q, 5, vm.search_radius))


class TestNeighbors:
    """The Neighbors record knn_batch returns: (n, k, 3) points, NaN past
    each row's int64 count, and per-row views through len, index and
    iteration."""

    @staticmethod
    def assert_contract(nb, n, k):
        assert isinstance(nb, Neighbors) and len(nb) == n
        assert nb.points.shape == (n, k, 3)
        assert nb.counts.shape == (n,) and nb.counts.dtype == np.int64
        for i in range(n):
            c = nb.counts[i]
            assert nb[i].shape == (c, 3)
            assert np.isfinite(nb.points[i, :c]).all() and np.isnan(nb.points[i, c:]).all()
        rows = list(nb)
        assert len(rows) == n
        for a, b in zip(rows, [nb[i] for i in range(len(nb))]):
            np.testing.assert_array_equal(a, b)

    def test_empty_map(self):
        nb = VoxelMap().knn_batch(np.zeros((4, 3)), 3)
        self.assert_contract(nb, 4, 3)
        assert [g.shape for g in nb] == [(0, 3)] * 4

    def test_full_cut_and_empty_rows(self):
        rng = np.random.default_rng(8)
        vm = VoxelMap(edge=0.5, search_radius=1.0)
        vm.insert(rng.uniform(-1, 1, (300, 3)))
        vm.insert([5.0, 0.0, 0.0])
        queries = np.array([[0.0, 0.0, 0.0], [5.5, 0.0, 0.0], [20.0, 0.0, 0.0]])
        nb = vm.knn_batch(queries, 4)
        self.assert_contract(nb, 3, 4)
        assert nb.counts.tolist() == [4, 1, 0]
        assert nb[2].shape == (0, 3) and nb[-1].shape == (0, 3)
        np.testing.assert_array_equal(nb[1], [[5.0, 0.0, 0.0]])

    def test_single_query(self):
        vm = VoxelMap()
        vm.insert([[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]])
        nb = vm.knn_batch([1.0, 2.0, 3.1], 2)
        self.assert_contract(nb, 1, 2)
        np.testing.assert_array_equal(nb[0], [[1.0, 2.0, 3.0], [1.0, 2.0, 3.5]])


def plane_fit_svd(stacks, max_residual=0.1, cond_limit=1e8):
    """An SVD plane fit that refuses a set only past cond(A) = cond_limit
    or max_residual, kept as the closed form's oracle."""
    stacks = np.asarray(stacks, dtype=float)
    m = stacks.shape[0]
    u, s, vt = np.linalg.svd(stacks, full_matrices=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    ok = np.isfinite(cond) & (cond <= cond_limit)
    inv_s = np.where(s > 0.0, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    rhs = -np.ones((m, 5))
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


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q


def hard_sets(rng, kind, m):
    """m 5-point sets (m, 5, 3) of one kind the plane fit must get right."""
    out = np.empty((m, 5, 3))
    for i in range(m):
        if kind == "plane":  # noisy patches up to 1e3 m from the origin
            rot = random_rotation(rng)
            size, dist = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-1, 3)
            noise = rng.choice([0.0, 1e-3, 1e-2, 0.1])
            out[i] = np.c_[rng.uniform(-size, size, (5, 2)),
                           dist + noise * rng.standard_normal(5)] @ rot.T
        elif kind == "collinear":  # a line, off it by at most eps
            offset = rng.uniform(-1e3, 1e3, 3) * rng.choice([1e-3, 0.1, 1.0])
            eps = rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3])
            out[i] = (offset + np.outer(rng.uniform(-1, 1, 5), random_rotation(rng)[0])
                      + eps * rng.standard_normal((5, 3)))
        elif kind == "repeated":  # one to three distinct points
            base = rng.uniform(-10, 10, (rng.integers(1, 4), 3))
            out[i] = base[rng.integers(0, len(base), 5)]
        elif kind == "origin":  # on or near a plane through the origin
            noise = rng.choice([0.0, 1e-6, 1e-3])
            out[i] = np.c_[rng.uniform(-3, 3, (5, 2)),
                           noise * rng.standard_normal(5)] @ random_rotation(rng).T
        else:  # "cond": singular values 1, t and 1/c with cond(A) = c in [1e5, 1e9]
            u, _ = np.linalg.qr(rng.standard_normal((5, 3)))
            cond = 10.0 ** rng.uniform(5, 9)
            sv = np.array([1.0, 10.0 ** rng.uniform(-np.log10(cond), 0), 1.0 / cond])
            out[i] = (u * sv * 10.0 ** rng.uniform(-1, 3)) @ random_rotation(rng).T
    return out


def fit_one(points, **kwargs):
    """plane_fit_batch on a single 5-point set: (normal, offset, residual, ok)."""
    normals, offsets, residuals, ok = plane_fit_batch(np.asarray(points, float)[None], **kwargs)
    return normals[0], offsets[0], residuals[0], ok[0]


class TestPlaneFit:
    def test_flat_z_plane(self):
        pts = np.array([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1], [0.5, 0.5, 1]], float)
        normal, offset, residual, ok = fit_one(pts)
        assert ok
        assert abs(abs(normal[2]) - 1.0) < 1e-12
        assert normal @ pts[0] + offset == pytest.approx(0.0, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_collinear_rejected(self):
        pts = np.array([[x, 0, 0] for x in range(5)], float)
        assert not fit_one(pts)[3]

    def test_noisy_oblique_plane_vs_svd_oracle(self):
        # Points near x + y + z = 3, fitted normal within 2 degrees of the truth.
        rng = np.random.default_rng(5)
        truth = np.ones(3) / np.sqrt(3.0)
        stacks = []
        for _ in range(50):
            base = rng.uniform(-1, 1, (5, 2))
            pts = np.array([[u, v, 3.0 - u - v] for u, v in base])
            pts += rng.uniform(-0.01, 0.01, (5, 3))
            stacks.append(pts)
        stacks = np.array(stacks)
        normals, _, _, ok = plane_fit_batch(stacks)
        assert ok.all()
        for pts, normal in zip(stacks, normals):
            angle = np.arccos(np.clip(abs(normal @ truth), -1, 1))
            assert np.degrees(angle) < 2.0

            # Independent total-least-squares oracle: smallest singular vector.
            centered = pts - pts.mean(axis=0)
            _, _, vt = np.linalg.svd(centered)
            oracle_normal = vt[-1]
            angle_oracle = np.arccos(np.clip(abs(normal @ oracle_normal), -1, 1))
            assert np.degrees(angle_oracle) < 2.0

    def test_loose_fit_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.5], [0.5, 0.5, -0.5]], float)
        assert not fit_one(pts, max_residual=0.1)[3]

    def test_scale_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            pts = rng.uniform(-1, 1, (5, 3)) + [0, 0, 2.0]
            scale = rng.uniform(0.1, 10.0)
            thr = 0.05
            a = fit_one(pts, max_residual=thr)[3]
            b = fit_one(pts * scale, max_residual=thr * scale)[3]
            assert a == b

    def test_empty_batch(self):
        normals, offsets, residuals, ok = plane_fit_batch(np.zeros((0, 5, 3)))
        assert (normals.shape, offsets.shape, residuals.shape, ok.shape) == ((0, 3), (0,), (0,), (0,))
        assert (normals.dtype, offsets.dtype, residuals.dtype, ok.dtype) == (float, float, float, bool)

    def test_line_like_set_is_refused(self):
        # A 0.6 m line about 6 m out, spread 2 cm across it by range noise
        # and within 2 microns of a plane through the origin: cond(A) is
        # 4.8e6, so the SVD oracle accepts it and the Gram bound refuses it.
        pts = np.array([[6.02, -0.3, 1.204002], [5.975, -0.1, 1.194999], [6.0, 0.05, 1.2],
                        [6.03, 0.2, 1.205998], [5.985, 0.3, 1.197001]])
        sv = np.linalg.svd(pts, compute_uv=False)
        spread = np.sqrt(np.linalg.eigvalsh(np.cov(pts.T, bias=True)))
        assert 1.01e6 < sv[0] / sv[-1] < 1e8 and 0.01 < spread[1] < 0.03
        assert np.linalg.norm(pts.mean(axis=0)) == pytest.approx(6.0, abs=0.2)
        assert plane_fit_svd(pts[None])[3][0]
        assert not _solve_gram(pts[None])[1][0]
        assert not fit_one(pts)[3]

    @staticmethod
    def assert_oracle_agrees(stacks):
        """plane_fit_batch accepts exactly the sets the SVD oracle accepts
        and the Gram bound certifies, and fits them as the oracle does."""
        got, want = plane_fit_batch(stacks), plane_fit_svd(stacks)
        certified = _solve_gram(stacks)[1]
        np.testing.assert_array_equal(got[3], want[3] & certified)
        both = got[3]
        np.testing.assert_allclose(got[0][both], want[0][both], rtol=0, atol=1e-9)
        np.testing.assert_allclose(got[1][both], want[1][both], rtol=1e-9, atol=1e-9)
        sv = np.linalg.svd(stacks, compute_uv=False)
        cond = sv[:, 0] / sv[:, -1]
        # Certified sets have cond(A) <= 1e6 up to rounding.
        assert np.all(cond[certified] <= 1.01e6)
        return got, want, cond

    @given(kinds=st.lists(st.sampled_from(["plane", "collinear", "repeated", "origin", "cond"]),
                          min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_svd_oracle(self, kinds, seed):
        rng = np.random.default_rng(seed)
        stacks = np.concatenate([hard_sets(rng, kind, 40) for kind in kinds])
        stacks = stacks[rng.permutation(len(stacks))]
        got, want, cond = self.assert_oracle_agrees(stacks)
        # Both solves are accurate to a small multiple of cond(A) * eps; the
        # second refinement step is what brings the closed form there.
        both = got[3]
        assert np.all(np.abs(got[0] - want[0]).max(axis=1)[both] <= 1e-13 + 1e-14 * cond[both])

    def test_real_map_sets_are_certified(self, monkeypatch):
        # The 5-point sets of a short box-room run: at least 99% are
        # certified, and the accepted ones fit as the SVD oracle fits them.
        captured = []
        fit = coprocessor.plane_fit_batch
        monkeypatch.setattr(coprocessor, "plane_fit_batch",
                            lambda stacks: captured.append(stacks) or fit(stacks))
        pipeline.run(pipeline.RunConfig(scene="box-room", duration=2.0, seed=5))
        stacks = np.concatenate(captured)
        assert len(stacks) > 5000
        assert np.count_nonzero(_solve_gram(stacks)[1]) >= 0.99 * len(stacks)
        self.assert_oracle_agrees(stacks)
