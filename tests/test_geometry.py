"""Partitioning and sampling: tiling, interface counts, node rules."""

import hashlib

import numpy as np
import pytest

from subspacepde.geometry import (
    DomainSpec,
    PartitionSpec,
    find_owners,
    gauss_lobatto_nodes,
    partition,
    sample_boundary,
    sample_interface,
    sample_interior,
)


def legendre_deriv(n, x):
    """P'_n(x) by the recurrence, for the independent GLL root oracle."""
    p = [np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return n * (x * p[n] - p[n - 1]) / (x * x - 1.0)


def bisect_roots(f, grid):
    """All sign-change roots of f on a 1-D grid, by bisection."""
    roots = []
    vals = f(grid)
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb > 0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = f(np.array([mid]))[0]
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return np.array(roots)


class TestDomainSpec:
    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            DomainSpec(((1.0, 1.0),), ("spatial",))

    def test_at_most_one_temporal_axis(self):
        with pytest.raises(ValueError):
            DomainSpec(((0, 1), (0, 1)), ("temporal", "temporal"))

    def test_temporal_axis_lookup(self):
        dom = DomainSpec.space_time([(0, 2)], (0, 1))
        assert dom.temporal_axis == 1
        assert DomainSpec.interval(0, 1).temporal_axis is None


class TestPartition:
    def test_uniform_1d_split(self):
        subs, ifaces = partition(DomainSpec.interval(0, 8), PartitionSpec((4,)))
        assert [s.bounds[0] for s in subs] == [(0, 2), (2, 4), (4, 6), (6, 8)]
        assert [i.position for i in ifaces] == [2, 4, 6]

    def test_2d_grid_counts(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        subs, ifaces = partition(dom, PartitionSpec((4, 4)))
        assert len(subs) == 16
        assert len(ifaces) == 24
        assert sum(i.axis == 0 for i in ifaces) == 12
        assert sum(i.axis == 1 for i in ifaces) == 12

    def test_space_time_4x2_layout(self):
        dom = DomainSpec.space_time([(0, 2 * np.pi)], (0, 1))
        subs, ifaces = partition(dom, PartitionSpec((4, 2)))
        assert len(subs) == 8
        assert len(ifaces) == 3 * 2 + 4 * 1

    @pytest.mark.parametrize("counts", [(3,), (2, 5), (2, 3, 4)])
    def test_interface_count_formula(self, counts):
        dom = DomainSpec.box([(0, 1)] * len(counts))
        _, ifaces = partition(dom, PartitionSpec(counts))
        expected = sum(
            (n - 1) * np.prod([m for r, m in enumerate(counts) if r != s])
            for s, n in enumerate(counts)
        )
        assert len(ifaces) == expected

    def test_tiling_measure_and_disjoint_interiors(self):
        dom = DomainSpec.box([(0.0, 2 * np.pi), (-1.0, 3.0)])
        subs, _ = partition(dom, PartitionSpec((3, 4)))
        volume = lambda bounds: np.prod([hi - lo for lo, hi in bounds])
        total = sum(volume(s.bounds) for s in subs)
        assert abs(total - volume(dom.axes)) <= 1e-12 * volume(dom.axes)
        for a in subs:
            for b in subs:
                if a.index >= b.index:
                    continue
                overlap = 1.0
                for (alo, ahi), (blo, bhi) in zip(a.bounds, b.bounds):
                    overlap *= max(0.0, min(ahi, bhi) - max(alo, blo))
                assert overlap == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partition(DomainSpec.interval(0, 1), PartitionSpec((2, 2)))

    def test_continuity_orders_assigned_per_axis(self):
        dom = DomainSpec.space_time([(0, 2)], (0, 2))
        _, ifaces = partition(dom, PartitionSpec((2, 2)), continuity_orders=[1, 0])
        for iface in ifaces:
            assert iface.continuity_order == (1 if iface.axis == 0 else 0)


class TestGaussLobatto:
    def test_three_nodes(self):
        np.testing.assert_allclose(gauss_lobatto_nodes(3), [-1.0, 0.0, 1.0], atol=1e-15)

    def test_five_nodes_closed_form(self):
        # interior nodes are the roots of P'_4: 0 and +/- sqrt(3/7)
        expected = [-1.0, -0.6546536707079771, 0.0, 0.6546536707079771, 1.0]
        np.testing.assert_allclose(gauss_lobatto_nodes(5), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 5, 7, 10])
    def test_interior_nodes_match_bisection_oracle(self, n):
        grid = np.linspace(-0.9999, 0.9999, 4000)
        oracle = bisect_roots(lambda x: legendre_deriv(n - 1, x), grid)
        nodes = gauss_lobatto_nodes(n)
        np.testing.assert_allclose(nodes[1:-1], oracle, atol=1e-12)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes(1)


class TestSampleInterior:
    def test_uniform_nodes(self):
        sub = _subdomain(((0.0, 2.0),))
        ps = sample_interior(sub, "uniform", [5])
        np.testing.assert_allclose(ps.points[:, 0], [0, 0.5, 1, 1.5, 2])

    def test_gauss_maps_to_subdomain(self):
        sub = _subdomain(((-1.0, 1.0),))
        ps = sample_interior(sub, "gauss", [3])
        np.testing.assert_allclose(ps.points[:, 0], [-1, 0, 1], atol=1e-15)

    def test_random_includes_endpoints_and_is_seeded(self):
        sub = _subdomain(((0.0, 4.0), (1.0, 2.0)))
        a = sample_interior(sub, "random", [4, 3], seed=7)
        b = sample_interior(sub, "random", [4, 3], seed=7)
        c = sample_interior(sub, "random", [4, 3], seed=8)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        for axis, (lo, hi) in enumerate(sub.bounds):
            assert lo in a.points[:, axis] and hi in a.points[:, axis]

    def test_uniform_ignores_seed(self):
        sub = _subdomain(((0.0, 2.0),))
        a = sample_interior(sub, "uniform", [9], seed=1)
        b = sample_interior(sub, "uniform", [9], seed=2)
        np.testing.assert_array_equal(a.points, b.points)

    def test_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            sample_interior(_subdomain(((0.0, 1.0),)), "uniform", [1])

    def test_tensor_grid_shape(self):
        sub = _subdomain(((0.0, 1.0), (0.0, 1.0)))
        ps = sample_interior(sub, "uniform", [4, 5])
        assert ps.points.shape == (20, 2)
        assert sub.contains(ps.points).all()


def _subdomain(bounds, index=0):
    from subspacepde.geometry import SubdomainSpec

    return SubdomainSpec(index=index, multi_index=(0,) * len(bounds), bounds=bounds)


class TestSampleBoundary:
    def test_1d_boundary_is_two_points(self):
        dom = DomainSpec.interval(0, 8)
        subs, _ = partition(dom, PartitionSpec((4,)))
        ps = sample_boundary(dom, subs, [5])
        assert sorted(ps.points[:, 0]) == [0, 8]
        assert list(ps.owners) == [0, 3]

    def test_2d_all_four_edges(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        subs, _ = partition(dom, PartitionSpec((1, 1)))
        ps = sample_boundary(dom, subs, [5, 5])
        pts = ps.points
        for axis in (0, 1):
            for value in (0.0, 2.0):
                assert np.any(np.isclose(pts[:, axis], value))
        # 4 edges x 5 points minus 4 shared corners
        assert len(ps) == 16

    def test_temporal_upper_facet_excluded(self):
        dom = DomainSpec.space_time([(0, 2 * np.pi)], (0, 1))
        subs, _ = partition(dom, PartitionSpec((4, 2)))
        ps = sample_boundary(dom, subs, [5, 5])
        on_sides = (ps.points[:, 0] == 0.0) | (ps.points[:, 0] == 2 * np.pi)
        on_initial = ps.points[:, 1] == 0.0
        # the t = T facet itself carries no data; its only sampled points
        # are the side-edge endpoints, which take the side condition
        assert np.all(on_sides[ps.points[:, 1] == 1.0])
        assert on_initial.any() and on_sides.any()
        # every point is on a side edge or the initial facet, nothing else
        assert np.all(on_sides | on_initial)
        # interior initial points are flagged, side points are not
        assert ps.initial_mask[on_initial & ~on_sides].all()
        assert not ps.initial_mask[~on_initial].any()

    def test_corner_owned_by_lowest_id(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        subs, _ = partition(dom, PartitionSpec((2, 2)))
        ps = sample_boundary(dom, subs, [3, 3])
        # the midpoint of the bottom edge (1, 0) touches subdomains 0 and 2
        idx = np.flatnonzero((ps.points[:, 0] == 1.0) & (ps.points[:, 1] == 0.0))
        assert len(idx) == 1
        assert ps.owners[idx[0]] == 0

    def test_owners_follow_find_owners_on_random_space_time(self):
        # Neighbouring subdomains' random facet grids put different points
        # on a shared edge; each goes to the lowest id that holds it.
        dom = DomainSpec.space_time([(0, 1), (0, 1)], (0, 1))
        subs, _ = partition(dom, PartitionSpec((2, 2, 2)))
        ps = sample_boundary(dom, subs, [5, 4, 3], "random", seed=202)
        np.testing.assert_array_equal(ps.owners, find_owners(ps.points, subs))

    def test_side_points_at_t0_take_boundary_data_under_random_sampling(self):
        # The t = 0 facet's random grid samples some side-edge points before
        # any side facet does; where a point lies decides its data, not that.
        dom = DomainSpec.space_time([(0, 1), (0, 1)], (0, 1))
        subs, _ = partition(dom, PartitionSpec((2, 2, 2)))
        ps = sample_boundary(dom, subs, [5, 4, 3], "random", seed=202)
        on_sides = np.isin(ps.points[:, :2], [0.0, 1.0]).any(axis=1)
        on_initial = ps.points[:, 2] == 0.0
        assert (on_initial & on_sides).sum() > 20
        np.testing.assert_array_equal(ps.initial_mask, on_initial & ~on_sides)

    @pytest.mark.parametrize(
        "domain, cells, counts, digest",
        [
            # the burgers1d benchmark workload's boundary
            (DomainSpec.space_time([(0, 2 * np.pi)], (0, 1)), (4, 2), [10, 10], "d7381302229ed81b"),
            (DomainSpec.space_time([(0, 1), (0, 1)], (0, 1)), (2, 2, 2), [5, 4, 3], "63a94e71af24c602"),
        ],
    )
    def test_uniform_points_flags_and_owners_unchanged(self, domain, cells, counts, digest):
        # digests recorded when each flag came from the first facet that
        # sampled the point; uniform grids visit side facets first
        subs, _ = partition(domain, PartitionSpec(cells))
        ps = sample_boundary(domain, subs, counts, "uniform")
        data = ps.points.tobytes() + ps.initial_mask.tobytes() + ps.owners.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_no_duplicate_points(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        subs, _ = partition(dom, PartitionSpec((4, 4)))
        ps = sample_boundary(dom, subs, [7, 7])
        keys = {row.tobytes() for row in ps.points}
        assert len(keys) == len(ps)


class TestSampleInterface:
    def test_1d_interface_single_point(self):
        dom = DomainSpec.interval(0, 8)
        _, ifaces = partition(dom, PartitionSpec((4,)))
        ps = sample_interface(ifaces[0], [])
        np.testing.assert_array_equal(ps.points, [[2.0]])

    def test_2d_interface_uniform(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        _, ifaces = partition(dom, PartitionSpec((2, 1)))
        ps = sample_interface(ifaces[0], [3])
        np.testing.assert_allclose(ps.points, [[1, 0], [1, 1], [1, 2]])

    def test_2d_interface_gauss3_equals_uniform3(self):
        dom = DomainSpec.box([(0, 2), (0, 2)])
        _, ifaces = partition(dom, PartitionSpec((2, 1)))
        uni = sample_interface(ifaces[0], [3], "uniform")
        gll = sample_interface(ifaces[0], [3], "gauss")
        np.testing.assert_allclose(gll.points, uni.points, atol=1e-15)

    def test_identical_when_regenerated(self):
        dom = DomainSpec.box([(0, 1), (0, 1)])
        _, ifaces = partition(dom, PartitionSpec((2, 2)))
        for iface in ifaces:
            a = sample_interface(iface, [4], "random", seed=3)
            b = sample_interface(iface, [4], "random", seed=3)
            np.testing.assert_array_equal(a.points, b.points)

    def test_points_lie_on_facet(self):
        dom = DomainSpec.box([(0, 2), (0, 3)])
        _, ifaces = partition(dom, PartitionSpec((2, 3)))
        for iface in ifaces:
            ps = sample_interface(iface, [4])
            np.testing.assert_allclose(
                ps.points[:, iface.axis], iface.position, atol=1e-12
            )


def rows(points):
    return {tuple(row) for row in points}


ONE_GRID_CASES = [
    (DomainSpec.interval(0, 8), (3,), [5]),
    (DomainSpec.box([(0, 2), (0, 3)]), (2, 3), [4, 6]),
    (DomainSpec.space_time([(0, 2 * np.pi)], (0, 1)), (3, 2), [5, 4]),
]


@pytest.mark.parametrize("strategy", ["uniform", "gauss"])
@pytest.mark.parametrize("domain, cells, counts", ONE_GRID_CASES, ids=["1d", "2d", "space_time"])
class TestOneGridRule:
    """Facet points are exactly the interior grid's points on that facet."""

    def test_boundary_facets(self, domain, cells, counts, strategy):
        subs, _ = partition(domain, PartitionSpec(cells))
        bnd = sample_boundary(domain, subs, counts, strategy)
        expected = set()
        for sub in subs:
            grid = sample_interior(sub, strategy, counts).points
            owned = rows(bnd.points[bnd.owners == sub.index])
            assert owned <= rows(grid)
            for axis, (lo, hi) in enumerate(domain.axes):
                data_sides = (lo,) if axis == domain.temporal_axis else (lo, hi)
                for value in data_sides:
                    expected |= rows(grid[grid[:, axis] == value])
        assert rows(bnd.points) == expected
        assert len(bnd) == len(expected)

    def test_interfaces(self, domain, cells, counts, strategy):
        subs, ifaces = partition(domain, PartitionSpec(cells))
        for iface in ifaces:
            tangential = [c for r, c in enumerate(counts) if r != iface.axis]
            pts = sample_interface(iface, tangential, strategy).points
            for k in (iface.left, iface.right):
                grid = sample_interior(subs[k], strategy, counts).points
                on_facet = grid[grid[:, iface.axis] == iface.position]
                np.testing.assert_array_equal(pts, on_facet)


class TestFindOwners:
    def test_lowest_id_on_shared_facet(self):
        dom = DomainSpec.interval(0, 2)
        subs, _ = partition(dom, PartitionSpec((2,)))
        owners = find_owners(np.array([[1.0], [0.5], [1.5]]), subs)
        assert list(owners) == [0, 0, 1]

    def test_outside_point_rejected(self):
        dom = DomainSpec.interval(0, 2)
        subs, _ = partition(dom, PartitionSpec((2,)))
        with pytest.raises(ValueError):
            find_owners(np.array([[3.0]]), subs)
