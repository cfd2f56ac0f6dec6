"""Rational matrices, Laplacians, pseudoinverses and vertex-level values."""

from fractions import Fraction

import pytest

import metgraph as mg
from conftest import (
    build_segment,
    defines_pseudo_inverse,
    fraction_laplacian,
    gauss_jordan_pinv,
    is_symmetric,
    load_pairs,
    matmul,
    penrose_identities,
    rational_matrix,
    row_sums,
    seeded_grid,
    shortest_distance,
    standing_graphs,
    trace,
    transpose,
    voltage,
)

F = Fraction


class TestRationalMatrix:
    def test_entries_become_fractions(self):
        m = rational_matrix([[1, "1/2"], [0, 3]])
        assert m.row(0)[1] == F(1, 2)

    def test_index_bounds(self, circle):
        m = rational_matrix([[1]])
        for i in (-1, 1):
            with pytest.raises(IndexError):
                m.row(i)
        # a bool is an int only by inheritance, never an index
        lp = mg.pinv(circle)
        with pytest.raises(IndexError):
            lp.row(True)
        for p, q in ((True, 2), (0, False)):
            with pytest.raises(IndexError):
                mg.resistance_at_vertices(lp, p, q)

    def test_arithmetic(self):
        # the test-local product the Penrose identities read
        a = rational_matrix([[1, 2], [3, 4]])
        b = rational_matrix([[0, 1], [1, 0]])
        assert matmul(a, b).rows() == ((F(2), F(1)), (F(4), F(3)))
        assert matmul(rational_matrix([["1/2", 0]]), a) == rational_matrix([["1/2", 1]])
        with pytest.raises(ValueError):
            matmul(a, rational_matrix([[1, 2]]))

    def test_transpose_trace_symmetry(self):
        # the test-local helpers the identities and the tau reference read
        a = rational_matrix([[1, 2], [3, 4]])
        assert transpose(a).rows() == ((F(1), F(3)), (F(2), F(4)))
        assert trace(a) == 5
        assert row_sums(a) == (F(3), F(7))
        assert not is_symmetric(a)
        assert is_symmetric(rational_matrix([[1, 2], [2, 1]]))

    def test_equality_and_hash(self):
        a = rational_matrix([[1, 2]])
        b = rational_matrix([["1", "2"]])
        assert a == b
        assert hash(a) == hash(b)


class TestLaplacian:
    def test_circle_golden(self, circle):
        assert mg.laplacian(circle) == rational_matrix(
            [[4, -2, -2], [-2, 3, -1], [-2, -1, 3]]
        )

    def test_segment(self):
        g = build_segment(F(1, 2))
        assert mg.laplacian(g) == rational_matrix([[2, -2], [-2, 2]])

    def test_joint_circles_golden(self, joint_circles):
        base = [
            [18, -6, -6, -3, -3],
            [-6, 12, -6, 0, 0],
            [-6, -6, 12, 0, 0],
            [-3, 0, 0, 6, -3],
            [-3, 0, 0, -3, 6],
        ]
        expected = rational_matrix(
            [[F(v, 6) for v in row] for row in base]
        )
        assert mg.laplacian(joint_circles) == expected

    def test_row_sums_vanish(self, standing):
        _, g, _ = standing
        assert set(row_sums(mg.laplacian(g))) == {F(0)}

    def test_integer_build_matches_fraction_build(self, standing):
        # the same least denominator and numerators on the graph and on each
        # refinement its frozen oracle pairs make
        name, g, _ = standing
        graphs = [g] + [mg.subdivide_at_points(g, pair).graph for pair in load_pairs(name)]
        assert len(graphs) == 53
        for h in graphs:
            assert mg.linalg.laplacian_matrix(h) == fraction_laplacian(h)


class TestPseudoInverse:
    def test_circle_golden(self, circle):
        expected = rational_matrix(
            [
                [F(8, 72), F(-4, 72), F(-4, 72)],
                [F(-4, 72), F(11, 72), F(-7, 72)],
                [F(-4, 72), F(-7, 72), F(11, 72)],
            ]
        )
        assert mg.pinv(circle) == expected

    def test_segment_golden(self):
        for length in (F(1), F(5), F(3, 7)):
            g = build_segment(length)
            q = length / 4
            assert mg.pinv(g) == rational_matrix([[q, -q], [-q, q]])

    def test_joint_circles_golden(self, joint_circles):
        a = [
            [6, -9, -9, 6, 6],
            [-9, 26, 1, -9, -9],
            [-9, 1, 26, -9, -9],
            [6, -9, -9, 6, 6],
            [6, -9, -9, 6, 6],
        ]
        b = [
            [6, 6, 6, -9, -9],
            [6, 6, 6, -9, -9],
            [6, 6, 6, -9, -9],
            [-9, -9, -9, 26, 1],
            [-9, -9, -9, 1, 26],
        ]
        expected = rational_matrix(
            [
                [F(3 * a[i][j] + 6 * b[i][j], 225) for j in range(5)]
                for i in range(5)
            ]
        )
        assert mg.pinv(joint_circles) == expected

    def test_penrose_identities(self, standing):
        _, g, _ = standing
        assert penrose_identities(mg.laplacian(g), mg.pinv(g))

    def test_symmetric_with_zero_row_sums(self, standing):
        _, g, _ = standing
        lp = mg.pinv(g)
        assert is_symmetric(lp)
        assert set(row_sums(lp)) == {F(0)}

    def test_single_vertex_pseudoinverse_is_zero(self):
        assert mg.pseudo_inverse(rational_matrix([[0]])) == rational_matrix([[0]])

    @pytest.mark.parametrize(
        "entry,den,num",
        [("3/2", 6, 1), ("7/3", 28, 3), ("2/3", 8, 3)],
        ids=["two-edges-1-and-2", "seven-thirds", "segment-3/2"],
    )
    def test_two_vertices_give_the_pinned_integers(self, entry, den, num):
        # one row is eliminated (m = 1), so a row gather returns one entry;
        # for L = w [[1, -1], [-1, 1]], L+ = [[1, -1], [-1, 1]] / (4 w)
        lap = rational_matrix([[entry, f"-{entry}"], [f"-{entry}", entry]])
        lplus = mg.pseudo_inverse(lap)
        assert (lplus.denominator, lplus.numerators) == (den, ((num, -num), (-num, num)))

    def test_segment_pinv_is_pinned(self):
        lplus = mg.pinv(build_segment(F(3, 2)))
        assert (lplus.denominator, lplus.numerators) == (8, ((3, -3), (-3, 3)))

    def test_non_laplacian_rejected(self, monkeypatch):
        # rejected before the vertices are even ordered for the elimination
        monkeypatch.setattr(mg.linalg, "_reverse_cuthill_mckee", None)
        cases = ([[2, 0], [0, 3]], [[1, -1], [0, 0]], [[1, -1, 0], [-1, 1, 0]], [[5]])
        for rows in cases:
            with pytest.raises(mg.MetgraphError, match="not a Laplacian"):
                mg.pseudo_inverse(rational_matrix(rows))

    def test_positive_off_diagonal_rejected(self, monkeypatch):
        # symmetric with zero row sums, but no graph Laplacian: a reduced
        # matrix such as [[0, 1], [1, 0]] is invertible with a zero leading
        # minor
        monkeypatch.setattr(mg.linalg, "_reverse_cuthill_mckee", None)
        signed = rational_matrix([[2, -1, -1], [-1, 0, 1], [-1, 1, 0]])
        with pytest.raises(mg.MetgraphError, match="not a Laplacian"):
            mg.pseudo_inverse(signed)

    def test_three_components_are_singular(self):
        # components {0, 1}, {2, 3}, {4, 5}: the search from a least-degree
        # vertex reaches only its own pair
        pair = [[1, -1], [-1, 1]]
        rows = [[0] * 6 for _ in range(6)]
        for base in (0, 2, 4):
            for i in range(2):
                for j in range(2):
                    rows[base + i][base + j] = pair[i][j]
        with pytest.raises(mg.SingularShift):
            mg.pseudo_inverse(rational_matrix(rows))

    def test_large_coprime_denominators(self):
        # lengths over distinct large primes make the lcm scaling and the
        # elimination's integers large
        primes = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1, 1000003, 65537)
        pairs = ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3))
        edges = tuple(
            mg.Edge(a, b, F(p + k + 1, p)) for k, ((a, b), p) in enumerate(zip(pairs, primes))
        )
        g = mg.MetrizedGraph(("p0", "p1", "p2", "p3"), edges)
        lap = mg.laplacian(g)
        lp = mg.pseudo_inverse(lap)
        assert penrose_identities(lap, lp)
        assert is_symmetric(lp)
        assert set(row_sums(lp)) == {F(0)}

    def test_disconnected_shift_is_singular(self):
        block = rational_matrix(
            [
                [1, -1, 0, 0],
                [-1, 1, 0, 0],
                [0, 0, 1, -1],
                [0, 0, -1, 1],
            ]
        )
        with pytest.raises(mg.SingularShift):
            mg.pseudo_inverse(block)

    @pytest.mark.parametrize(
        "edges, n",
        [
            (((1, 2), (2, 3), (3, 1)), 4),  # vertex 0 isolated
            (((0, 1), (1, 2), (2, 0)), 4),  # the last vertex isolated
            (((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)), 6),  # two equal triangles
        ],
        ids=["first-isolated", "last-isolated", "two-triangles"],
    )
    def test_disconnected_laplacian_is_singular(self, edges, n):
        # the search starts at a least-degree vertex, the isolated one where
        # there is one, and misses every other component
        rows = [[0] * n for _ in range(n)]
        for a, b in edges:
            rows[a][b] = rows[b][a] = -1
            rows[a][a] += 1
            rows[b][b] += 1
        with pytest.raises(mg.SingularShift):
            mg.pseudo_inverse(rational_matrix(rows))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_seeded_grid_matches_reference_and_definition(self, k):
        # the banded elimination against dense Gauss-Jordan, and both
        # against the definition of L+, up to the CLI's 100-vertex bound
        g, _ = seeded_grid(k, k)
        lap = mg.linalg.laplacian_matrix(g)
        lplus = mg.pseudo_inverse(lap)
        assert lplus == gauss_jordan_pinv(lap)
        assert defines_pseudo_inverse(lap, lplus)

    def test_refinements_match_reference_and_definition(self, standing):
        # the graph and each refinement its frozen oracle pairs make
        name, g, _ = standing
        graphs = [g] + [mg.subdivide_at_points(g, pair).graph for pair in load_pairs(name)]
        assert len(graphs) == 53
        for h in graphs:
            lap = mg.linalg.laplacian_matrix(h)
            lplus = mg.pseudo_inverse(lap)
            assert lplus == gauss_jordan_pinv(lap)
            assert defines_pseudo_inverse(lap, lplus)

    def test_definition_check_rejects_other_matrices(self, tesseract):
        lap = mg.linalg.laplacian_matrix(tesseract)
        lplus = mg.pseudo_inverse(lap)

        def moved(*changes):
            rows = [list(row) for row in lplus.numerators]
            for i, j, step in changes:
                rows[i][j] += step
            return rational_matrix([[F(x, lplus.denominator) for x in row] for row in rows])

        assert defines_pseudo_inverse(lap, moved())
        # symmetric with zero row sums, but L times it is no projection
        assert not defines_pseudo_inverse(lap, moved((3, 3, 1), (5, 5, 1), (3, 5, -1), (5, 3, -1)))
        assert not defines_pseudo_inverse(lap, moved((3, 5, 1), (3, 6, -1)))  # asymmetric
        assert not defines_pseudo_inverse(lap, moved((3, 5, 1), (5, 3, 1)))  # nonzero row sums


class TestVertexValues:
    def test_circle_resistances(self, circle):
        lp = mg.pinv(circle)
        assert mg.resistance_at_vertices(lp, 0, 1) == F(3, 8)
        assert mg.resistance_at_vertices(lp, 0, 2) == F(3, 8)
        assert mg.resistance_at_vertices(lp, 1, 2) == F(1, 2)

    def test_voltage_vanishes_at_its_poles(self, standing):
        _, g, _ = standing
        lp = mg.pinv(g)
        n = g.n_vertices
        for p in range(n):
            for q in range(n):
                assert voltage(lp, p, p, q) == 0
                assert voltage(lp, q, p, q) == 0

    def test_voltage_resistance_identity(self, joint_circles):
        # j_s(p, q) = (r(s, p) + r(s, q) - r(p, q)) / 2
        lp = mg.pinv(joint_circles)
        n = joint_circles.n_vertices
        for s in range(n):
            for p in range(n):
                for q in range(n):
                    r = lambda a, b: mg.resistance_at_vertices(lp, a, b)
                    assert voltage(lp, s, p, q) == (
                        r(s, p) + r(s, q) - r(p, q)
                    ) / 2

    def test_resistance_is_a_metric(self, standing):
        _, g, _ = standing
        lp = mg.pinv(g)
        n = g.n_vertices
        for p in range(n):
            assert mg.resistance_at_vertices(lp, p, p) == 0
            for q in range(p + 1, n):
                r_pq = mg.resistance_at_vertices(lp, p, q)
                assert 0 < r_pq <= shortest_distance(g, p, q)
                assert r_pq == mg.resistance_at_vertices(lp, q, p)
