"""Closed forms of the Green function and their defining properties."""

import pickle
from fractions import Fraction
from math import gcd

import pytest

import metgraph as mg
from conftest import (
    FormContract,
    build_circle_with_tail,
    build_segment,
    edge_reversed,
    sample_offsets,
    sample_points,
    scaled_graph,
)

F = Fraction


def entry_tuple(z: mg.EdgePairFunction):
    return z.coefficients()


class TestCircleEntries:
    """The scaled circle with the zero divisor, all closed forms known."""

    DIAGONAL = (F(1, 6), F(0), F(0), F(1, 4), F(1, 4), F(-1, 2), F(-1, 2))

    def test_diagonal(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        for i in range(3):
            assert entry_tuple(matrix.entry(i, i)) == self.DIAGONAL

    def test_adjacent_edges(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        shared_tail = (F(1, 6), F(-1, 2), F(-1, 2), F(1, 4), F(1, 4), F(1, 2), F(0))
        assert entry_tuple(matrix.entry(0, 1)) == shared_tail
        assert entry_tuple(matrix.entry(1, 0)) == shared_tail

    def test_opposite_orientations(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        assert entry_tuple(matrix.entry(0, 2)) == (
            F(-1, 48), F(1, 4), F(-1, 4), F(1, 4), F(1, 4), F(-1, 2), F(0),
        )
        assert entry_tuple(matrix.entry(2, 0)) == (
            F(-1, 48), F(-1, 4), F(1, 4), F(1, 4), F(1, 4), F(-1, 2), F(0),
        )


class TestSegmentEntries:
    def test_zero_divisor(self):
        g = build_segment()
        z = mg.value_matrix(g, mg.Divisor.zero(2)).entry(0, 0)
        assert entry_tuple(z) == (F(1, 4), F(0), F(0), F(0), F(0), F(0), F(-1, 2))

    def test_both_endpoints_weighted(self):
        g = build_segment()
        z = mg.value_matrix(g, mg.Divisor((1, 1))).entry(0, 0)
        assert entry_tuple(z) == (F(1, 4), F(0), F(0), F(0), F(0), F(0), F(-1, 2))
        assert mg.evaluate_green(g, mg.Divisor((1, 1)), (0, F(0)), (0, F(1))) == F(-1, 4)


class TestValueMatrixStructure:
    def test_absolute_term_only_on_diagonal(self, standing):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        for i in range(matrix.size):
            for j in range(matrix.size):
                if i != j:
                    assert matrix.entry(i, j).cabs == 0

    def test_entry_indices(self, standing):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        for i in range(matrix.size):
            for j in range(matrix.size):
                z = matrix.entry(i, j)
                assert (z.i, z.j) == (i, j)

    def test_pickle_round_trip(self, standing):
        # the copy is rebuilt from its triangle and holds the same integers
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        copy = pickle.loads(pickle.dumps(matrix))
        assert copy is not matrix and copy == matrix and hash(copy) == hash(matrix)
        assert copy.rows == matrix.rows

    def test_compare_hash_and_pickle_make_no_entry(self, standing, monkeypatch):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        made, over = [], mg.EdgePairFunction._over
        counted = classmethod(lambda cls, *args: made.append(args) or over(*args))
        monkeypatch.setattr(mg.EdgePairFunction, "_over", counted)
        data = pickle.dumps(matrix)
        copy = pickle.loads(data)
        assert copy == matrix and not copy != matrix and hash(copy) == hash(matrix)
        assert made == []

    def test_pickle_holds_the_triangle_once(self, standing):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        assert len(pickle.dumps(matrix)) < len(pickle.dumps(matrix.rows)) + 200

    def test_copy_in_lowest_terms_is_equal_and_hashes_equal(self, standing):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        rows = tuple(
            tuple(tuple(c // gcd(*held) for c in held) for held in row) for row in matrix.rows
        )
        lowest = mg.ValueMatrix(matrix.divisor, rows)
        assert lowest.rows != matrix.rows
        assert lowest == matrix and matrix == lowest and hash(lowest) == hash(matrix)

    def test_unequal_matrices(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        rows = [list(row) for row in matrix.rows]
        den, c0, *rest = rows[0][1]
        for held in ((den, c0 + 1, *rest), (2 * den, 2 * c0 + 1, *(2 * c for c in rest))):
            rows[0][1] = held
            other = mg.ValueMatrix(matrix.divisor, tuple(map(tuple, rows)))
            assert other != matrix and not other == matrix
        assert mg.value_matrix(circle, mg.Divisor((0, 1, 0))) != matrix
        assert mg.value_matrix(build_segment(), mg.Divisor.zero(2)) != matrix

    def test_malformed_pickled_triangle_raises(self, circle):
        # unpickling replays the constructor, so a forged pickle is checked
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        rows = matrix.rows
        den, c0, cx, *rest = rows[0][0]
        asymmetric = (((den, c0, cx + 1, *rest), *rows[0][1:]), *rows[1:])

        class Forged:
            def __init__(self, *args):
                self.args = args

            def __reduce__(self):
                return (mg.ValueMatrix, self.args)

        for args, message in (
            ((matrix.divisor, rows[:-1]), "not a divisor and a triangle of integer tuples"),
            (((0, 0, 0), rows), "not a divisor and a triangle of integer tuples"),
            ((matrix.divisor, asymmetric), r"entry \(0, 0\) is not symmetric in x and y"),
        ):
            with pytest.raises(mg.MetgraphError, match=message):
                pickle.loads(pickle.dumps(Forged(*args)))
        assert pickle.loads(pickle.dumps(Forged(matrix.divisor, rows))) == matrix

    def test_symmetry_under_argument_swap(self, standing):
        _, g, divisor = standing
        matrix = mg.value_matrix(g, divisor)
        for i in range(matrix.size):
            for j in range(matrix.size):
                for fx in (F(0), F(1, 3), F(1)):
                    for fy in (F(1, 4), F(2, 3)):
                        x = mg.GraphPoint(i, g.edges[i].length * fx)
                        y = mg.GraphPoint(j, g.edges[j].length * fy)
                        assert matrix.entry(i, j)(x.offset, y.offset) == matrix.entry(j, i)(
                            y.offset, x.offset
                        )


class TestEntryRepresentation(FormContract):
    """Entries hold integers over one denominator and compare by value."""

    cls = mg.EdgePairFunction
    indices = ("i", "j")
    terms = ("c0", "cx", "cy", "cxx", "cyy", "cxy", "cabs")
    at, other_at = (2, 3), (3, 2)
    call = ((F(2, 3), F(3)), F(1, 2) - F(1, 3) * F(2, 3) + F(1, 4) * 3)
    sample_repr = (
        "EdgePairFunction(i=2, j=3, c0=Fraction(1, 2), cx=Fraction(-1, 3), cy=Fraction(1, 4), "
        "cxx=Fraction(0, 1), cyy=Fraction(0, 1), cxy=Fraction(0, 1), cabs=Fraction(0, 1))"
    )

    @pytest.fixture
    def form(self, circle):
        return mg.value_matrix(circle, mg.Divisor((0, 2, 0))).entry(0, 1)


class TestGreenProperties:
    def test_zero_divisor_reduces_to_tau_and_resistance(self, standing):
        _, g, _ = standing
        zero = mg.Divisor.zero(g.n_vertices)
        tau = mg.tau_constant(g)
        pts = sample_points(g, 6)
        for x in pts:
            for y in pts:
                expected = tau - mg.resistance_point(g, x, y) / 2
                assert mg.evaluate_green(g, zero, x, y) == expected

    def test_weighted_sum_is_constant(self, standing):
        # sum_k a_k g(x, p_k) + g(x, x) does not depend on x
        _, g, divisor = standing
        vertex_points = [mg.point_of_vertex(g, k) for k in range(g.n_vertices)]
        values = set()
        for x in sample_points(g, 20):
            total = mg.evaluate_green(g, divisor, x, x)
            for k, a in enumerate(divisor.coefficients):
                if a:
                    total += a * mg.evaluate_green(g, divisor, x, vertex_points[k])
            values.add(total)
        assert len(values) == 1

    def test_scaling(self, standing):
        _, g, divisor = standing
        pts = sample_points(g, 5)
        for factor in (F(2), F(1, 3)):
            scaled = scaled_graph(g, factor)
            for x in pts:
                for y in pts:
                    xs = mg.GraphPoint(x.edge, x.offset * factor)
                    ys = mg.GraphPoint(y.edge, y.offset * factor)
                    assert mg.evaluate_green(
                        scaled, divisor, xs, ys
                    ) == factor * mg.evaluate_green(g, divisor, x, y)

    def test_edge_reversal_fixes_metric_points(self, standing):
        _, g, divisor = standing
        pts = sample_points(g, 6)
        for flip in {0, g.n_edges // 2}:
            flipped = edge_reversed(g, flip)

            def mirror(pt):
                if pt.edge != flip:
                    return pt
                return mg.GraphPoint(pt.edge, g.edges[flip].length - pt.offset)

            for x in pts:
                for y in pts:
                    assert mg.evaluate_green(
                        flipped, divisor, mirror(x), mirror(y)
                    ) == mg.evaluate_green(g, divisor, x, y)


class TestPendantEdgeEntry:
    """One bridge hanging off a circle; mixed bridge/non-bridge entries."""

    def test_tail_entry_coefficients(self):
        g = build_circle_with_tail(1, 1, 1)
        divisor, _ = mg.canonical_divisor(g, {2: 1, 3: 1})
        z = mg.value_matrix(g, divisor).entry(1, 3)
        assert entry_tuple(z) == (
            F(29, 432), F(1, 12), F(-1, 3), F(1, 12), F(0), F(0), F(0),
        )
        assert z(F(1, 9), F(1, 2)) == F(-347, 3888)
        assert mg.oracle_green(
            g, divisor, (1, F(1, 9)), (3, F(1, 2))
        ) == F(-347, 3888)

    def test_checks_pass(self):
        g = build_circle_with_tail()
        divisor, _ = mg.canonical_divisor(g, {2: 1, 3: 1})
        assert mg.check_representation_independence(g, divisor).passed
        assert mg.check_vertex_formula(g, divisor).passed


class TestErrors:
    def test_degree_minus_two(self, circle):
        with pytest.raises(mg.BadDegree):
            mg.value_matrix(circle, mg.Divisor((-2, 0, 0)))
        with pytest.raises(mg.BadDegree):
            mg.evaluate_green(circle, mg.Divisor((-1, -1, 0)), (0, F(0)), (1, F(0)))

    def test_point_out_of_range(self, circle):
        with pytest.raises(mg.PointOutOfRange):
            mg.evaluate_green(circle, mg.Divisor.zero(3), (0, F(2)), (1, F(0)))

    def test_requires_adequate(self):
        g = mg.MetrizedGraph(("a", "b"), (mg.Edge(0, 1, 1), mg.Edge(0, 1, 2)))
        with pytest.raises(mg.NotAdequate):
            mg.value_matrix(g, mg.Divisor.zero(2))

    def test_negative_entry_index_raises(self, circle):
        # a negative index would otherwise wrap round to the last row
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        with pytest.raises(mg.MetgraphError, match=r"entry \(-1, 0\) outside a 3-edge matrix"):
            matrix.entry(-1, 0)

    def test_entry_index_past_the_end_raises(self, circle):
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        with pytest.raises(mg.MetgraphError, match=r"entry \(3, 0\) outside a 3-edge matrix"):
            matrix.entry(3, 0)

    def test_entry_checks_both_edges(self, tesseract):
        # a negative edge would otherwise wrap round to the last row, and
        # one past the end would fail with a bare IndexError
        matrix = mg.value_matrix(tesseract, mg.Divisor.zero(16))
        for edge in (-1, matrix.size):
            for i, j in ((edge, 0), (0, edge)):
                with pytest.raises(mg.MetgraphError, match=rf"\({i}, {j}\) outside a 32-edge matrix"):
                    matrix.entry(i, j)

    def test_constructor_takes_the_stored_triangle(self, circle):
        # row i holds z_ij for j = i, ..., m - 1 as eight ints, den > 0 first
        matrix = mg.value_matrix(circle, mg.Divisor.zero(3))
        rows = matrix.rows
        assert [len(row) for row in rows] == [3, 2, 1]
        for i, row in enumerate(rows):
            for j, held in enumerate(row, i):
                z = matrix.entry(i, j)
                assert held == (z.denominator, *z.numerators)
        assert mg.ValueMatrix(matrix.divisor, rows) == matrix
        held = rows[0][0]
        shapes = (
            rows[:-1],
            list(rows),
            (rows[0], (), rows[2]),
            (rows[0], rows[1], rows[1]),
            (("z00", *rows[0][1:]), *rows[1:]),
            ((held[:7], *rows[0][1:]), *rows[1:]),
            (((0, *held[1:]), *rows[0][1:]), *rows[1:]),
            (((F(held[0]), *held[1:]), *rows[0][1:]), *rows[1:]),
            (((held[0], True, *held[2:]), *rows[0][1:]), *rows[1:]),
        )
        for bad in shapes:
            with pytest.raises(mg.MetgraphError, match="not a divisor and a triangle of integer"):
                mg.ValueMatrix(matrix.divisor, bad)
        with pytest.raises(mg.MetgraphError, match="not a divisor and a triangle of integer"):
            mg.ValueMatrix(matrix.divisor.coefficients, rows)


def test_offsets_helper_spans_edge():
    offs = sample_offsets(F(2), 3)
    assert offs[0] == 0 and offs[-1] == 2
    assert all(0 <= o <= 2 for o in offs)
