"""Points of complexes: their construction errors, affine combinations and
the evaluation of quasi-simplicial maps at them."""
from fractions import Fraction

import pytest

from polytower.complexes import Complex, ComplexMismatchError, UnknownVertexError, barycentric_subdivision
from polytower.maps import identity_qsmap
from polytower.points import apply, convex_combination, flatten_point, make_point

EDGE_AND_POINT = Complex.from_maximal([["a", "b"], ["c"]])


class TestMakePoint:
    def test_repr_labels_nested_names(self):
        beta = barycentric_subdivision(EDGE_AND_POINT)
        x = make_point(beta, {("a",): Fraction(1, 3), ("a", "b"): Fraction(2, 3)}, 2)
        assert repr(x) == 'Point({["a"]: 1/3, ["a","b"]: 2/3} @ 2)'

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be positive"):
            make_point(EDGE_AND_POINT, {"a": 1}, scale)

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError, match="negative barycentric coordinate"):
            make_point(EDGE_AND_POINT, {"a": 2, "b": -1})

    def test_zero_coordinates_leave_the_support(self):
        # a zero coordinate is dropped before its vertex is looked up
        x = make_point(EDGE_AND_POINT, {"a": 1, "b": 0, "z": 0})
        assert x.support == ("a",)

    def test_support_must_span_a_simplex(self):
        with pytest.raises(ValueError, match="support does not span a simplex"):
            make_point(EDGE_AND_POINT, {"a": Fraction(1, 2), "c": Fraction(1, 2)})


class TestConvexCombination:
    a = make_point(EDGE_AND_POINT, {"a": 1})
    b = make_point(EDGE_AND_POINT, {"b": 1})

    def test_midpoint(self):
        mid = convex_combination([self.a, self.b], [Fraction(1, 2), Fraction(1, 2)])
        assert mid.as_dict() == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    @pytest.mark.parametrize("points, weights", [([], []), ([a], [Fraction(1, 2), Fraction(1, 2)])])
    def test_points_and_weights_must_match(self, points, weights):
        with pytest.raises(ValueError, match="matching, non-empty"):
            convex_combination(points, weights)

    @pytest.mark.parametrize("weights", [[Fraction(1, 2), Fraction(1, 4)], [2, -1]])
    def test_weights_must_be_a_distribution(self, weights):
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            convex_combination([self.a, self.b], weights)

    def test_zero_weight_point_is_skipped(self):
        # a point of weight zero is never read, whatever complex it lives on
        elsewhere = make_point(Complex.from_maximal([["x"]]), {"x": 1})
        assert convex_combination([self.a, elsewhere], [1, 0]) == self.a

    def test_other_complex_or_scale_rejected(self):
        elsewhere = make_point(Complex.from_maximal([["a", "b"]]), {"b": 1})
        rescaled = make_point(EDGE_AND_POINT, {"b": 1}, 2)
        for other in (elsewhere, rescaled):
            with pytest.raises(ComplexMismatchError):
                convex_combination([self.a, other], [Fraction(1, 2), Fraction(1, 2)])


class TestSubdivisionCoordinates:
    def test_flattening_needs_subdivision_names(self):
        with pytest.raises(UnknownVertexError, match="not a subdivision vertex"):
            flatten_point(make_point(EDGE_AND_POINT, {"a": 1}), EDGE_AND_POINT)

    def test_apply_rescales_on_request(self):
        p = identity_qsmap(EDGE_AND_POINT)
        x = make_point(p.source, {("a",): Fraction(1, 2), ("a", "b"): Fraction(1, 2)})
        image = apply(p, x, scale=3)
        assert image.scale == 3
        assert image.as_dict() == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
        assert apply(p, x).scale == 1
