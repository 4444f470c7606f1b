from fractions import Fraction

import pytest

from polytower.complexes import (
    barycenter_point,
    make_point,
    subcomplex_from,
    whole_subcomplex,
)
from polytower.plmaps import PartialPLMap, equal_on

from util import (
    close_maps_homotopy,
    constant_pl_map,
    cylinder_map,
    from_vertex_images,
    homotopy_to_obj,
    simplex_complex,
    vertex_point,
)


class TestBuild:
    def test_missing_image_rejected(self):
        k = simplex_complex(["a", "b"])
        with pytest.raises(ValueError):
            PartialPLMap.build(k, whole_subcomplex(k), {"a": vertex_point(k, "a")}, k)

    def test_invalid_simplex_image_rejected(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u"])
        other = simplex_complex(["w"])
        with pytest.raises(ValueError):
            PartialPLMap.build(
                domain,
                whole_subcomplex(domain),
                {"x": vertex_point(target, "u"), "y": vertex_point(other, "w")},
                target,
            )

    def test_defined_on_another_domain_rejected(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u"])
        with pytest.raises(ValueError, match="subcomplex of the domain"):
            PartialPLMap.build(domain, whole_subcomplex(simplex_complex(["x"])), {"x": vertex_point(target, "u")}, target)

    def test_image_that_is_no_point_rejected(self):
        domain = simplex_complex(["x"])
        target = simplex_complex(["u"])
        with pytest.raises(TypeError, match="images must be Points"):
            PartialPLMap.build(domain, whole_subcomplex(domain), {"x": "u"}, target)

    def test_scale_mismatch_rejected(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u", "v"])
        with pytest.raises(ValueError):
            PartialPLMap.build(
                domain,
                whole_subcomplex(domain),
                {
                    "x": vertex_point(target, "u", 1),
                    "y": vertex_point(target, "v", Fraction(1, 2)),
                },
                target,
            )


class TestEvaluate:
    def test_affine_on_edges(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u", "v", "w"])
        f = from_vertex_images(domain, {"x": "u", "y": "v"}, target)
        mid = make_point(domain, {"x": Fraction(1, 3), "y": Fraction(2, 3)})
        out = f.evaluate(mid)
        assert out.as_dict() == {"u": Fraction(1, 3), "v": Fraction(2, 3)}

    def test_outside_defined_on_rejected(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u", "v"])
        partial = PartialPLMap.build(
            domain,
            subcomplex_from(domain, [["x"]]),
            {"x": vertex_point(target, "u")},
            target,
        )
        with pytest.raises(ValueError):
            partial.evaluate(make_point(domain, {"x": Fraction(1, 2), "y": Fraction(1, 2)}))

    def test_point_off_the_domain_rejected(self):
        domain = simplex_complex(["x", "y"])
        f = from_vertex_images(domain, {"x": "x", "y": "y"}, domain)
        with pytest.raises(ValueError, match="not on the domain"):
            f.evaluate(vertex_point(simplex_complex(["x"]), "x"))


class TestImageOf:
    def test_every_image_reads_back(self):
        domain = simplex_complex(["x", "y", "z"])
        target = simplex_complex(["u", "v", "w"])
        images = {"x": vertex_point(target, "u"), "y": vertex_point(target, "v"), "z": vertex_point(target, "w")}
        f = PartialPLMap.build(domain, whole_subcomplex(domain), images, target)
        for v, point in images.items():
            assert f.image_of(v) is point

    def test_unmapped_vertex_rejected(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u"])
        partial = PartialPLMap.build(domain, subcomplex_from(domain, [["x"]]), {"x": vertex_point(target, "u")}, target)
        with pytest.raises(ValueError, match="map not defined at y"):
            partial.image_of("y")


class TestSubdivided:
    def test_same_map_on_finer_pieces(self):
        domain = simplex_complex(["x", "y", "z"])
        target = simplex_complex(["u", "v", "w"])
        f = from_vertex_images(domain, {"x": "u", "y": "v", "z": "w"}, target)
        fine = f.subdivided()
        # subdivision vertices take the evaluated barycenter values
        assert fine.image_of(("x", "y")).as_dict() == {
            "u": Fraction(1, 2),
            "v": Fraction(1, 2),
        }
        assert fine.image_of(("x", "y", "z")).as_dict() == {
            "u": Fraction(1, 3),
            "v": Fraction(1, 3),
            "w": Fraction(1, 3),
        }

    def test_composition_with_quasi_simplicial(self):
        p = cylinder_map()
        identity = from_vertex_images(
            p.source, {v: v for v in p.source.vertices}, p.source
        )
        projected = identity.after(p)
        assert projected.target == p.base_target
        assert projected.image_of("m0").as_dict() == {
            "u": Fraction(1, 2),
            "v": Fraction(1, 2),
        }

    def test_composition_needs_the_map_source(self):
        p = cylinder_map()
        f = from_vertex_images(p.base_target, {v: v for v in p.base_target.vertices}, p.base_target)
        with pytest.raises(ValueError, match="composition mismatch"):
            f.after(p)


class TestEquality:
    def test_equal_on_subcomplex(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u", "v"])
        f = from_vertex_images(domain, {"x": "u", "y": "v"}, target)
        g = from_vertex_images(domain, {"x": "u", "y": "u"}, target)
        assert equal_on(f, g, subcomplex_from(domain, [["x"]]))
        assert not equal_on(f, g, whole_subcomplex(domain))

    def test_constant_map(self):
        domain = simplex_complex(["x", "y"])
        target = simplex_complex(["u", "v", "w"])
        center = barycenter_point(target, ("u", "v", "w"))
        f = constant_pl_map(domain, target, center)
        assert f.evaluate(vertex_point(domain, "x")).coords == center.coords


class TestHomotopySerialization:
    def test_certificate_shape(self):
        from polytower.stars import cover_O
        from polytower import formats

        k = simplex_complex(["a", "b"])
        f = from_vertex_images(k, {v: v for v in k.vertices}, k)
        result = close_maps_homotopy(f, f, cover_O(k), n=2)
        assert result.status.is_holds
        obj = homotopy_to_obj(result)
        assert obj["status"] == {"status": "holds"}
        assert "prism" in obj and "vertex_images" in obj
        text = formats.dumps_canonical(obj)
        assert text == formats.dumps_canonical(obj)
