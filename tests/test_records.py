"""Record classes keep the semantics their dataclass versions had: field
tuple equality and hashing, keyword and default construction, the
`Name(field=value, ...)` repr, frozen or unhashable instances, validation in
`__post_init__`, and `cached_property` on frozen records."""
import importlib
import pkgutil

import pytest

import polytower
from polytower.complexes import Subcomplex, UnknownVertexError
from polytower.connectivity import HomologySummary
from polytower.records import Record
from polytower.stars import OpenStarSet, cover_B
from polytower.verdicts import Budgets, Verdict

from util import random_qsmap, simplex_complex

FROZEN = {
    "Budgets",
    "Carrier",
    "HomologySummary",
    "IndexedCover",
    "MeshResult",
    "NerveResult",
    "OpenStarSet",
    "PartialPLMap",
    "Point",
    "QSMap",
    "Subcomplex",
    "Tower",
    "Verdict",
    "VertexMap",
}
MUTABLE = {
    "ExtensionResult",
    "HomotopyResult",
    "LiftResult",
    "Presentation",
    "Reduction",
    "ReferenceHomology",
    "ReferenceReduction",
    "Region",
    "SmithForm",
    "ThreadApprox",
    "TowerCertificate",
    "TowerLiftResult",
}


def record_classes() -> list:
    """The record classes of the package and of the test oracles in `util`
    (`HomotopyResult` and the reference homology records)."""
    for info in pkgutil.iter_modules(polytower.__path__):
        importlib.import_module("polytower." + info.name)
    out, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("polytower.") or cls.__module__ == "util":
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(out, key=lambda cls: cls.__name__)


def field_values(cls, tag=0) -> tuple:
    """Distinct values for the fields of a class, valid where
    `__post_init__` checks them."""
    k = simplex_complex(["a", "b", "c"][: 2 + tag])
    if cls is Subcomplex:
        return (k, k.simplices)
    if cls is OpenStarSet:
        return (k, k.vertex_set())
    return tuple("%s-%d" % (name, tag) for name in cls._fields)


def fields_of(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_is_classified():
    names = [cls.__name__ for cls in record_classes()]
    assert len(names) == len(set(names)) == 26
    assert set(names) == FROZEN | MUTABLE


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
class TestEveryRecord:
    def test_equality_is_the_field_tuple(self, cls):
        values = field_values(cls)
        record = cls(*values)
        assert fields_of(record) == values
        assert record == cls(*values) and not record != cls(*values)
        assert record == cls(**dict(zip(cls._fields, values)))
        assert record != cls(*field_values(cls, 1))
        assert record != values

    def test_other_classes_are_never_equal(self, cls):
        twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(cls._fields, object)})
        values = field_values(cls)
        assert cls(*values) != twin(*values)
        assert twin(*values) != cls(*values)

    def test_frozen_records_hash_and_refuse_assignment(self, cls):
        record = cls(*field_values(cls))
        if cls.__name__ in MUTABLE:
            with pytest.raises(TypeError):
                hash(record)
            setattr(record, cls._fields[0], "changed")
            assert getattr(record, cls._fields[0]) == "changed"
            return
        assert hash(record) == hash(field_values(cls))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, "changed")
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert fields_of(record) == field_values(cls)

    def test_repr_names_every_field(self, cls):
        values = field_values(cls)
        if "__repr__" in vars(cls):
            return
        pairs = ", ".join("%s=%r" % pair for pair in zip(cls._fields, values))
        assert repr(cls(*values)) == "%s(%s)" % (cls.__name__, pairs)


class TestConstruction:
    def test_repr_matches_the_dataclass_strings(self):
        assert repr(Verdict.holds()) == "Verdict(status='holds', witness=None, reason=None)"
        assert repr(Verdict.fails(("a",), "no")) == "Verdict(status='fails', witness=('a',), reason='no')"
        assert repr(HomologySummary(1, 0, (2,), 0)) == "HomologySummary(degree=1, betti=0, torsion=(2,), boundary_rank=0)"

    def test_keywords_and_defaults(self):
        assert Verdict("holds") == Verdict("holds", None, None) == Verdict(status="holds")
        assert Verdict("fails", reason="r", witness=1) == Verdict("fails", 1, "r")
        assert Budgets() == Budgets(10_000, 2_000, 100_000)
        assert Budgets(nerve_subsets=5) == Budgets(10_000, 2_000, 5)
        assert HomologySummary(2, 1, (), boundary_rank=3).boundary_rank == 3

    def test_bad_arguments_raise(self):
        with pytest.raises(TypeError):
            Verdict()
        with pytest.raises(TypeError):
            Verdict("holds", None, None, "extra")
        with pytest.raises(TypeError):
            Verdict("holds", status="fails")
        with pytest.raises(TypeError):
            Verdict("holds", colour="red")

    def test_post_init_still_validates(self):
        k = simplex_complex(["a", "b", "c"])
        with pytest.raises(ValueError, match="face-closed"):
            Subcomplex(k, frozenset({("a", "b")}))
        with pytest.raises(UnknownVertexError):
            Subcomplex(k, frozenset({("z",)}))
        other = simplex_complex(["a", "b"])
        with pytest.raises(ValueError, match="ambient"):
            OpenStarSet(other, k.vertex_set())


class TestCachedProperties:
    def test_tower_vertex_map_and_cover(self):
        from polytower.generators import simplex, subdivision_tower

        tower = subdivision_tower(simplex(2), 2)
        assert tower.lipschitz is tower.lipschitz
        assert tower == subdivision_tower(simplex(2), 2)  # cached values are no fields
        vm = random_qsmap(simplex_complex(["a", "b", "c"]), 1)
        assert vm.simplex_fibers is vm.simplex_fibers
        assert hash(vm) == hash(fields_of(vm))
        cover = cover_B(simplex_complex(["a", "b"]))
        assert cover.element("a") is cover._by_index["a"]
        assert "_by_index" in vars(cover)
