"""polytower: exact certification toolkit for towers of finite polyhedra.

Every public name resolves on first access (PEP 562), so importing the
package or one of its modules loads only the modules actually used.
"""

_EXPORTS = {
    "complexes": (
        "Complex Subcomplex barycentric_subdivision induced_subcomplex subcomplex_from whole_subcomplex"
    ),
    "points": "Point apply barycenter_point flatten_point lift_to_subdivision make_point",
    "connectivity": "HomologySummary ae_verdict homology is_connected",
    "pi1": "pi1_presentation pi1_verdict",
    "maps": (
        "QSMap Tower VertexMap check_quasi_simplicial check_simplicial identity_qsmap "
        "is_surjective lipschitz_constant preimage_subcomplex"
    ),
    "induced": "induced_homology_map",
    "plmaps": "PartialPLMap",
    "stars": (
        "IndexedCover OpenStarSet barycentric_vertex_star cover_B cover_O mesh nerve open_vertex_star "
        "pullback_cover"
    ),
    "carriers": "Carrier extend_carried is_carried validate_carrier",
    "towers": "TowerCertificate regularity_report restrict_tower verify_tower",
    "lifts": "ThreadApprox single_lift tower_lift",
    "verdicts": "Budgets DEFAULT_BUDGETS Verdict",
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
