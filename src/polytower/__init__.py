"""polytower: exact certification toolkit for towers of finite polyhedra.

Every public name resolves on first access (PEP 562), so importing the
package or one of its modules loads only the modules actually used.
"""

_EXPORTS = {
    "complexes": (
        "Complex Point Subcomplex barycenter_point barycentric_subdivision flatten_point "
        "induced_subcomplex lift_to_subdivision make_point subcomplex_from whole_subcomplex"
    ),
    "connectivity": (
        "HomologySummary ae_verdict homology is_connected pi1_presentation pi1_verdict"
    ),
    "maps": (
        "QSMap Tower VertexMap apply check_quasi_simplicial check_simplicial identity_qsmap "
        "induced_homology_map is_surjective lipschitz_constant preimage_subcomplex"
    ),
    "plmaps": "PartialPLMap",
    "stars": (
        "IndexedCover OpenStarSet barycentric_vertex_star cover_B cover_O mesh nerve open_vertex_star "
        "pullback_cover"
    ),
    "carriers": "Carrier extend_carried is_carried validate_carrier",
    "towers": (
        "ThreadApprox TowerCertificate regularity_report restrict_tower single_lift "
        "tower_lift verify_tower"
    ),
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
