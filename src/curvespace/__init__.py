"""Homotopy groups of spaces of immersed closed curves on surfaces.

The engine classifies pi_0 (regular homotopy), pi_1 (with explicit generator
witnesses) and pi_n of the space of immersed closed curves on a surface by
exact computation in the fundamental group of the unit tangent bundle, and
double-checks every symbolic answer against bounded brute-force searches.

The top level holds the documented API only; everything else is imported
from its module (``surfaces``, ``words``, ``stbundle``, ``flatcurves``,
``classify``, ``oracle``, ``cli``).  Importing the package imports none of
them: each documented name, and ``curvespace.<module>``, imports its module
on first use, so a caller pays only for the modules it runs.
"""

__version__ = "0.1.0"

_MODULE_OF = {
    "Generator": "surfaces",
    "Presentation": "surfaces",
    "SurfaceSpec": "surfaces",
    "presentation": "surfaces",
    "st_presentation": "surfaces",
    "Word": "words",
    "LiftDecomposition": "stbundle",
    "STWord": "stbundle",
    "st_parse": "stbundle",
    "CurveOnSurface": "flatcurves",
    "Polyline": "flatcurves",
    "ClassificationReport": "classify",
    "GroupDescription": "classify",
    "classify_pi1": "classify",
    "SearchBound": "oracle",
    "VerificationOutcome": "oracle",
    "verify_classification": "oracle",
}
_MODULES = ("surfaces", "words", "stbundle", "flatcurves", "classify", "oracle", "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Only a lookup that misses the module's globals comes here.  Importing a
    # submodule binds it in these globals, and a documented name is bound
    # below, so each name comes here once.  __import__, unlike
    # importlib.import_module, shows its imports under -X importtime.
    module = _MODULE_OF.get(name, name if name in _MODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]
