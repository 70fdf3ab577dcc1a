"""Homotopy groups of spaces of immersed closed curves on surfaces.

The engine classifies pi_0 (regular homotopy), pi_1 (with explicit generator
witnesses) and pi_n of the space of immersed closed curves on a surface by
exact computation in the fundamental group of the unit tangent bundle, and
double-checks every symbolic answer against bounded brute-force searches.

The top level holds the documented API only; everything else is imported
from its module (``surfaces``, ``words``, ``stbundle``, ``flatcurves``,
``classify``, ``oracle``, ``cli``).
"""

from .surfaces import Generator, Presentation, SurfaceSpec, presentation, st_presentation
from .words import Word
from .stbundle import LiftDecomposition, STWord, st_parse
from .flatcurves import CurveOnSurface, Polyline
from .classify import ClassificationReport, GroupDescription, classify_pi1
from .oracle import SearchBound, VerificationOutcome, verify_classification

__version__ = "0.1.0"
