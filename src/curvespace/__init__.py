"""Homotopy groups of spaces of immersed closed curves on surfaces.

The engine classifies pi_0 (regular homotopy), pi_1 (with explicit generator
witnesses) and pi_n of the space of immersed closed curves on a surface by
exact computation in the fundamental group of the unit tangent bundle, and
double-checks every symbolic answer against bounded brute-force searches.
"""

from .surfaces import (
    Generator,
    Presentation,
    Regime,
    SurfaceError,
    SurfaceSpec,
    abelianization,
    euler_characteristic,
    presentation,
    presentation_text,
    regime,
    st_presentation,
)
from .words import (
    AmbientMismatchError,
    TrivialWordError,
    Word,
    WordParseError,
    conjugating_element,
    invert,
    is_conjugate,
    is_trivial,
    multiply,
    normal_form,
    orientation_character,
    parse_word,
    primitive_root,
    word,
    word_text,
)
from .stbundle import (
    LiftDecomposition,
    STWord,
    UNDECIDED,
    base_character,
    decompose,
    fiber_generator,
    generator_lift,
    st_conjugate,
    st_identity,
    st_invert,
    st_is_conjugate,
    st_is_trivial,
    st_multiply,
    st_parse,
    st_power,
    st_text,
    st_word,
)
from .flatcurves import (
    Crossing,
    CurveError,
    CurveOnSurface,
    Model,
    Polyline,
    crossing_log,
    lift,
    load_curve,
    read_curve_file,
    turning_number,
)
from .classify import (
    ClassificationReport,
    GroupDescription,
    Kind,
    classify_pi1,
    classify_pin,
    regular_homotopy_equivalent,
)
from .oracle import (
    SearchBound,
    VERIFY_BOUND,
    VerificationOutcome,
    bounded_centralizer,
    bounded_elements,
    bounded_is_trivial,
    verify_classification,
)

__version__ = "0.1.0"
