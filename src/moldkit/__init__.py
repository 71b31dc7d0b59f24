"""moldkit: exact tools for 2x2 matrix representations.

Classifies tuples of 2x2 matrices over prime fields or the rationals into
the six mold strata, decides conjugacy with explicit certificates,
extracts moduli coordinates, and verifies the structural claims by
exhaustive census over small finite fields.
"""

from .canon import (
    ABChart,
    CharDeriv,
    general_conjugator,
    scalar_decompose,
    ss_conjugator,
    ss_equivalent,
    uf2_decompose,
    uf2_reconstruct,
    uf2_transition,
    unipotent_decompose,
    unipotent_reconstruct,
)
from .fields import FieldElement, FieldSpec, embed_int, inv
from .invariants import (
    InvariantVector,
    delta2,
    delta4,
    det_from_traces,
    invariant_vector,
    m_power_closed,
    reconstruct_from_traces,
    tau3,
    trace_word,
)
from .mat2 import (
    CompanionCert,
    Mat2,
    char_data,
    commutant_basis,
    commutator_image_test,
    companion_normalize,
    conjugate,
    eta,
)
from .mold import (
    MoldLabel,
    SubalgebraBasis,
    air_by_discriminants,
    classify,
    common_invariant_line,
    span_closure,
)
from .words import GROUP, MONOID, RepTuple, Word

__version__ = "0.1.0"

# The census names resolve on first access (PEP 562), so that importing
# moldkit does not load the census module.  They are looked up in
# moldkit.census on every access and not cached here, so a rebinding of a
# census function there shows through the package name too.
_CENSUS_NAMES = ("CensusKey", "StratumCounts", "consistency_report", "orbit_census",
                 "stratum_census")


def __getattr__(name: str):
    if name in _CENSUS_NAMES:
        from . import census

        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ABChart",
    "CensusKey",
    "CharDeriv",
    "CompanionCert",
    "FieldElement",
    "FieldSpec",
    "GROUP",
    "InvariantVector",
    "Mat2",
    "MONOID",
    "MoldLabel",
    "RepTuple",
    "StratumCounts",
    "SubalgebraBasis",
    "Word",
    "air_by_discriminants",
    "char_data",
    "classify",
    "commutant_basis",
    "commutator_image_test",
    "common_invariant_line",
    "companion_normalize",
    "conjugate",
    "consistency_report",
    "delta2",
    "delta4",
    "det_from_traces",
    "embed_int",
    "eta",
    "general_conjugator",
    "inv",
    "invariant_vector",
    "m_power_closed",
    "orbit_census",
    "reconstruct_from_traces",
    "scalar_decompose",
    "span_closure",
    "ss_conjugator",
    "ss_equivalent",
    "stratum_census",
    "tau3",
    "trace_word",
    "uf2_decompose",
    "uf2_reconstruct",
    "uf2_transition",
    "unipotent_decompose",
    "unipotent_reconstruct",
]
