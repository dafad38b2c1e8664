"""Exact Verlinde-number and theta-calculus library.

Computes, in exact arithmetic: Verlinde numbers and theta-space dimensions,
torsion traces and Verlinde-bundle splitting multiplicities, PGL Verlinde
dimensions by two independent routes, a slope-level Fourier-Mukai calculus
for semihomogeneous bundles, and finite Heisenberg / Schrodinger
representation theory at desk scale.  Every closed formula is cross-checked
against a brute-force oracle somewhere in the test suite.
"""

from .chern import (
    IsogenyMatrix,
    SlopeClass,
    SlopeMatrix,
    box_product,
    check_wirtinger_dims,
    euler_char,
    fm_transform,
    fm_via_kernel,
    isogeny_pullback_A,
    isogeny_pullback_AxA,
    w_class,
)
from .exactnum import (
    ConsistencyError,
    CycNum,
    HypothesisError,
    Rational,
    cyclotomic_polynomial,
    extract_rational,
)
from .heisenberg import (
    HeisenbergElement,
    SchrodingerRep,
    check_schrodinger_irreducible,
    irrep_census,
    schrodinger_rep,
)
from .pgl import (
    PglQuery,
    check_coperiodic_product,
    check_sine_identity,
    coperiod,
    pgl_dim_charsum,
    pgl_dim_coperiodic,
    xi_weight,
)
from .splitting import (
    SplitQuery,
    check_rank_consistency,
    multiplicity,
    multiplicity_oracle,
    trace_of_torsion,
)
from .torsion import (
    CharacterLabel,
    SymbolQuery,
    TorsionPoint,
    check_character_sum,
    check_count_partition,
    count_order,
    divisors,
    totient_symbol,
)
from .verlinde import (
    SubsetS,
    VerlindeQuery,
    check_level_rank_symmetry,
    v_number,
    v_number_float,
    verlinde_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterLabel",
    "ConsistencyError",
    "CycNum",
    "HeisenbergElement",
    "HypothesisError",
    "IsogenyMatrix",
    "PglQuery",
    "Rational",
    "SchrodingerRep",
    "SlopeClass",
    "SlopeMatrix",
    "SplitQuery",
    "SubsetS",
    "SymbolQuery",
    "TorsionPoint",
    "VerlindeQuery",
    "box_product",
    "check_character_sum",
    "check_coperiodic_product",
    "check_count_partition",
    "check_level_rank_symmetry",
    "check_rank_consistency",
    "check_schrodinger_irreducible",
    "check_sine_identity",
    "check_wirtinger_dims",
    "coperiod",
    "count_order",
    "cyclotomic_polynomial",
    "divisors",
    "euler_char",
    "extract_rational",
    "fm_transform",
    "fm_via_kernel",
    "irrep_census",
    "isogeny_pullback_A",
    "isogeny_pullback_AxA",
    "multiplicity",
    "multiplicity_oracle",
    "pgl_dim_charsum",
    "pgl_dim_coperiodic",
    "schrodinger_rep",
    "totient_symbol",
    "trace_of_torsion",
    "v_number",
    "v_number_float",
    "verlinde_dim",
    "w_class",
    "xi_weight",
]
