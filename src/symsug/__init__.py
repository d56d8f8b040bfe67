"""Symmetric ordinal aggregation: signed max/min algebra on symmetric
scales, ordinal Moebius intervals of capacities, and the Choquet and Sugeno
integral families including the symmetric Sugeno integral and its variants.

The package exports the documented library (the README's "Library API"
list).  Bitmask helpers, term builders, the law suite and other internals
are imported from their own modules.
"""

from .scale import (
    OffScaleError,
    ScaleError,
    ScaleValue,
    SymmetricScale,
    levels_scale,
    sym_max,
    sym_min,
    unit_scale,
)
from .rules import Rule, fold_sym_max
from .capacity import (
    Capacity,
    CapacityError,
    SetFunction,
    conjugate,
    necessity_measure,
    possibility_measure,
    unanimity,
)
from .mobius import (
    MobiusInterval,
    RealSetFunction,
    canonical_ordinal_mobius,
    classical_mobius,
    even_odd_mobius,
    ordinal_mobius_interval,
)
from .integrals import (
    Profile,
    choquet,
    choquet_asymmetric,
    choquet_mobius,
    choquet_symmetric,
    sipos_mobius,
    sugeno,
    sugeno_symmetric,
    sugeno_symmetric_explicit,
    sugeno_symmetric_mobius,
    sugeno_variant1,
    sugeno_variant2,
    sugeno_variant3,
    to_real_capacity,
    to_real_profile,
)
from .io import ParseError, load_problem, read_problem

__version__ = "0.1.0"

__all__ = [
    "OffScaleError",
    "ScaleError",
    "ScaleValue",
    "SymmetricScale",
    "levels_scale",
    "sym_max",
    "sym_min",
    "unit_scale",
    "Rule",
    "fold_sym_max",
    "Capacity",
    "CapacityError",
    "SetFunction",
    "conjugate",
    "necessity_measure",
    "possibility_measure",
    "unanimity",
    "MobiusInterval",
    "RealSetFunction",
    "canonical_ordinal_mobius",
    "classical_mobius",
    "even_odd_mobius",
    "ordinal_mobius_interval",
    "Profile",
    "choquet",
    "choquet_asymmetric",
    "choquet_mobius",
    "choquet_symmetric",
    "sipos_mobius",
    "sugeno",
    "sugeno_symmetric",
    "sugeno_symmetric_explicit",
    "sugeno_symmetric_mobius",
    "sugeno_variant1",
    "sugeno_variant2",
    "sugeno_variant3",
    "to_real_capacity",
    "to_real_profile",
    "ParseError",
    "load_problem",
    "read_problem",
]
