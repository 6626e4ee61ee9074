"""quintcap: exact arithmetic over the fifth cyclotomic integers and the
capitulation analysis of pure quintic radicands with a (5,5) class group."""

from .cyclotomic import (
    CycInt,
    LAMBDA,
    ZETA,
    fifth_power_solvable_mod_lambda,
    gcd,
    lambda_expand,
    lambda_residue,
)
from .primes import factor_rational_prime
from .symbols import decomposition_type, quintic_symbol
from .classify import (
    ClassificationError,
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    RadicandForm,
    classify_radicand,
)
from .capitulation import (
    correspondence,
    guaranteed_capitulations,
    hilbert_class_field_generators,
    possible_types,
    six_extensions,
    subgroup_table,
)
from .report import build_report, run_report
from .scanner import scan_range

__version__ = "0.1.0"

__all__ = [
    "ClassificationError",
    "CycInt",
    "FactorizationLimitExceeded",
    "LAMBDA",
    "NotFifthPowerFree",
    "RadicandForm",
    "ZETA",
    "build_report",
    "classify_radicand",
    "correspondence",
    "decomposition_type",
    "factor_rational_prime",
    "fifth_power_solvable_mod_lambda",
    "gcd",
    "guaranteed_capitulations",
    "hilbert_class_field_generators",
    "lambda_expand",
    "lambda_residue",
    "possible_types",
    "quintic_symbol",
    "run_report",
    "scan_range",
    "six_extensions",
    "subgroup_table",
]
