"""Exact arithmetic for positional number systems whose positions may carry
either sign and whose digit alphabets vary (and may be infinite) by position.

The package builds such systems from explicit column data, rules, or named
classics, evaluates digit words with certified rational enclosures, measures
and compares cylinders, checks the interval-filling condition on adjacent
digit pairs, and greedily encodes rational targets.
"""

from .classics import (
    ClassicKind,
    cantor,
    classic_by_name,
    example_a,
    example_b,
    make_classic,
    mixed_sign,
    nega_cantor,
    nega_s_adic,
    odd_sign_columns,
    oracle_eval,
    s_adic,
)
from .cylinders import (
    Cylinder,
    PlacementReport,
    cylinder,
    cylinder_bounds,
    cylinder_length,
    metric_ratio,
    placement,
)
from .encoder import (
    EncodeResult,
    PairCheck,
    TheoremVerdict,
    encode,
    roundtrip_verify,
    theorem_check,
)
from .errors import (
    ConstructionError,
    DomainError,
    ParameterError,
    RangeError,
    SpecError,
    VarsignError,
)
from .expansion import (
    DEFAULT_DEPTH,
    DigitWord,
    eval_enclosure,
    eval_prefix,
    eval_signed_product,
    prefix_walk,
    prefix_weight,
    tail_bounds,
    value_range,
    word,
)
from .numerics import (
    Enclosure,
    Rational,
    format_enclosure,
    format_rational,
    parse_enclosure,
    parse_rational,
    rat,
)
from .specfile import load_spec, parse_spec
from .system import (
    CERTIFIED,
    INCONCLUSIVE,
    DigitSystem,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    RuleColumns,
    SignSet,
    UniformColumn,
    ValidationReport,
    uniform_column,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "ClassicKind",
    "ConstructionError",
    "Cylinder",
    "DEFAULT_DEPTH",
    "DigitSystem",
    "DigitWord",
    "DomainError",
    "EncodeResult",
    "Enclosure",
    "FiniteColumn",
    "GeometricColumn",
    "INCONCLUSIVE",
    "ListColumns",
    "PairCheck",
    "ParameterError",
    "PlacementReport",
    "Rational",
    "RangeError",
    "RuleColumns",
    "SignSet",
    "SpecError",
    "TheoremVerdict",
    "UniformColumn",
    "ValidationReport",
    "VarsignError",
    "cantor",
    "classic_by_name",
    "cylinder",
    "cylinder_bounds",
    "cylinder_length",
    "encode",
    "eval_enclosure",
    "eval_prefix",
    "eval_signed_product",
    "example_a",
    "example_b",
    "format_enclosure",
    "format_rational",
    "load_spec",
    "make_classic",
    "metric_ratio",
    "mixed_sign",
    "nega_cantor",
    "nega_s_adic",
    "odd_sign_columns",
    "oracle_eval",
    "parse_enclosure",
    "parse_rational",
    "parse_spec",
    "placement",
    "prefix_walk",
    "prefix_weight",
    "rat",
    "roundtrip_verify",
    "s_adic",
    "tail_bounds",
    "theorem_check",
    "uniform_column",
    "value_range",
    "word",
]
