import random
from fractions import Fraction

import pytest

from varsign import (
    DigitSystem,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    ParameterError,
    RangeError,
    RuleColumns,
    SignSet,
    cantor,
    encode,
    eval_prefix,
    make_classic,
    nega_s_adic,
    oracle_eval,
    roundtrip_verify,
    s_adic,
    theorem_check,
    uniform_column,
    value_range,
)

from support import rational_between

SEED = 0xe11c

TOL = Fraction(1, 2 ** 30)


def gap_system() -> DigitSystem:
    first = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return DigitSystem(SignSet.from_list([1]),
                       ListColumns((first, uniform_column(2))))


def test_theorem_holds_for_tiling_systems():
    for sys in (make_classic(s_adic(2)),
                make_classic(nega_s_adic(3)),
                make_classic(cantor((2, 3, 4)))):
        verdict = theorem_check(sys, 8, tail_depth=40)
        assert verdict.overall == "holds-to-depth"
        assert verdict.failure is None
        assert all(c.status == "holds" for c in verdict.checks)


def test_theorem_flags_gap():
    verdict = theorem_check(gap_system(), 6, tail_depth=40)
    assert verdict.overall == "fails-at"
    assert verdict.failure == (1, 0)
    first = verdict.checks[0]
    assert (first.position, first.digit, first.status) == (1, 0, "fails")
    # the failing sides are exact: 1/2 against 1/3
    assert first.left.lo == Fraction(1, 2)
    assert first.right.hi == Fraction(1, 3)


def test_theorem_undecided_without_tail_structure():
    sys = DigitSystem(SignSet.none(), RuleColumns(lambda n: uniform_column(3)))
    verdict = theorem_check(sys, 3, tail_depth=6)
    assert verdict.overall == "undecided"
    assert verdict.failure is None
    assert any(c.status == "undecided" for c in verdict.checks)


def test_theorem_single_check_covers_geometric_column():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    sys = DigitSystem(SignSet.none(), ListColumns((col,)))
    verdict = theorem_check(sys, 3, tail_depth=30)
    assert verdict.overall == "holds-to-depth"
    assert all(c.covers_column for c in verdict.checks)
    assert len(verdict.checks) == 3


def test_theorem_parameter_guards():
    sys = make_classic(s_adic(2))
    with pytest.raises(ParameterError):
        theorem_check(sys, 0, tail_depth=10)
    with pytest.raises(ParameterError):
        theorem_check(sys, 10, tail_depth=10)


def test_encode_binary_rational():
    sys = make_classic(s_adic(2))
    result = encode(sys, Fraction(5, 8), TOL)
    assert result.status == "converged"
    assert result.digits.digits[:3] == (1, 0, 1)
    assert result.residual.contains(0)
    assert roundtrip_verify(sys, Fraction(5, 8), result, 40)


def test_encode_rejects_out_of_range():
    sys = make_classic(nega_s_adic(2))
    with pytest.raises(RangeError):
        encode(sys, Fraction(2), TOL)
    with pytest.raises(RangeError):
        encode(sys, Fraction(1, 3) + Fraction(1, 10 ** 9), TOL)


def test_encode_hits_gap():
    result = encode(gap_system(), Fraction(-1, 12), TOL)
    assert result.status == "gap"
    assert result.gap_position == 1
    assert result.describe() == "gap(1)"
    assert len(result.digits) == 0
    assert result.residual.contains(Fraction(-1, 12))


def test_encode_gap_below_first_rank():
    # -1/12 sits between cylinders; a value inside one converges
    result = encode(gap_system(), Fraction(-3, 4), TOL)
    assert result.status == "converged"
    assert result.digits.digits[0] == 2


def test_encode_max_len_exhaustion():
    sys = make_classic(s_adic(2))
    result = encode(sys, Fraction(1, 3), Fraction(1, 2 ** 200), max_len=10)
    assert result.status == "max-depth-reached"
    assert len(result.digits) == 10


def test_encode_roundtrip_alternating():
    rng = random.Random(SEED)
    sys = make_classic(nega_s_adic(2))
    lo, hi = value_range(sys, 40)
    for _ in range(50):
        x = rational_between(rng, lo.lo, hi.hi)
        result = encode(sys, x, TOL)
        assert result.status == "converged"
        assert result.residual.width <= TOL
        assert roundtrip_verify(sys, x, result, 40)


def test_encode_geometric_alphabet():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    sys = DigitSystem(SignSet.none(), ListColumns((col,)))
    rng = random.Random(SEED + 1)
    for _ in range(25):
        x = rational_between(rng, Fraction(0), Fraction(1))
        if x == 1:
            # the branch supremum is a limit point with no representing word
            continue
        result = encode(sys, x, TOL)
        assert result.status == "converged"
        assert roundtrip_verify(sys, x, result, 40)


def test_encode_unattained_supremum_reports_gap():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    sys = DigitSystem(SignSet.none(), ListColumns((col,)))
    result = encode(sys, Fraction(1), TOL)
    assert result.status == "gap"
    assert result.gap_position == 1


def test_encode_geometric_alphabet_near_top():
    # values close to 1 force large digits through the infinite alphabet scan
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    sys = DigitSystem(SignSet.none(), ListColumns((col,)))
    x = Fraction(2 ** 20 - 3, 2 ** 20)
    result = encode(sys, x, TOL)
    assert result.status == "converged"
    assert result.digits.digits[0] >= 18
    assert roundtrip_verify(sys, x, result, 40)


def test_encode_prefix_value_approaches_target():
    sys = make_classic(cantor((2, 3, 4, 5)))
    x = Fraction(17, 60)
    result = encode(sys, x, TOL)
    assert result.status == "converged"
    approx = eval_prefix(result.digits)
    assert abs(approx - x) <= TOL


def test_encode_wide_alphabet_gives_base_256_digits():
    # x = (3N + 1) / (3 * 256**5) is never a cylinder boundary, so its
    # base-256 digits are unique and the greedy choice must reproduce them.
    rng = random.Random(SEED + 2)
    sys = make_classic(s_adic(256))
    for _ in range(20):
        x = Fraction(3 * rng.randrange(256 ** 5) + 1, 3 * 256 ** 5)
        result = encode(sys, x, TOL)
        assert result.status == "converged"
        assert len(result.digits) >= 4
        expected = tuple(int(x * 256 ** k) % 256
                         for k in range(1, len(result.digits) + 1))
        assert result.digits.digits == expected


def test_encode_wide_alphabets_roundtrip_against_oracle():
    rng = random.Random(SEED + 3)
    for kind in (nega_s_adic(192), cantor((64, 160, 96))):
        sys = make_classic(kind)
        lo, hi = value_range(sys, 40)
        for _ in range(10):
            x = rational_between(rng, lo.lo, hi.hi)
            result = encode(sys, x, TOL)
            assert result.status == "converged"
            assert roundtrip_verify(sys, x, result, 40)
            # the residual bounds x minus the word's exact value
            assert result.residual.contains(x - oracle_eval(kind, result.digits.digits))
