import glob
import json
import os
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
    VarsignError,
    cantor,
    cylinder,
    cylinder_bounds,
    encode,
    eval_enclosure,
    eval_prefix,
    load_spec,
    make_classic,
    nega_s_adic,
    oracle_eval,
    parse_enclosure,
    parse_spec,
    roundtrip_verify,
    s_adic,
    theorem_check,
    uniform_column,
    value_range,
)
from varsign.cli import main
from varsign.expansion import read_depth

from support import (
    PRESETS,
    UNSORTED_COLUMN_SPEC,
    preset_systems,
    random_word_digits,
    rational_between,
    reference_encode,
    walk_prefix,
)

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


# (tolerance, max_len) pairs: a short encode and a deep one.
SETTINGS = ((TOL, 64), (Fraction(1, 2 ** 512), 256))


def _outcome(encoder, system, x, tolerance, max_len):
    try:
        result = encoder(system, x, tolerance, max_len)
    except VarsignError as exc:
        return type(exc)
    return (result.digits.digits, result.residual, result.status,
            result.gap_position)


def _differential_targets(rng, system, points=3, ranks=(3, 12)):
    """Seeded interior points, exact word values and both ends of the words'
    cylinders (shared hull boundaries, where the neighbour rule decides),
    and one point above the range."""
    lo, hi = value_range(system, 40)
    targets = [rational_between(rng, lo.lo, hi.hi) for _ in range(points)]
    for rank in ranks:
        digits = random_word_digits(rng, system, rank)
        targets.append(walk_prefix(system, digits)[0])
        inf, sup = cylinder_bounds(cylinder(system, digits), 40)
        targets += sorted({inf.lo, inf.hi, sup.lo, sup.hi})
    return targets + [hi.hi + 1]


def test_encode_matches_the_absolute_coordinate_reference():
    rng = random.Random(SEED + 4)
    systems = preset_systems() + [parse_spec(UNSORTED_COLUMN_SPEC)]
    assert len(systems) == 8
    geometric = DigitSystem(SignSet.none(), ListColumns(
        (GeometricColumn(Fraction(1, 2), Fraction(1, 2)),)))
    cases = [(gap_system(), Fraction(-1, 12)), (geometric, Fraction(1))]
    for system in systems:
        cases += [(system, x) for x in _differential_targets(rng, system)]
    # A deep encode scans about 256 digits per position here, so this wide
    # alphabet gets fewer targets.
    wide = make_classic(nega_s_adic(512))
    cases += [(wide, x) for x in _differential_targets(rng, wide, 1, (3,))]
    mismatches = []
    statuses = set()
    for system, x in cases:
        for tolerance, max_len in SETTINGS:
            ours = _outcome(encode, system, x, tolerance, max_len)
            theirs = _outcome(reference_encode, system, x, tolerance, max_len)
            if ours != theirs:
                mismatches.append((system, x, tolerance, max_len))
            statuses.add(ours if isinstance(ours, type) else ours[2])
    assert not mismatches, mismatches[:3]
    assert {"converged", "max-depth-reached", "gap", RangeError} <= statuses


def test_encode_and_eval_read_the_same_depth(capsys):
    # encode reads the tails at n at read_depth(depth, n), so its residual is
    # x minus the word's enclosure at that depth, which is also the depth and
    # the enclosure that the CLI eval prints for the encoded word.
    rng = random.Random(SEED + 6)
    past_depth = set()
    for path in sorted(glob.glob(os.path.join(PRESETS, "*.json"))):
        system = load_spec(path)
        lo, hi = value_range(system, 40)
        for depth, max_len in ((40, 24), (6, 16)):
            targets = [rational_between(rng, lo.lo, hi.hi)]
            targets += [walk_prefix(system, random_word_digits(rng, system, 3))[0]
                        for _ in range(2)]
            for x in targets:
                for tolerance in (Fraction(1, 2 ** 40), Fraction(1, 2 ** 8)):
                    result = encode(system, x, tolerance, max_len, depth)
                    if result.status == "gap":
                        continue
                    digits = result.digits.digits
                    use = read_depth(depth, len(digits))
                    enclosure = eval_enclosure(result.digits, use)
                    assert result.residual == enclosure.neg().shift(x)
                    code = main(["eval", "--spec", path, "--depth", str(depth),
                                 "--digits", ",".join(map(str, digits)),
                                 "--format", "machine"])
                    doc = json.loads(capsys.readouterr().out)
                    assert code == 0 and doc["depth"] == use
                    assert parse_enclosure(doc["enclosure"]) == enclosure
                    if len(digits) > depth:
                        past_depth.add(os.path.basename(path))
    assert len(past_depth) == 7
