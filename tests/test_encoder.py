import glob
import json
import os
import random
from dataclasses import FrozenInstanceError
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
    example_a,
    example_b,
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
from varsign import encoder
from varsign.cli import main
from varsign.encoder import _pair_status
from varsign.expansion import read_depth, tail_phase
from varsign.numerics import Enclosure

from support import (
    PRESETS,
    UNSORTED_COLUMN_SPEC,
    preset_systems,
    random_periodic_system,
    random_signs,
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


def test_pair_status_needs_separated_sides():
    # A verdict only when the two enclosures do not overlap.
    assert _pair_status(Enclosure(1, 2), Enclosure(2, 3)) == "holds"
    assert _pair_status(Enclosure(3, 4), Enclosure(1, 2)) == "fails"
    assert _pair_status(Enclosure(2, 3), Enclosure(1, 4)) == "undecided"
    assert _pair_status(Enclosure(2, 5), Enclosure(1, 3)) == "undecided"


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
    # The tail layer would refuse these too, later and in its own words.
    with pytest.raises(ParameterError, match="check depth"):
        theorem_check(sys, 10, tail_depth=10)
    with pytest.raises(ParameterError, match="check depth"):
        theorem_check(sys, 2, tail_depth=3.0)
    with pytest.raises(ParameterError):
        theorem_check(sys, 1.0, tail_depth=3)
    assert theorem_check(sys, 1, tail_depth=2).overall == "holds-to-depth"


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
    # The message names the outer ends of the range enclosures: example-a's
    # low end and the rule system's high end are inexact at depth 3.
    for system, x, text in (
            (make_classic(example_a()), Fraction(-1, 3), r"\[-1/4, 1\]"),
            (DigitSystem(SignSet.none(), RuleColumns(lambda n: uniform_column(3))),
             Fraction(2), r"\[0, 1\]")):
        with pytest.raises(RangeError, match=text):
            encode(system, x, TOL, depth=3)


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


def test_encode_parameter_guards():
    sys = make_classic(s_adic(2))
    for bad in ({"tolerance": 0}, {"max_len": 0}, {"max_len": 8.0},
                {"depth": 0}, {"depth": 40.0}):
        with pytest.raises(ParameterError):
            encode(sys, **{"x": Fraction(1, 3), "tolerance": TOL, "max_len": 8,
                           "depth": 40, **bad})
    # The least values each guard lets through.
    result = encode(sys, Fraction(1, 3), Fraction(1, 2 ** 200), max_len=1, depth=1)
    assert (result.digits.digits, result.status) == ((0,), "max-depth-reached")


def test_encode_max_len_exhaustion():
    sys = make_classic(s_adic(2))
    result = encode(sys, Fraction(1, 3), Fraction(1, 2 ** 200), max_len=10)
    assert result.status == "max-depth-reached"
    assert len(result.digits) == 10
    assert len(encode(sys, Fraction(1, 3), Fraction(1, 2 ** 200)).digits) == 64


def test_results_are_frozen():
    sys = make_classic(s_adic(2))
    verdict = theorem_check(sys, 1, tail_depth=3)
    for value, field in ((encode(sys, Fraction(1, 3), TOL), "status"),
                         (verdict, "overall"), (verdict.checks[0], "status")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field, None)


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


def _outcome(encoder, system, x, tolerance, max_len, depth=40):
    try:
        result = encoder(system, x, tolerance, max_len, depth)
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


def _counting_tail_bounds(monkeypatch):
    """Count encode's tail lookups: one for the range, then one per
    position that the step loop runs."""
    calls = []
    real = encoder.tail_bounds

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(encoder, "tail_bounds", counted)
    return calls


def test_encode_cycles_match_the_absolute_coordinate_reference(monkeypatch):
    # Past the first repeated state encode copies whole cycles forward
    # instead of stepping, which shows as fewer tail lookups than positions.
    calls = _counting_tail_bounds(monkeypatch)
    binary = make_classic(s_adic(2))
    nega_binary, mixed_ternary = (load_spec(os.path.join(PRESETS, f"{name}.json"))
                                  for name in ("nega-binary", "mixed-ternary"))
    assert tail_phase(mixed_ternary, 9) is None     # pre + period = 6 + 3
    rng = random.Random(SEED + 7)
    word_value = walk_prefix(nega_binary, random_word_digits(rng, nega_binary, 30))[0]
    # (system, x, tolerance, max_len, depth)
    cycled = [
        # 001 repeats from position 1, before pre + period, and the state
        # first repeats at 5; max_len 64 ends a cycle, 65 stops inside one.
        (binary, Fraction(1, 7), Fraction(1, 2 ** 512), 64, 40),
        (binary, Fraction(1, 7), Fraction(1, 2 ** 512), 65, 40),
        # The stop test first passes 19 and 13 cycles past the first repeat.
        (binary, Fraction(1, 3), Fraction(1, 2 ** 40), 64, 40),
        (binary, Fraction(5, 7), Fraction(1, 2 ** 41), 64, 40),
        # A cycle that starts after pre + period, at the end of the word.
        (nega_binary, word_value, Fraction(1, 2 ** 512), 256, 40),
        (nega_binary, word_value, Fraction(1, 2 ** 100), 256, 40),
        # Digits periodic from position 1, first seen repeating past 9;
        # then a depth below pre + period.
        (mixed_ternary, Fraction(1, 13), Fraction(1, 2 ** 512), 100, 40),
        (mixed_ternary, Fraction(1, 13), Fraction(1, 2 ** 60), 100, 4),
        (mixed_ternary, Fraction(-1, 14), Fraction(1, 2 ** 70), 97, 4),
    ]
    named = list(cycled)
    stepped = []
    for system in (make_classic(example_a()), make_classic(example_b())):
        assert all(tail_phase(system, n) is None for n in range(1, 300))
        lo, hi = value_range(system, 40)
        stepped += [(system, x, Fraction(1, 2 ** 200), 128, 40)
                    for x in (rational_between(rng, lo.lo, hi.hi, 97),
                              walk_prefix(system, random_word_digits(rng, system, 20))[0])]
    # The ends of inexact ranges, read at depths 2 and 3: the range check and
    # the first position's hull take both ends of both tails.
    for system in (make_classic(example_a()),
                   DigitSystem(SignSet.none(), RuleColumns(lambda n: uniform_column(3))),
                   DigitSystem(SignSet.none(), RuleColumns(
                       lambda n: GeometricColumn(Fraction(1, 2), Fraction(1, 2))))):
        lo, hi = value_range(system, 2)
        stepped += [(system, x, Fraction(1, 2 ** 20), 16, depth)
                    for x in (lo.lo, lo.hi, hi.lo, hi.hi) for depth in (1, 3)]
    # A gap at position 1 under an inexact high end: the residual is x minus
    # the whole range.
    first = gap_system().column(1)
    stepped.append((DigitSystem(SignSet.from_list([1]), RuleColumns(
        lambda n: first if n == 1 else uniform_column(2))),
        Fraction(-1, 12), Fraction(1, 2 ** 20), 16, 3))
    # Uniform columns keep r's denominator bounded, so small-denominator
    # targets repeat a state; one period of random columns also repeats
    # once the target's word runs out and r stays 0.
    for _ in range(12):
        columns = ListColumns(tuple(uniform_column(rng.randint(2, 5))
                                    for _ in range(rng.randint(1, 3))), "cycle")
        system = DigitSystem(random_signs(rng), columns)
        lo, hi = value_range(system, 40)
        for tolerance, max_len in ((Fraction(1, 2 ** 30), 64),
                                   (Fraction(1, 2 ** 300), rng.randint(40, 90))):
            cycled.append((system, rational_between(rng, lo.lo, hi.hi, rng.randint(3, 30)),
                           tolerance, max_len, rng.choice((3, 40))))
    for system in (random_periodic_system(rng) for _ in range(12)):
        x = walk_prefix(system, random_word_digits(rng, system, rng.randint(3, 20)))[0]
        cycled.append((system, x, Fraction(1, 2 ** 300), 80, 40))
    shortcuts = 0
    statuses = set()
    for case in cycled + stepped:
        del calls[:]
        ours = _outcome(encode, *case)
        assert ours == _outcome(reference_encode, *case), case
        statuses.add(ours if isinstance(ours, type) else ours[2])
        if isinstance(ours, type) or ours[2] == "gap":
            continue
        steps, positions = len(calls) - 1, len(ours[0])
        assert steps == positions if case in stepped else steps <= positions
        assert steps < positions or case not in named
        shortcuts += steps < positions
    assert shortcuts >= len(named) + 20
    assert {"converged", "max-depth-reached", "gap", RangeError} <= statuses


def test_deep_nega_binary_encode_stops_stepping_at_the_cycle(monkeypatch):
    calls = _counting_tail_bounds(monkeypatch)
    system = make_classic(nega_s_adic(2))
    rng = random.Random(SEED + 8)
    x = walk_prefix(system, random_word_digits(rng, system, 100))[0]
    result = encode(system, x, Fraction(1, 2 ** 512), max_len=256)
    assert result.status == "max-depth-reached" and len(result.digits) == 256
    assert len(calls) < 256


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


def _scanned_cycle_stop(cycle, first, growth, max_len):
    """_cycle_stop by a plain scan: position first + i + k*period (k >= 1)
    stops when cycle[i]'s ratio hull.width / tol is at most growth**k."""
    period = len(cycle)
    for t in range(first + period, max_len + 1):
        k, i = divmod(t - first, period)
        _, tol, hull = cycle[i]
        if hull.width / tol <= growth ** k:
            return t, "converged"
    return max_len, "max-depth-reached"


def test_cycle_stop_matches_a_plain_scan():
    rng = random.Random(SEED + 10)
    seen = set()
    for _ in range(300):
        period, first = rng.randint(1, 5), rng.randint(2, 12)
        growth = rng.choice((Fraction(1), Fraction(2), Fraction(3, 2),
                             Fraction(9, 8), Fraction(rng.randint(2, 40))))
        cycle = []
        for _ in range(period):
            tol = Fraction(1, rng.randint(1, 50))
            if growth > 1 and rng.random() < 0.3:
                ratio = growth ** rng.randint(1, 6)      # a stop exactly at a power
            else:
                ratio = 1 + Fraction(rng.randint(1, 2000), rng.randint(1, 40))
            cycle.append((Fraction(rng.randint(-3, 3), 7), tol,
                          Enclosure(Fraction(-1, 3), Fraction(-1, 3) + ratio * tol)))
        # The first stop with no bound, or None when growth == 1: a cycle
        # of singleton columns never widens tol.
        unbounded = _scanned_cycle_stop(cycle, first, growth, first + 200 * period)
        stop = unbounded[0] if unbounded[1] == "converged" else None
        lengths = [first + rng.randrange(period), first + period + rng.randrange(60)]
        if stop is not None:
            lengths += [stop - 1, stop, stop + rng.randint(1, 2 * period)]
        for max_len in lengths:
            got = encoder._cycle_stop(cycle, first, growth, max_len)
            assert got == _scanned_cycle_stop(cycle, first, growth, max_len), \
                (cycle, first, growth, max_len)
            if max_len - first < period:
                seen.add("shorter than a period")
            elif stop is None:
                seen.add("never")
            else:
                seen.add("before" if stop < max_len else "at" if stop == max_len else "past")
    assert seen == {"shorter than a period", "never", "before", "at", "past"}


def test_theorem_verdict_names_the_first_failure(monkeypatch):
    # s_adic(3) to depth 3 has six checks, (position, digit) = (1, 0), (1, 1),
    # (2, 0), ...; an undecided check comes before the first failure and a
    # second failure follows it.
    system = make_classic(s_adic(3))
    scripts = {
        ("holds", "undecided", "holds", "fails", "undecided", "fails"): ("fails-at", (2, 1)),
        ("fails", "holds", "holds", "holds", "holds", "fails"): ("fails-at", (1, 0)),
        ("holds", "holds", "undecided", "holds", "holds", "holds"): ("undecided", None),
        ("holds",) * 6: ("holds-to-depth", None),
    }
    for script, (overall, failure) in scripts.items():
        statuses = iter(script)
        monkeypatch.setattr(encoder, "_pair_status", lambda left, right: next(statuses))
        verdict = theorem_check(system, 3, tail_depth=40)
        assert [c.status for c in verdict.checks] == list(script)
        assert (verdict.overall, verdict.failure) == (overall, failure)
