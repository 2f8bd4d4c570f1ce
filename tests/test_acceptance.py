"""Acceptance gate: one test per criterion, names carry the criterion number.

The conftest hook prints a PASS/FAIL line per criterion after the run.
Everything here uses exact rational arithmetic; tolerances are only the
maximum enclosure widths a criterion permits.
"""
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from varsign import (
    CERTIFIED,
    cantor,
    cylinder,
    cylinder_bounds,
    cylinder_length,
    DigitSystem,
    encode,
    eval_prefix,
    eval_signed_product,
    example_a,
    example_b,
    FiniteColumn,
    ListColumns,
    make_classic,
    metric_ratio,
    mixed_sign,
    nega_cantor,
    nega_s_adic,
    parse_rational,
    placement,
    roundtrip_verify,
    s_adic,
    SignSet,
    theorem_check,
    uniform_column,
    value_range,
    word,
)

from support import random_finite_system, rational_between

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = os.path.join(ROOT, "presets")


def all_words(system, max_len):
    for length in range(1, max_len + 1):
        ranges = [
            range(system.column(n).top_digit + 1) for n in range(1, length + 1)
        ]
        yield from itertools.product(*ranges)


def random_word(rng, system, length):
    return tuple(
        rng.randint(0, system.column(n).top_digit)
        for n in range(1, length + 1)
    )


def gap_system():
    first = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    return DigitSystem(SignSet.from_list([1]),
                       ListColumns((first, uniform_column(2))))


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(101)
    increasing = tuple(range(2, 14))  # covers positions 1..12 explicitly
    kinds = (
        s_adic(2), s_adic(3), nega_s_adic(2), nega_s_adic(3),
        cantor(increasing), nega_cantor(increasing),
    )
    from varsign import oracle_eval

    for kind in kinds:
        system = make_classic(kind)
        for digits in all_words(system, 4):
            w = word(system, digits)
            assert eval_prefix(w) == oracle_eval(kind, digits)
        for _ in range(1000):
            digits = random_word(rng, system, rng.randint(1, 12))
            w = word(system, digits)
            assert eval_prefix(w) == oracle_eval(kind, digits)
    assert time.perf_counter() - started < 10.0


def test_criterion_2_telescoping_identity():
    rng = random.Random(202)
    small_alphabet = [
        make_classic(s_adic(2)), make_classic(s_adic(3)),
        make_classic(s_adic(4)), make_classic(nega_s_adic(2)),
        make_classic(nega_s_adic(4)), make_classic(cantor((2, 3, 4))),
        make_classic(nega_cantor((4, 3, 2))),
        make_classic(mixed_sign(3, SignSet.even())),
        gap_system(),
    ]
    small_alphabet += [random_finite_system(rng, 6, max_digits=4)
                       for _ in range(8)]
    for system in small_alphabet:
        for digits in all_words(system, 4):
            w = word(system, digits)
            assert eval_signed_product(w) == eval_prefix(w)
    for _ in range(1000):
        system = small_alphabet[rng.randrange(len(small_alphabet))]
        digits = random_word(rng, system, rng.randint(5, 12))
        w = word(system, digits)
        assert eval_signed_product(w) == eval_prefix(w)


def test_criterion_3_value_ranges():
    cap = Fraction(1, 2 ** 40)
    # independent geometric-series targets: sum of 2^-n for n >= 1, and the
    # same series split over odd (negative) and even (positive) positions
    half = Fraction(1, 2)
    binary_sup = half / (1 - half)                      # 1
    odd_part = half / (1 - half ** 2)                   # 2/3
    even_part = half ** 2 / (1 - half ** 2)             # 1/3
    assert (binary_sup, odd_part, even_part) == \
        (Fraction(1), Fraction(2, 3), Fraction(1, 3))

    lo, hi = value_range(make_classic(s_adic(2)), 40)
    assert lo.contains(Fraction(0)) and hi.contains(binary_sup)
    assert lo.lo <= 0 and hi.hi >= binary_sup
    assert lo.width <= cap and hi.width <= cap

    lo, hi = value_range(make_classic(nega_s_adic(2)), 40)
    assert lo.contains(-odd_part) and hi.contains(even_part)
    assert lo.lo <= -odd_part and hi.hi >= even_part
    assert lo.width <= cap and hi.width <= cap


def test_criterion_4_cylinder_geometry():
    rng = random.Random(404)
    classics = [
        make_classic(s_adic(2)), make_classic(s_adic(3)),
        make_classic(nega_s_adic(2)), make_classic(cantor((2, 3, 4))),
        make_classic(nega_cantor((3, 2))),
    ]
    for trial in range(500):
        if trial % 2 == 0:
            system = classics[rng.randrange(len(classics))]
            depth = 40
        else:
            system = random_finite_system(rng, 10, max_digits=3)
            depth = 13
        rank = rng.randint(1, 8)
        base = random_word(rng, system, rank)
        parent = cylinder(system, base)
        col = system.column(rank + 1)
        digit = rng.randint(0, col.top_digit)
        child = cylinder(system, base + (digit,))

        p_inf, p_sup = cylinder_bounds(parent, depth)
        c_inf, c_sup = cylinder_bounds(child, depth)
        assert p_inf.lo <= c_inf.lo and c_sup.hi <= p_sup.hi

        ratio = metric_ratio(parent, digit, depth)
        quotient = cylinder_length(child, depth).div(
            cylinder_length(parent, depth))
        assert ratio.intersects(quotient)

    binary = make_classic(s_adic(2))
    for base in ((0,), (1, 0), (1, 0, 1)):
        for digit in (0, 1):
            ratio = metric_ratio(cylinder(binary, base), digit, 40)
            assert ratio.contains(Fraction(1, 2))
            assert ratio.width <= Fraction(1, 2 ** 38)


def test_criterion_5_placement_sign_laws():
    rng = random.Random(505)
    cap = Fraction(1, 2 ** 40)
    classics = [
        make_classic(s_adic(3)), make_classic(nega_s_adic(2)),
        make_classic(cantor((3, 2, 4))), make_classic(mixed_sign(2, SignSet.even())),
    ]
    for trial in range(500):
        if trial % 2 == 0:
            system = classics[rng.randrange(len(classics))]
            depth = 40
        else:
            system = random_finite_system(rng, 8, max_digits=3)
            depth = 11
        n = rng.randint(1, 5)
        base = random_word(rng, system, n - 1)
        col = system.column(n)
        digit = rng.randint(0, col.top_digit - 1)
        report = placement(system, base, digit, depth)

        if system.signs.contains(n):
            assert report.kappa1.lo > 0
            applicable = report.kappa2
        else:
            assert report.kappa2.lo > 0
            applicable = report.kappa1

        scale = Fraction(1)
        for k, d in enumerate(base, 1):
            scale *= system.column(k).entry(d)
        normalized = applicable.scale(Fraction(1) / scale)
        assert -col.entry(digit) <= normalized.lo
        assert normalized.hi <= col.entry(digit + 1)

    for base in ((), (1,), (0, 1)):
        abut = placement(make_classic(s_adic(2)), base, 0, 40)
        assert abut.kappa1.contains(Fraction(0))
        assert abut.kappa1.width <= cap
    # the alternating system abuts through kappa2 at its marked positions,
    # which for nega_s_adic are the odd ones (even-length bases)
    for base in ((), (1, 0), (0, 1, 1, 0)):
        abut = placement(make_classic(nega_s_adic(2)), base, 0, 40)
        assert abut.kappa2.contains(Fraction(0))
        assert abut.kappa2.width <= cap


def test_criterion_6_brute_force_equivalence():
    rng = random.Random(606)
    support = 10
    checked = 0
    while checked < 50:
        system = random_finite_system(rng, support, max_digits=3)
        for _ in range(5):
            rank = rng.randint(4, 6)
            base = random_word(rng, system, rank)
            ranges = [
                range(system.column(n).top_digit + 1)
                for n in range(rank + 1, support + 1)
            ]
            values = [
                eval_prefix(word(system, base + ext))
                for ext in itertools.product(*ranges)
            ]
            inf_enc, sup_enc = cylinder_bounds(
                cylinder(system, base), support + 2)
            assert inf_enc.is_point and inf_enc.lo == min(values)
            assert sup_enc.is_point and sup_enc.hi == max(values)
            checked += 1
    assert checked >= 50


def test_criterion_7_theorem_and_encoder():
    started = time.perf_counter()
    tol = Fraction(1, 2 ** 30)
    rng = random.Random(707)

    tiling = (
        make_classic(s_adic(2)),
        make_classic(nega_s_adic(2)),
        make_classic(cantor(tuple(range(2, 14)))),
    )
    for system in tiling:
        verdict = theorem_check(system, 10, tail_depth=40)
        assert verdict.overall == "holds-to-depth"

    per_system = (334, 333, 333)
    for system, count in zip(tiling, per_system):
        lo, hi = value_range(system, 40)
        for _ in range(count):
            x = rational_between(rng, lo.lo, hi.hi)
            result = encode(system, x, tol, max_len=64, depth=40)
            assert result.status == "converged"
            assert result.residual.width <= tol
            assert roundtrip_verify(system, x, result, 40)

    gaps = gap_system()
    verdict = theorem_check(gaps, 6, tail_depth=40)
    assert verdict.overall == "fails-at"
    assert verdict.failure == (1, 0)

    report = placement(gaps, (), 0, 40)
    assert report.overlap_class == "empty"
    assert report.overlap_or_gap_measure.contains(Fraction(1, 6))
    assert report.overlap_or_gap_measure.width <= Fraction(1, 2 ** 38)

    # construct the midpoint of the rank-1 gap from the cylinder bounds
    _, below_sup = cylinder_bounds(cylinder(gaps, (1,)), 40)
    above_inf, _ = cylinder_bounds(cylinder(gaps, (0,)), 40)
    midpoint = (below_sup.hi + above_inf.lo) / 2
    result = encode(gaps, midpoint, tol)
    assert result.status == "gap"
    assert result.gap_position == 1

    assert time.perf_counter() - started < 60.0


def test_criterion_8_example_systems_validate():
    for kind in (example_a(), example_b()):
        report = make_classic(kind).validate(64)
        assert report.condition3 == CERTIFIED


def _run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "varsign", *args],
        capture_output=True, cwd=ROOT, env=env,
    )
    return proc.returncode, proc.stdout


def _assert_rationals_reparse(node):
    if isinstance(node, dict):
        for value in node.values():
            _assert_rationals_reparse(value)
    elif isinstance(node, list):
        for value in node:
            _assert_rationals_reparse(value)
    elif isinstance(node, str) and "/" in node:
        assert parse_rational(node) is not None


def test_criterion_9_cli_determinism():
    nega = os.path.join(PRESETS, "nega-binary.json")
    gaps = os.path.join(PRESETS, "gap-halves.json")
    runs = [
        (0, ["validate", "--spec", nega, "--format", "machine"]),
        (0, ["range", "--spec", nega, "--format", "machine"]),
        (0, ["eval", "--spec", nega, "--digits", "1,0,1",
             "--format", "machine"]),
        (0, ["encode", "--spec", nega, "--x", "-1/4", "--format", "machine"]),
        (3, ["encode", "--spec", gaps, "--x", "-1/12", "--format", "machine"]),
        (0, ["cylinder", "--spec", nega, "--base", "1", "--format", "machine"]),
        (0, ["placement", "--spec", gaps, "--digit", "0",
             "--format", "machine"]),
        (0, ["theorem", "--spec", gaps, "--rank", "4", "--format", "machine"]),
    ]
    for expected_code, args in runs:
        code_a, out_a = _run_cli(args)
        code_b, out_b = _run_cli(args)
        assert code_a == code_b == expected_code, (args, code_a, out_b)
        assert out_a == out_b, args
        doc = json.loads(out_a)
        _assert_rationals_reparse(doc)
