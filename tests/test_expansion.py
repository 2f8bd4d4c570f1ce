import dataclasses
import gc
import os
import random
import threading
import weakref
from fractions import Fraction
from sys import getswitchinterval, setswitchinterval

import pytest
from hypothesis import given, settings, strategies as st

from varsign import (
    ConstructionError,
    DigitSystem,
    DomainError,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    ParameterError,
    RuleColumns,
    SignSet,
    cantor,
    encode,
    eval_enclosure,
    eval_prefix,
    eval_signed_product,
    example_a,
    example_b,
    load_spec,
    make_classic,
    mixed_sign,
    nega_cantor,
    nega_s_adic,
    parse_spec,
    prefix_walk,
    prefix_weight,
    s_adic,
    tail_bounds,
    uniform_column,
    value_range,
    word,
    word_bounds,
)

from varsign import expansion
from varsign.expansion import _HIGH, _LOW, _structure_period, _tail_seed, tail_phase
from support import (
    FINITE_COLUMNS,
    GEOMETRIC_COLUMNS,
    UNSORTED_COLUMN_SPEC,
    build_signs,
    drawn_systems,
    extension_values,
    preset_systems,
    random_any_column,
    random_finite_system,
    random_periodic_system,
    random_sign_rule,
    random_word_digits,
    reference_tail_bounds,
    walk_prefix,
)

SEED = 0x5eed


def test_word_checks_digits():
    sys = make_classic(s_adic(3))
    w = word(sys, (1, 0, 2))
    assert len(w) == 3
    with pytest.raises(DomainError):
        word(sys, (3,))
    with pytest.raises(DomainError):
        word(sys, (-1,))
    # Digits are never truncated: (1.7, 2.2) is not the word (1, 2).
    for digits in ((1.7, 2.2), (1.0,), ("1",), (0, Fraction(1))):
        with pytest.raises(DomainError, match="digit"):
            word(sys, digits)


def test_words_are_frozen_and_hashable():
    sys = make_classic(s_adic(3))
    w = word(sys, (1, 0, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.digits = (0,)
    assert {w: 1}[word(sys, [1, 0, 2])] == 1


def test_eval_prefix_ternary_value():
    sys = make_classic(s_adic(3))
    w = word(sys, (1, 0, 2))
    assert eval_prefix(w) == Fraction(11, 27)
    assert prefix_weight(w) == Fraction(1, 27)


def test_eval_prefix_alternating_value():
    sys = make_classic(nega_s_adic(2))
    assert eval_prefix(word(sys, (1, 1))) == Fraction(-1, 4)


def test_signed_product_route_matches_on_random_systems():
    rng = random.Random(SEED)
    for _ in range(200):
        sys = random_periodic_system(rng)
        digits = random_word_digits(rng, sys, rng.randint(1, 10))
        w = word(sys, digits)
        assert eval_signed_product(w) == eval_prefix(w)


def test_signed_product_route_matches_on_long_words():
    # Words of 256 to 512 digits on every preset, the unsorted column and
    # the classic families, whose columns put entries over different
    # denominators (1/2, 1/3, 1/6) or none at all (geometric).
    rng = random.Random(SEED + 15)
    systems = preset_systems() + [parse_spec(UNSORTED_COLUMN_SPEC)]
    systems += [make_classic(kind) for kind in (
        s_adic(2), nega_s_adic(3), mixed_sign(3, SignSet.residue_classes(3, (0,), 1)),
        cantor((2, 3, 4)), nega_cantor((3, 2, 5)))]
    for sys in systems:
        for rank in (256, rng.randint(257, 511), 512):
            w = word(sys, random_word_digits(rng, sys, rank))
            assert eval_signed_product(w) == eval_prefix(w) == walk_prefix(sys, w.digits)[0]


@given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
def test_signed_product_route_matches_on_alternating_binary(bits):
    sys = make_classic(nega_s_adic(2))
    w = word(sys, bits)
    assert eval_signed_product(w) == eval_prefix(w)


def test_walk_prefix_agrees_with_engine():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        sys = random_periodic_system(rng)
        digits = random_word_digits(rng, sys, rng.randint(1, 8))
        w = word(sys, digits)
        value, weight = walk_prefix(sys, digits)
        assert value == eval_prefix(w)
        assert weight == prefix_weight(w)


def test_tail_bounds_signs_and_nesting():
    rng = random.Random(SEED + 2)
    for _ in range(50):
        sys = random_periodic_system(rng)
        lo, hi = tail_bounds(sys, 0, depth=12)
        assert lo.hi <= 0 <= hi.lo or (lo.lo <= 0 and hi.hi >= 0)
        assert lo.lo >= -1 and hi.hi <= 1
        deeper_lo, deeper_hi = tail_bounds(sys, 0, depth=24)
        assert lo.encloses(deeper_lo)
        assert hi.encloses(deeper_hi)


def test_prefix_walk_is_value_and_weight():
    rng = random.Random(SEED + 9)
    for _ in range(100):
        sys = random_periodic_system(rng)
        w = word(sys, random_word_digits(rng, sys, rng.randint(0, 8)))
        assert prefix_walk(w) == (eval_prefix(w), prefix_weight(w))


def test_integer_walk_matches_the_fraction_routes():
    # prefix_walk and prefix_weight carry integers over one unreduced
    # denominator; walk_prefix and a running product of entries use reduced
    # Fractions throughout, and eval_signed_product puts each position's
    # entries over their own least common denominator. Uniform columns of 4
    # and 6 digits give weights that reduce (2/4 = 1/2) over entries that do
    # not.
    rng = random.Random(SEED + 14)
    reducing = [
        DigitSystem(SignSet.odd(), ListColumns((uniform_column(4),))),
        DigitSystem(SignSet.every(),
                    ListColumns((uniform_column(6), uniform_column(4)), "cycle")),
    ]
    for sys in _differential_systems(rng) + reducing:
        assert prefix_walk(word(sys, ())) == (0, 1)
        assert prefix_weight(word(sys, ())) == 1
        ranks = {0, 1, 2, 300} | {rng.randint(3, 300) for _ in range(4)}
        words = [random_word_digits(rng, sys, rank) for rank in sorted(ranks)]
        if sys in reducing:
            words.append((2,) * 40)
        for digits in words:
            w = word(sys, digits)
            value, weight = prefix_walk(w)
            assert type(value) is Fraction and type(weight) is Fraction
            assert (value, weight) == walk_prefix(sys, digits)
            assert value == eval_signed_product(w)
            product = Fraction(1)
            for pos, d in enumerate(digits, 1):
                product *= sys.column(pos).entry(d)
            assert prefix_weight(w) == weight == product


def _check_word_bounds(sys, digits, depth):
    """word_bounds against value + weight * tail, endpoint by endpoint, with
    value and weight from walk_prefix; returns which tails are points."""
    value, weight = walk_prefix(sys, digits)
    lo, hi = tail_bounds(sys, len(digits), depth)
    got, inf, sup = word_bounds(word(sys, digits), depth)
    assert type(got) is Fraction and got == value
    assert (inf.lo, inf.hi) == (value + weight * lo.lo, value + weight * lo.hi)
    assert (sup.lo, sup.hi) == (value + weight * hi.lo, value + weight * hi.hi)
    return lo.is_point, hi.is_point


@given(sys=drawn_systems(), rng=st.randoms(use_true_random=False),
       rank=st.integers(0, 60), extra=st.integers(1, 8))
def test_word_bounds_is_value_plus_weight_times_tails(sys, rng, rank, extra):
    _check_word_bounds(sys, random_word_digits(rng, sys, rank), rank + extra)


def test_word_bounds_on_point_and_wide_tails():
    # The presets' tails are points. Rule columns without the vanishing
    # claim seed [0, 1] on each side that has contributors: both sides under
    # odd signs, only the high one when no position is marked.
    rng = random.Random(SEED + 18)
    halves = RuleColumns(lambda n: uniform_column(2))
    systems = preset_systems() + [DigitSystem(SignSet.odd(), halves),
                                  DigitSystem(SignSet.none(), halves)]
    kinds = set()
    for sys in systems:
        for rank in (0, 1, 30, 60):
            kinds.add(_check_word_bounds(sys, random_word_digits(rng, sys, rank), rank + 5))
    assert kinds == {(True, True), (False, False), (True, False)}


def test_tail_bounds_do_not_depend_on_query_order():
    # One system answers a shuffled stream of positions from its cached
    # tables; a fresh copy of it (empty cache) answers each one directly.
    rng = random.Random(SEED + 10)
    systems = [random_periodic_system(rng) for _ in range(20)]
    systems.append(make_classic(example_a()))
    for sys in systems:
        queries = [(n, depth) for depth in (9, 16) for n in range(depth)]
        rng.shuffle(queries)
        for n, depth in queries:
            fresh = DigitSystem(sys.signs, sys.columns)
            assert tail_bounds(sys, n, depth) == tail_bounds(fresh, n, depth)


def test_tail_cache_does_not_keep_systems_alive():
    sys = make_classic(nega_s_adic(2))
    tail_bounds(sys, 0, depth=30)
    alive = weakref.ref(sys)
    del sys
    gc.collect()
    assert alive() is None


def test_tail_bounds_parameter_guards():
    sys = make_classic(s_adic(2))
    with pytest.raises(ParameterError):
        tail_bounds(sys, -1, depth=10)
    with pytest.raises(ParameterError):
        tail_bounds(sys, 10, depth=10)


def test_alternating_binary_tails_are_exact():
    sys = make_classic(nega_s_adic(2))
    lo, hi = tail_bounds(sys, 0, depth=40)
    assert lo.is_point and lo.lo == Fraction(-2, 3)
    assert hi.is_point and hi.hi == Fraction(1, 3)
    lo1, hi1 = tail_bounds(sys, 1, depth=40)
    # beyond position 1 the marked positions are 3, 5, ...: sum 1/3 downward;
    # the unmarked ones are 2, 4, ...: sum 2/3 upward
    assert lo1.is_point and lo1.lo == Fraction(-1, 3)
    assert hi1.is_point and hi1.hi == Fraction(2, 3)


def test_truncated_system_tails_are_exact_points():
    rng = random.Random(SEED + 3)
    for _ in range(20):
        sys = random_finite_system(rng, support=6)
        lo, hi = tail_bounds(sys, 0, depth=8)
        assert lo.is_point and hi.is_point


def test_generic_rule_tails_fall_back_to_unit_interval():
    cols = RuleColumns(lambda n: uniform_column(2))
    sys = DigitSystem(SignSet.odd(), cols)
    lo, hi = tail_bounds(sys, 0, depth=10)
    # no periodicity and no vanishing-product claim: the seed is [0, 1],
    # and the width collapses with the product of extremal entries
    assert lo.width <= Fraction(1, 2) ** 10
    assert hi.width <= Fraction(1, 2) ** 10
    assert -1 <= lo.lo and hi.hi <= 1


def test_tail_width_bounded_by_entry_product():
    rng = random.Random(SEED + 4)
    for _ in range(30):
        base = random_periodic_system(rng)
        cols = RuleColumns(base.column)  # strip structure hints
        sys = DigitSystem(base.signs, cols)
        depth = 9
        lo, hi = tail_bounds(sys, 0, depth=depth)
        cap = Fraction(1)
        for t in range(1, depth + 1):
            cap *= sys.column(t).sup_entry
        assert lo.width <= cap
        assert hi.width <= cap


def _extremal(sys, t):
    """The (weight, entry) pairs of the step table's low and high sides at
    position t, as Fractions."""
    low, high = expansion._steps(sys, expansion._record(sys), t)[t - 1][2:]
    return tuple((Fraction(a, c), Fraction(q, c)) for a, q, c in (low, high))


def test_extremal_pairs():
    col = FiniteColumn((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    sys = DigitSystem(SignSet.from_list([1]), ListColumns((col, uniform_column(2))))
    # marked position: low side realizes the top digit, high side digit 0
    assert _extremal(sys, 1) == ((Fraction(5, 6), Fraction(1, 6)),
                                 (Fraction(0), Fraction(1, 2)))
    # unmarked position: the roles swap
    assert _extremal(sys, 2) == ((Fraction(0), Fraction(1, 2)),
                                 (Fraction(1, 2), Fraction(1, 2)))
    # infinite columns use the limiting pair (1, 0)
    geo = DigitSystem(SignSet.none(),
                      ListColumns((GeometricColumn(Fraction(1, 2), Fraction(1, 2)),)))
    assert _extremal(geo, 1)[1] == (Fraction(1), Fraction(0))


# One rule per sign-set kind, then random ones.
SIGN_KINDS = (
    ("none",), ("every",), ("odd",), ("even",), ("list", (2, 5, 50)),
    ("residues", 3, (0, 2), 1), ("complement", ("residues", 2, (1,), 0)),
)


def _three_phases():
    """(pre, period) = (2, 3), with both sides contributing at every phase,
    so the three phases past pre have three different tail pairs, and 2 *
    pre is not a multiple of the period."""
    return DigitSystem(SignSet(start=2, period=3, residues=frozenset({0})), ListColumns(
        (uniform_column(2), uniform_column(3), uniform_column(5)), "cycle"))


def _differential_systems(rng):
    """Systems whose tails come from every seed branch: finite columns
    (sorted, unsorted, singleton) and geometric ones under both list
    extensions, rule columns with and without the vanishing claim, the two
    example systems, and `_three_phases`, on which a position past pre +
    period read at a shifted phase gets another tail pair."""
    systems = [make_classic(example_a()), make_classic(example_b()),
               random_finite_system(rng, support=7)]
    for i in range(28):
        rule = SIGN_KINDS[i % 7] if i < 14 else random_sign_rule(rng, horizon=60)
        signs = build_signs(rule)
        shape = i % 4
        if shape < 2:
            cols = tuple(random_any_column(rng) for _ in range(rng.randint(1, 4)))
            provider = ListColumns(cols, ("cycle", "repeat-last")[shape])
        else:
            seed = rng.randrange(2 ** 32)
            provider = RuleColumns(
                lambda n, seed=seed: random_any_column(random.Random(seed + n)),
                vanishing_product=shape == 3,
            )
        systems.append(DigitSystem(signs, provider))
    return systems + [_three_phases()]


def test_tail_bounds_match_reference_recursion():
    # Depths around pre + period, where exact systems switch to their one
    # canonical table, and far past it; then the (n, n + 2) stream that
    # encode asks for past its nominal depth, on a cold copy.
    rng = random.Random(SEED + 8)
    for sys in _differential_systems(rng):
        pre, period = _structure_period(sys)
        canonical = pre + period
        depths = sorted({5, 9, 40, 120, 300, canonical - 1, canonical,
                         canonical + 1} - {0})
        rng.shuffle(depths)
        for depth in depths:
            expected = reference_tail_bounds(sys, depth)
            positions = list(range(depth))
            rng.shuffle(positions)
            for n in positions:
                assert tail_bounds(sys, n, depth) == expected[n], (n, depth)
        # Every query is made; the reference, quadratic over the stream, is
        # checked across the switch to the canonical table (at n + 2 ==
        # pre + period) and a period past it, and at every 20th position.
        cold = DigitSystem(sys.signs, sys.columns)
        checked = (set(range(max(canonical - 4, 0), canonical + period))
                   | set(range(0, 261, 20)))
        for n in range(261):
            got = tail_bounds(cold, n, n + 2)
            if n in checked:
                assert got == reference_tail_bounds(cold, n + 2)[n], n


def test_seed_branch_repeats_past_the_preperiod():
    # The canonical table rests on this: from pre on, whether each seed is a
    # point does not depend on the depth, and exact seeds repeat with the
    # period.
    rng = random.Random(SEED + 8)
    for sys in _differential_systems(rng):
        pre, period = _structure_period(sys)
        rec = expansion._record(sys)
        pairs = [(_tail_seed(sys, rec, depth, _LOW), _tail_seed(sys, rec, depth, _HIGH))
                 for depth in range(pre, pre + 3 * period + 1)]
        for seeds in zip(*pairs):
            assert len({seed.is_point for seed in seeds}) == 1, (pre, period)
            if seeds[0].is_point:
                assert seeds[period:] == seeds[:-period]


def test_complemented_signs_swap_and_negate_the_tails():
    # Complementing the sign set flips every term sign, so the twin's
    # downward tail is the original's upward one negated, and the other way
    # round. Both sides go through one walk; a change to only one fails.
    rng = random.Random(SEED + 17)
    for sys in _differential_systems(rng):
        twin = DigitSystem(SignSet.complement(sys.signs), sys.columns)
        pre, period = _structure_period(sys)
        for depth in (3, 9, 40, pre + period, pre + period + 1):
            for n in range(depth):
                lo, hi = tail_bounds(sys, n, depth)
                assert tail_bounds(twin, n, depth) == (hi.neg(), lo.neg()), (n, depth)


def test_singleton_run_longer_than_the_period_keeps_the_tail():
    # Columns 1-3 are singletons and column 4 repeats from there on, so
    # (pre, period) = (3, 1): a seed shallower than the preperiod must look
    # a full period past it, to position 4, before it drops the tail.
    one = FiniteColumn((Fraction(1),))
    sys = DigitSystem(SignSet.odd(), ListColumns(
        (one, one, one, uniform_column(2)), "repeat-last"))
    for depth in range(1, 7):
        expected = reference_tail_bounds(sys, depth)
        for n in range(depth):
            assert tail_bounds(sys, n, depth) == expected[n], (n, depth)
    lo, hi = value_range(sys, 1)
    assert lo.lo < 0 < hi.hi


def test_tail_phase_counts_from_past_the_canonical_depth():
    # Each position is asked of a fresh system, so a query past pre +
    # period decides the seed itself: None up to pre + period = 5, then
    # (n - pre - 1) % period. Rule columns never get a phase, even with
    # exact tails.
    assert [tail_phase(_three_phases(), n) for n in range(1, 11)] == [None] * 5 + [0, 1, 2, 0, 1]
    rule = make_classic(example_b())
    assert tail_phase(rule, 10) is None
    assert tail_bounds(rule, 0, 3)[0].is_point


def test_eval_enclosure_names_the_word_length():
    w = word(make_classic(s_adic(2)), (1, 0, 1))
    for depth in (2, 3, 3.5, None):
        with pytest.raises(ParameterError, match="word length 3"):
            eval_enclosure(w, depth)
    assert eval_enclosure(w, 4).contains(Fraction(5, 8))


def _step_table_systems():
    """The presets, the unsorted column, a geometric column walked with
    digits up to 64, a 512-digit alphabet, and a listed sign at 10^18 (a
    preperiod no walk or tail reaches)."""
    geometric = DigitSystem(SignSet.odd(), ListColumns(
        (GeometricColumn(Fraction(1, 3), Fraction(2, 3)),)))
    far = DigitSystem(SignSet.from_list([10 ** 18]), ListColumns((uniform_column(3),)))
    systems = preset_systems() + [parse_spec(UNSORTED_COLUMN_SPEC), geometric,
                                  make_classic(nega_s_adic(512)), far]
    assert any(isinstance(sys.columns, RuleColumns) for sys in systems)
    return systems


def _table_digits(rng, sys, length):
    return tuple(rng.randint(0, 64) if sys.column(n).is_infinite
                 else rng.randint(0, sys.column(n).top_digit)
                 for n in range(1, length + 1))


def test_step_table_matches_the_fraction_routes():
    # Words and tails past pre + period, where positions share the record of
    # their phase, each asked of a cold copy of the system (an empty step
    # table) and then, in shuffled order, of one warm copy.
    rng = random.Random(SEED + 15)
    for sys in _step_table_systems():
        pre, period = _structure_period(sys)
        reach = min(pre + period, 120)
        lengths = (0, 1, reach, reach + 1, reach + 2 * period + 3, reach + 90)
        words = [_table_digits(rng, sys, n) for n in lengths]
        depths = (reach + 1, reach + 2 * period + 5, reach + 91)
        expected = {depth: reference_tail_bounds(sys, depth) for depth in depths}
        warm = DigitSystem(sys.signs, sys.columns)
        for copy in range(3):
            jobs = [("walk", digits) for digits in words]
            jobs += [("tail", depth) for depth in depths]
            rng.shuffle(jobs)
            for kind, arg in jobs:
                target = warm if copy else DigitSystem(sys.signs, sys.columns)
                if kind == "walk":
                    value, weight = walk_prefix(sys, arg)
                    w = word(target, arg)
                    assert prefix_walk(w) == (value, weight), len(arg)
                    assert prefix_weight(w) == weight, len(arg)
                else:
                    positions = list(range(arg))
                    rng.shuffle(positions)
                    for n in positions:
                        assert tail_bounds(target, n, arg) == expected[arg][n], (n, arg)
        # Periodic columns stop the table at pre + period; other tables reach
        # the longest word, or the deepest tail when it is not exact. Each
        # column has one digit memo, whatever the number of its positions.
        steps = expansion._RECORDS[warm].steps
        if sys.columns.periodicity() is not None and pre + period <= reach:
            assert len(steps) == pre + period
        else:
            assert reach + 90 <= len(steps) <= reach + 91
        assert len({id(step[1]) for step in steps}) == len({id(step[1].col) for step in steps})


def test_step_table_survives_concurrent_extension():
    # Four threads walk and query tails on one cold system with a tiny
    # switch interval, each extending the table a few positions per word,
    # so that their extensions interleave. On example-b the tails fill the
    # canonical tables; on example-a they are mostly settled from each
    # side's resets and, near the depth, kept in the tables of depth 170.
    # The listed system has no infinite column and pre + period = 51 past
    # the depth, so only the tables of depth 40 serve it, and every walk
    # starts from the lowest entry a scan finds while others write below
    # it. An exception in a thread is kept and fails the test, as a wrong
    # answer does.
    rng = random.Random(SEED + 16)
    listed = DigitSystem(SignSet.from_list([50]), ListColumns((uniform_column(2),)))
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for base, depth in ((make_classic(example_b()), 170),
                            (make_classic(example_a()), 170), (listed, 40)):
            words = [random_word_digits(rng, base, n) for n in range(1, depth - 10, 3)]
            expected = [walk_prefix(base, digits) for digits in words]
            tails = reference_tail_bounds(base, depth)
            positions = list(range(len(words))) + list(range(depth - 20, depth))
            for _ in range(10):
                shared = DigitSystem(base.signs, base.columns)
                wrong, errors = [], []

                def run(order):
                    try:
                        for i in order:
                            if (i < len(words)
                                    and prefix_walk(word(shared, words[i])) != expected[i]):
                                wrong.append(i)
                            if tail_bounds(shared, i, depth) != tails[i]:
                                wrong.append(-i)
                    except Exception as exc:  # reported by the assertion below
                        errors.append(repr(exc))

                threads = [threading.Thread(target=run, args=(positions[::step],))
                           for step in (1, -1, 1, -1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert not errors
                assert not wrong
    finally:
        setswitchinterval(interval)


def test_step_table_reaches_a_rule_column_only_when_asked():
    # The rule raises from position 30 on: words shorter than that and tails
    # at depth below it never ask for the column; a tail at depth 30 does.
    def rule(n):
        if n >= 30:
            raise ConstructionError(f"no column at {n}")
        return uniform_column(3)

    for vanishing in (False, True):
        sys = DigitSystem(SignSet.odd(), RuleColumns(rule, vanishing))
        for depth in range(1, 30):
            for n in range(depth):
                tail_bounds(sys, n, depth)
        for length in range(30):
            w = word(sys, [2] * length)
            assert prefix_walk(w) == walk_prefix(sys, w.digits)
            assert prefix_weight(w) == Fraction(1, 3 ** length)
        with pytest.raises(ConstructionError, match="position 30|at 30"):
            tail_bounds(sys, 0, 30)
        # The failed extension left the table as it was.
        assert tail_bounds(sys, 5, 29) == reference_tail_bounds(sys, 29)[5]


def _check_depth_orders(sys, depths):
    """Every n < D against the reference at each depth D, asked of four cold
    copies: depths ascending or descending, and within a depth positions
    ascending or descending. A tail settled by a deep query must not serve a
    query shallower than its reset, and one settled by a shallow query must
    serve every deeper one."""
    expected = {depth: reference_tail_bounds(sys, depth) for depth in depths}
    for depth_step, n_step in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        cold = DigitSystem(sys.signs, sys.columns)
        for depth in sorted(depths)[::depth_step]:
            for n in range(depth)[::n_step]:
                assert tail_bounds(cold, n, depth) == expected[depth][n], (
                    n, depth, depth_step, n_step)


def _resets(sys, side, first, last):
    """The positions in first..last whose infinite column resets the side:
    marked positions for the low side, unmarked ones for the high side."""
    return [t for t in range(first, last + 1)
            if sys.column(t).is_infinite and sys.signs.contains(t) == (side == _LOW)]


def _check_stores(sys, depths):
    """The sharing that `tail_bounds` states, after the sweep of
    `_check_depth_orders` in each of its four orders. Every settled n ->
    (r, tail) has r as its side's first reset past n. The table of a depth
    D walks past no reset of its side: none lies in min + 1..D, from its
    lowest position on, except at D itself in the canonical table that the
    exact decision starts at pre + period, which then holds D alone. Wrong
    stores would still give right values."""
    for depth_step, n_step in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        cold = DigitSystem(sys.signs, sys.columns)
        for depth in sorted(depths)[::depth_step]:
            for n in range(depth)[::n_step]:
                tail_bounds(cold, n, depth)
        rec = expansion._RECORDS[cold]
        for side in (_LOW, _HIGH):
            for depth, table in rec.tables[side].items():
                assert depth in table, (side, depth)
                if table.keys() != {rec.pre + rec.period}:
                    assert not _resets(sys, side, min(table) + 1, depth), (side, depth)
            for n, (first, _) in rec.settled[side].items():
                assert _resets(sys, side, n + 1, first) == [first], (side, n)


def _around_resets(sys, horizon):
    """Depths 1 and `horizon`, and each depth just below, at and just above
    a position up to `horizon` whose infinite column resets a side."""
    depths = {1, horizon}
    for t in range(1, horizon + 1):
        if sys.column(t).is_infinite:
            depths |= {t - 1, t, t + 1}
    return depths - {0}


def test_reset_tails_match_the_reference_on_the_examples():
    # Example-a resets a side at every position (the high side on unmarked
    # ones, the low side on marked ones from 5 on), so each depth is just
    # below, at or above some reset. Position 8's sides reset at 9 and 11:
    # its low tail, settled by a deeper query, must not serve depths 9 and 10.
    # Example-b resets only the high side; geometric-halves resets a side
    # at every position, and reads its canonical table from depth 2 on.
    halves = load_spec(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "presets", "geometric-halves.json"))
    for sys in (make_classic(example_a()), make_classic(example_b()), halves):
        depths = _around_resets(sys, 40) | {120}
        _check_depth_orders(sys, depths)
        _check_stores(sys, depths)


@st.composite
def _mixed_columns(draw):
    """A provider over finite (sorted, unsorted or singleton) and geometric
    columns, at least one of each: listed and cycled or repeating the last,
    or a rule cycling them, with the vanishing claim when it holds."""
    cols = draw(st.lists(st.one_of(FINITE_COLUMNS, GEOMETRIC_COLUMNS), max_size=4))
    cols = draw(st.permutations(cols + [draw(FINITE_COLUMNS), draw(GEOMETRIC_COLUMNS)]))
    shape = draw(st.sampled_from(("cycle", "repeat-last", "rule")))
    if shape != "rule":
        return ListColumns(tuple(cols), shape)
    return RuleColumns(lambda n: cols[(n - 1) % len(cols)],
                       vanishing_product=all(col.sup_entry < 1 for col in cols))


@pytest.mark.parametrize("rule", SIGN_KINDS)
@settings(max_examples=20)
@given(columns=_mixed_columns())
def test_reset_tails_match_the_reference_on_mixed_columns(rule, columns):
    sys = DigitSystem(build_signs(rule), columns)
    depths = _around_resets(sys, 24)
    _check_depth_orders(sys, depths)
    _check_stores(sys, depths)


class _CountingColumns:
    """A column provider that forwards to `inner` and records every
    position asked for. A position past `last` fails the test at once,
    before a runaway walk builds its columns."""

    def __init__(self, inner, last=None):
        self.inner, self.last, self.asked = inner, last, []

    def column(self, n):
        assert self.last is None or n <= self.last, f"asked for column {n}"
        self.asked.append(n)
        return self.inner.column(n)

    def periodicity(self):
        return self.inner.periodicity()

    def claims_vanishing_product(self):
        return self.inner.claims_vanishing_product()


def _anchors(sys):
    """Each side's first resets that its settled tails start from, in
    order, on a system that keeps no table at a depth."""
    rec = expansion._RECORDS[sys]
    assert rec.tables == {_LOW: {}, _HIGH: {}}
    return {side: sorted({first for first, _ in rec.settled[side].values()})
            for side in (_LOW, _HIGH)}


def test_reset_tails_ask_no_column_past_both_first_resets():
    # Example-a's high side resets at position 1 (unmarked) and its low side
    # at 5, the first marked position, so the range is exact from depth 5
    # on: a query at depth 10^6 asks for no column past 5, and one at depth
    # 5 reads the tails it settled. No table is kept at a depth.
    base = make_classic(example_a())
    cols = _CountingColumns(base.columns, last=5)
    sys = DigitSystem(base.signs, cols)
    assert value_range(sys, 10 ** 6) == reference_tail_bounds(base, 5)[0]
    assert max(cols.asked) == 5
    assert value_range(sys, 5) == value_range(sys, 10 ** 6)
    assert _anchors(sys) == {_LOW: [5], _HIGH: [1]}
    # Listed columns reset as well: one geometric column, with only
    # position 50 marked, resets the low side at 50 and the high side at 1,
    # so a query shallower than pre + period = 51 reads both from their
    # resets, with no table kept at a depth.
    listed = DigitSystem(SignSet.from_list([50]), ListColumns(
        (GeometricColumn(Fraction(1, 2), Fraction(1, 2)),)))
    assert value_range(listed, 50) == reference_tail_bounds(listed, 50)[0]
    assert _anchors(listed) == {_LOW: [50], _HIGH: [1]}


def test_example_a_resets_within_three_positions():
    # From position 5 on, marks come in pairs, so any three consecutive
    # positions from 3 on hold a marked and an unmarked one: both sides of
    # the tail at n >= 2 reset by n + 3, and the stream (n, n + 3) is served
    # without a table kept at a depth. Asked from the top down, each query
    # settles its tails from its own first resets, or reads them from a
    # settled tail above it that starts from the same reset.
    sys = make_classic(example_a())
    for n in reversed(range(2, 60)):
        assert tail_bounds(sys, n, n + 3) == reference_tail_bounds(sys, n + 3)[n], n
    for side, anchors in _anchors(sys).items():
        firsts = {_resets(sys, side, n + 1, n + 3)[0] for n in range(2, 60)}
        assert anchors == sorted(firsts), side


@pytest.mark.parametrize("signs", [
    SignSet.from_list([50]),
    SignSet.residue_classes(10 ** 12, (0,)),
])
def test_shallow_queries_keep_per_depth_tables(signs):
    # pre + period exceeds the depth: no decision is made, and the queries
    # fill one table per side of at most depth + 1 entries, down to position
    # 0. No column is infinite, so no reset is looked for: the walks ask for
    # each column from 2 to 40 once.
    cols = _CountingColumns(ListColumns((uniform_column(2),)))
    sys = DigitSystem(signs, cols)
    expected = reference_tail_bounds(DigitSystem(signs, cols.inner), 40)
    for n in reversed(range(40)):
        assert tail_bounds(sys, n, 40) == expected[n]
    tails = expansion._RECORDS[sys]
    assert tails.pre + tails.period > 40 and tails.exact is None
    for side in (_LOW, _HIGH):
        assert list(tails.tables[side]) == [40]
        assert len(tails.tables[side][40]) <= 41 and min(tails.tables[side][40]) == 0
    assert all(cols.asked.count(t) == 1 for t in range(2, 41))


def test_exact_queries_share_one_canonical_table():
    sys = DigitSystem(SignSet.from_list([50]), ListColumns((uniform_column(2),)))
    for depth in (40, 51, 52, 300):
        expected = reference_tail_bounds(sys, depth)
        for n in (0, 1, 39, depth - 1):
            assert tail_bounds(sys, n, depth) == expected[n], (n, depth)
    tails = expansion._RECORDS[sys]
    assert (tails.pre, tails.period, tails.exact) == (50, 1, True)
    for side in (_LOW, _HIGH):
        assert sorted(tails.tables[side]) == [40, 51]
        assert len(tails.tables[side][51]) <= 52


def test_deep_encode_keeps_one_tail_table():
    sys = load_spec(os.path.join(os.path.dirname(__file__), os.pardir,
                                 "presets", "nega-binary.json"))
    rng = random.Random(SEED + 11)
    x = eval_prefix(word(sys, [rng.randrange(2) for _ in range(150)]))
    result = encode(sys, x, Fraction(1, 2 ** 512), max_len=256)
    assert len(result.digits) == 256
    tables = expansion._RECORDS[sys].tables
    for side in (_LOW, _HIGH):
        assert len(tables[side]) == 1
        assert sum(len(table) for table in tables[side].values()) == 3


def test_deep_encode_settles_reset_tails_by_position():
    # Every column of example-a is infinite, so a deep encode reads most
    # tails from the settled store of each side, one entry per position, and
    # keeps tables only at the depths whose tails have no reset of the side
    # before them. A settled tail never sits in the table of a depth at or
    # past its reset, where it would be kept twice.
    sys = make_classic(example_a())
    rng = random.Random(1)
    x = eval_prefix(word(sys, random_word_digits(rng, sys, 150)))
    encode(sys, x, Fraction(1, 2 ** 512), max_len=256)
    rec = expansion._RECORDS[sys]
    counts = {side: (len(rec.tables[side]), len(rec.settled[side])) for side in (_LOW, _HIGH)}
    assert counts == {_LOW: (45, 170), _HIGH: (44, 171)}
    for side in (_LOW, _HIGH):
        for n, (first, _) in rec.settled[side].items():
            assert not any(n in table for depth, table in rec.tables[side].items()
                           if depth >= first), (side, n)


def test_value_range_known_systems():
    lo, hi = value_range(make_classic(s_adic(2)), 40)
    assert lo.is_point and lo.lo == 0
    assert hi.is_point and hi.hi == 1
    lo, hi = value_range(make_classic(nega_s_adic(2)), 40)
    assert (lo.lo, hi.hi) == (Fraction(-2, 3), Fraction(1, 3))


def test_eval_enclosure_contains_all_extensions():
    rng = random.Random(SEED + 5)
    for _ in range(25):
        sys = random_finite_system(rng, support=6, max_digits=3)
        digits = random_word_digits(rng, sys, rng.randint(1, 4))
        w = word(sys, digits)
        enc = eval_enclosure(w, depth=8)
        for v in extension_values(sys, digits, 6):
            assert enc.contains(v)


def test_eval_enclosure_alternating_binary():
    sys = make_classic(nega_s_adic(2))
    enc = eval_enclosure(word(sys, (1, 1)), depth=40)
    assert (enc.lo, enc.hi) == (Fraction(-5, 12), Fraction(-1, 6))


def test_geometric_column_word_evaluation():
    col = GeometricColumn(Fraction(1, 2), Fraction(1, 2))
    sys = DigitSystem(SignSet.none(), ListColumns((col,)))
    w = word(sys, (2, 0))
    # digit 2 carries weight 1/4 + ... = 3/4, entry 1/8
    assert eval_prefix(w) == Fraction(3, 4)
    assert prefix_weight(w) == Fraction(1, 16)
    enc = eval_enclosure(w, depth=20)
    assert enc.lo == Fraction(3, 4)
    assert enc.hi - enc.lo == Fraction(1, 16)


def test_singleton_forced_digits_contribute_nothing():
    cols = ListColumns((uniform_column(2), FiniteColumn((Fraction(1),))))
    sys = DigitSystem(SignSet.none(), cols)
    w = word(sys, (1, 0, 0))
    assert eval_prefix(w) == Fraction(1, 2)
    lo, hi = value_range(sys, 10)
    assert lo.is_point and hi.is_point
    assert (lo.lo, hi.hi) == (0, Fraction(1, 2))
