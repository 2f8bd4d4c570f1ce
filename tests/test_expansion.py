import gc
import os
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varsign import (
    DigitSystem,
    DomainError,
    FiniteColumn,
    GeometricColumn,
    ListColumns,
    ParameterError,
    RuleColumns,
    SignSet,
    encode,
    eval_enclosure,
    eval_prefix,
    eval_signed_product,
    example_a,
    example_b,
    load_spec,
    make_classic,
    nega_s_adic,
    prefix_walk,
    prefix_weight,
    s_adic,
    tail_bounds,
    uniform_column,
    value_range,
    word,
)

from varsign import expansion
from varsign.expansion import _extremal, _structure_period, _tail_seed
from support import (
    build_signs,
    extension_values,
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


def _differential_systems(rng):
    """Systems whose tails come from every seed branch: finite columns
    (sorted, unsorted, singleton) and geometric ones under both list
    extensions, rule columns with and without the vanishing claim, and the
    two example systems."""
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
    return systems


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
        for low in (True, False):
            seeds = [_tail_seed(sys, depth, low)
                     for depth in range(pre, pre + 3 * period + 1)]
            assert len({seed.is_point for seed in seeds}) == 1, (pre, period)
            if seeds[0].is_point:
                assert seeds[period:] == seeds[:-period]


@pytest.mark.parametrize("signs", [
    SignSet.from_list([50]),
    SignSet.residue_classes(10 ** 12, (0,)),
])
def test_shallow_queries_keep_per_depth_tables(signs):
    # pre + period exceeds the depth: no decision is made, and the queries
    # fill one table of at most depth + 1 entries.
    sys = DigitSystem(signs, ListColumns((uniform_column(2),)))
    expected = reference_tail_bounds(sys, 40)
    for n in reversed(range(40)):
        assert tail_bounds(sys, n, 40) == expected[n]
    tails = expansion._TAILS[sys]
    assert tails.pre + tails.period > 40 and tails.exact is None
    assert list(tails.tables) == [40]
    assert len(tails.tables[40]) <= 41


def test_exact_queries_share_one_canonical_table():
    sys = DigitSystem(SignSet.from_list([50]), ListColumns((uniform_column(2),)))
    for depth in (40, 51, 52, 300):
        expected = reference_tail_bounds(sys, depth)
        for n in (0, 1, 39, depth - 1):
            assert tail_bounds(sys, n, depth) == expected[n], (n, depth)
    tails = expansion._TAILS[sys]
    assert (tails.pre, tails.period, tails.exact) == (50, 1, True)
    assert sorted(tails.tables) == [40, 51]
    assert len(tails.tables[51]) <= 52


def test_deep_encode_keeps_one_tail_table():
    sys = load_spec(os.path.join(os.path.dirname(__file__), os.pardir,
                                 "presets", "nega-binary.json"))
    rng = random.Random(SEED + 11)
    x = eval_prefix(word(sys, [rng.randrange(2) for _ in range(150)]))
    result = encode(sys, x, Fraction(1, 2 ** 512), max_len=256)
    assert len(result.digits) == 256
    tables = expansion._TAILS[sys].tables
    assert len(tables) == 1
    assert sum(len(table) for table in tables.values()) == 3


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
