import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ifg import model, syntax
from ifg.downsets import Downsets
from ifg.errors import IfgError, ParseError, GuardExceeded
from ifg.model import (Structure, Space, SPACE_LIMIT, eval_term, eval_atomic,
                       bits)
from teamsem import OracleSpace

# a Space with the primitives of the per-team recursion (tests/teamsem.py)
SP = OracleSpace(2, 2)
JSETS = [frozenset(s) for s in ({}, {0}, {1}, {0, 1})]


def all_teams(space):
    return range(1 << space.count)


# -- structures ----------------------------------------------------------------


STRUCTURE_TEXT = """
universe 2
constant c = 1
function f/1: 0 -> 1
function f/1: 1 -> 0
relation R/1: 0
relation S/2: 0,1 1,0  # a comment
"""


def test_structure_parse():
    s = Structure.parse(STRUCTURE_TEXT)
    assert s.size == 2
    assert s.constants == {"c": 1}
    assert s.functions["f"] == (1, {(0,): 1, (1,): 0})
    assert s.relations["R"] == (1, frozenset({(0,)}))
    assert s.relations["S"] == (2, frozenset({(0, 1), (1, 0)}))


def test_structure_parse_errors():
    with pytest.raises(ParseError):
        Structure.parse("constant c = 1")  # no universe
    with pytest.raises(ParseError):
        Structure.parse("universe 2\nwhatever x")
    with pytest.raises(ParseError):
        Structure.parse("universe two")


def test_structure_validation():
    with pytest.raises(IfgError):
        Structure(2, constants={"c": 2})
    with pytest.raises(IfgError):
        Structure(2, functions={"f": (1, {(0,): 1})})  # not total
    with pytest.raises(IfgError):
        Structure(2, relations={"R": (1, {(0, 1)})})  # arity mismatch
    with pytest.raises(IfgError):
        Structure(-1)


def test_eval_term_and_atomic():
    s = Structure.parse(STRUCTURE_TEXT)
    f_of_c = syntax.App("f", (syntax.Const("c"),))
    assert eval_term(s, f_of_c, ()) == 0
    assert eval_term(s, syntax.Var(0), (1, 0)) == 1
    assert eval_atomic(s, syntax.Eq(f_of_c, syntax.Var(0)), (0,))
    assert eval_atomic(s, syntax.Rel("S", (syntax.Var(0), syntax.Var(1))),
                       (0, 1))
    assert not eval_atomic(s, syntax.Rel("R", (syntax.Var(0),)), (1,))
    with pytest.raises(IfgError):
        eval_term(s, syntax.Const("d"), ())
    with pytest.raises(IfgError):
        eval_atomic(s, syntax.Rel("T", (syntax.Var(0),)), (0,))


# -- valuations ------------------------------------------------------------------


def test_encode_decode_examples():
    assert SP.decode(0) == (0, 0)
    assert SP.decode(1) == (1, 0)
    assert SP.decode(2) == (0, 1)
    assert SP.digits(1) == "10"
    assert Space(2, 0).digits(0) == "()"


@given(st.integers(0, 3 ** 3 - 1))
def test_encode_decode_roundtrip(index):
    sp = Space(3, 3)
    assert sp.encode(sp.decode(index)) == index


def test_variant_index():
    assert SP.variant_index(0, 1, 1) == 2
    assert SP.variant_index(3, 0, 0) == 2
    assert SP.variant_index(3, 0, 1) == 3


def test_empty_base():
    sp = Space(0, 2)
    assert sp.count == 0 and sp.full_team == 0


def test_space_limit():
    assert Space(2, 18).count == SPACE_LIMIT
    with pytest.raises(GuardExceeded, match="524288 valuations exceed "
                                            "the limit of 262144"):
        Space(2, 19)


# -- agreement classes -----------------------------------------------------------


def test_agree_outside_is_equivalence():
    sp = OracleSpace(3, 2)
    for jset in JSETS:
        for i in range(sp.count):
            assert sp.agree_outside(i, i, jset)
            for j in range(sp.count):
                assert (sp.agree_outside(i, j, jset)
                        == sp.agree_outside(j, i, jset))
                for k in range(sp.count):
                    if (sp.agree_outside(i, j, jset)
                            and sp.agree_outside(j, k, jset)):
                        assert sp.agree_outside(i, k, jset)


def test_agreement_monotone_in_jset():
    for j, k in itertools.product(JSETS, repeat=2):
        if not j <= k:
            continue
        for i1 in range(SP.count):
            for i2 in range(SP.count):
                if SP.agree_outside(i1, i2, j):
                    assert SP.agree_outside(i1, i2, k)


def test_classes_partition():
    for jset in JSETS:
        masks = SP.classes(jset)
        union = 0
        for m in masks:
            assert m
            assert union & m == 0
            union |= m
            assert all(SP.agree_outside(i, j, jset)
                       for i in bits(m) for j in bits(m))
        assert union == SP.full_team
        keys = {tuple(d for k, d in enumerate(SP.decode(i)) if k not in jset)
                for i in range(SP.count)}
        assert len(masks) == len(keys)
        lows = [bits(m)[0] for m in masks]
        assert lows == sorted(lows)


def _ref_parts(space, jset):
    """(lowest valuation, mask) of each ~J class, grouped by the digits of
    its valuations outside J, by ascending lowest valuation."""
    groups = {}
    for i in range(space.count):
        val = space.decode(i)
        key = tuple(val[k] for k in range(space.nvars) if k not in jset)
        groups.setdefault(key, []).append(i)
    return [(members[0], sum(1 << i for i in members))
            for members in groups.values()]


def _class_shapes():
    """(K, N, every J) with K from 0 to 5 and N <= 4, plus a J with
    variables past N, and count 32 at K=2, N=5."""
    for size, nvars in [(k, n) for k in range(6) for n in range(5)] + [(2, 5)]:
        jsets = [frozenset(c) for r in range(nvars + 1)
                 for c in itertools.combinations(range(nvars), r)]
        if nvars == 3:
            jsets.append(frozenset({0, 1, 2, 5}))
        yield size, nvars, jsets


def _teams(space, rng):
    """Every team at counts up to 9, else the extremes and a sample."""
    if space.count <= 9:
        return range(1 << space.count)
    return [0, space.full_team] + [rng.getrandbits(space.count)
                                   for _ in range(12)]


def test_parts_lowest_and_classes_match_digit_grouping():
    rng = random.Random(19)
    for size, nvars, jsets in _class_shapes():
        for jset in jsets:
            space = Space(size, nvars)
            ref = _ref_parts(space, jset)
            assert space.classes(jset) == [m for _, m in ref]
            for team in _teams(space, rng):
                want = [(low, m & team) for low, m in ref if m & team]
                assert space.parts(jset, team) == [p for _, p in want]
                assert space.lowest(team, jset) == sum(1 << low
                                                       for low, _ in want)


def test_digit_slices_match_the_valuation_loop():
    for size in range(6):
        for nvars in range(5):
            space = Space(size, nvars)
            for n in range(nvars + 2):
                masks = [0] * size
                for i in range(space.count):
                    digit = space.decode(i)[n] if n < nvars else 0
                    if digit < size:
                        masks[digit] |= 1 << i
                repeat = sum(1 << (b * size ** n) for b in range(size))
                assert space._digit_slices(n) == (masks, repeat)


def test_class_table_limit(monkeypatch):
    """The ~J classes a query meets are refused, before their masks are
    built, when their count times the valuation count exceeds
    CLASS_TABLE_LIMIT."""
    assert model.CLASS_TABLE_LIMIT == 1 << 30
    monkeypatch.setattr(model, "CLASS_TABLE_LIMIT", 9 * 27)
    sp = Space(3, 3)
    assert len(sp.classes(frozenset({2}))) == 9  # at the limit
    assert len(sp.classes(frozenset({0, 1, 2, 5}))) == 1
    with pytest.raises(GuardExceeded, match=r"J = \{\} need 27 masks of 27 "
                                            r"bits, above the limit of 243"):
        sp.classes(frozenset())
    assert (frozenset(), sp.full_team) not in sp._classes
    # a team that meets 9 classes of J = {} is within the limit
    assert len(sp.parts(frozenset(), (1 << 9) - 1)) == 9


def test_class_repr():
    assert SP.class_repr(0, frozenset({1})) == "0*"
    assert SP.class_repr(3, frozenset()) == "11"
    assert Space(2, 0).class_repr(0, frozenset()) == "()"


# -- teams ------------------------------------------------------------------------


def test_parse_and_render_team():
    assert SP.parse_team("") == 0
    assert Space(2, 0).parse_team("()") == 1
    assert Space(2, 0).render_team(1) == "{()}"
    with pytest.raises(IfgError):
        SP.parse_team("()")
    assert SP.parse_team("00,11") == 0b1001
    assert SP.render_team(0b1001) == "{00,11}"
    assert SP.render_team(0) == "{}"
    with pytest.raises(IfgError):
        SP.parse_team("0")  # wrong length
    with pytest.raises(IfgError):
        SP.parse_team("02")  # digit out of range
    with pytest.raises(IfgError):
        Space(11, 1).parse_team("0")


def test_team_classes_and_touched():
    for jset in JSETS:
        for team in all_teams(SP):
            blocks = SP.team_classes(team, jset)
            got = 0
            for b in blocks:
                assert b and b & team == b
                assert got & b == 0
                got |= b
            assert got == team
            assert len(blocks) == sum(1 for c in SP.classes(jset) if c & team)


def test_saturated_splits_are_saturated_partitions():
    for jset in JSETS:
        for team in all_teams(SP):
            splits = list(SP.saturated_splits(team, jset))
            assert len(splits) == 1 << len(SP.team_classes(team, jset))
            for v1, v2 in splits:
                assert v1 | v2 == team and v1 & v2 == 0
                for part in (v1, v2):
                    for i in bits(part):
                        for j in bits(team):
                            if SP.agree_outside(i, j, jset):
                                assert part >> j & 1


def test_splits_coarser_slash_refines():
    # a K-saturated split is J-saturated for J <= K
    for j, k in itertools.product(JSETS, repeat=2):
        if not j <= k:
            continue
        for team in all_teams(SP):
            j_splits = set(SP.saturated_splits(team, j))
            for pair in SP.saturated_splits(team, k):
                assert pair in j_splits


def test_splits_restrict_to_subteams():
    for jset in JSETS:
        for team in all_teams(SP):
            for sub in all_teams(SP):
                if sub & ~team:
                    continue
                sub_splits = set(SP.saturated_splits(sub, jset))
                for v1, v2 in SP.saturated_splits(team, jset):
                    assert (v1 & sub, v2 & sub) in sub_splits


# -- independent functions ----------------------------------------------------------


def test_oracle_primitives_worked_examples():
    """The empty team has the one empty function; with every variable
    slashed a function is constant and a saturated split puts the whole
    team on one side; with every variable slashed any two valuations
    agree."""
    full, everything = SP.full_team, frozenset({0, 1})
    assert list(SP.independent_functions(0, frozenset({0}))) == [([], ())]
    fns = list(SP.independent_functions(full, everything))
    assert sorted(values for _, values in fns) == [(0,), (1,)]
    assert set(SP.saturated_splits(full, everything)) == {(full, 0),
                                                          (0, full)}
    assert all(SP.agree_outside(i, j, everything)
               for i in range(SP.count) for j in range(SP.count))


def test_independent_functions_shape():
    for jset in JSETS:
        for team in all_teams(SP):
            fns = list(SP.independent_functions(team, jset))
            k = len(SP.team_classes(team, jset))
            assert len(fns) == SP.size ** k if team else fns == [([], ())]
            for blocks, values in fns:
                assert len(blocks) == len(values) == (k if team else 0)


def test_variant_team_matches_pointwise():
    for jset in JSETS:
        for team in all_teams(SP):
            for blocks, values in SP.independent_functions(team, jset):
                want = 0
                for block, b in zip(blocks, values):
                    for i in bits(block):
                        want |= 1 << SP.variant_index(i, 0, b)
                assert SP.variant_team_fn(0, blocks, values) == want


def test_gluing_functions_on_split_parts():
    # functions on the parts of a J-saturated split glue to a function on
    # the whole team, and restricting a function gives functions on the parts
    n = 0
    for jset in JSETS:
        for team in all_teams(SP):
            whole = {SP.variant_team_fn(n, b, v)
                     for b, v in SP.independent_functions(team, jset)}
            for v1, v2 in SP.saturated_splits(team, jset):
                glued = set()
                for b1, f1 in SP.independent_functions(v1, jset):
                    left = SP.variant_team_fn(n, b1, f1)
                    for b2, f2 in SP.independent_functions(v2, jset):
                        glued.add(left | SP.variant_team_fn(n, b2, f2))
                assert glued == whole


def test_variant_all_and_idempotence():
    for team in all_teams(SP):
        for n in range(2):
            va = SP.variant_team_all(team, n)
            assert va == (SP.variant_team(team, n, 0)
                          | SP.variant_team(team, n, 1))
            assert SP.variant_team_all(va, n) == va


def test_variant_all_distributes_over_splits():
    # with n in J, a J-saturated split of V induces one of V(n:A), and any
    # J-saturated split of V(n:A) has parts fixed by the variation
    for jset in JSETS:
        for n in jset:
            for team in all_teams(SP):
                va = SP.variant_team_all(team, n)
                va_splits = set(SP.saturated_splits(va, jset))
                for v1, v2 in SP.saturated_splits(team, jset):
                    pair = (SP.variant_team_all(v1, n),
                            SP.variant_team_all(v2, n))
                    assert pair in va_splits
                for w1, w2 in va_splits:
                    assert SP.variant_team_all(w1, n) == w1
                    assert SP.variant_team_all(w2, n) == w2


def test_function_composition_witness():
    # f independent of J then g independent of K compose to a function
    # independent of J & K
    n = 0
    achievable = {}
    for team in all_teams(SP):
        for jset in JSETS:
            achievable[(team, jset)] = {
                SP.variant_team_fn(n, b, v)
                for b, v in SP.independent_functions(team, jset)}
    for team in all_teams(SP):
        for j, k in itertools.product(JSETS, repeat=2):
            for b1, f in SP.independent_functions(team, j):
                vf = SP.variant_team_fn(n, b1, f)
                for b2, g in SP.independent_functions(vf, k):
                    vfg = SP.variant_team_fn(n, b2, g)
                    assert vfg in achievable[(team, j & k)]


def test_function_interpolation_witness():
    # given f, h on V independent of J and K with n in K, some g on V(n:f)
    # independent of K reaches V(n:h)
    n = 0
    for team in all_teams(SP):
        for j in JSETS:
            for k in JSETS:
                if n not in k:
                    continue
                targets = {SP.variant_team_fn(n, b, v)
                           for b, v in SP.independent_functions(team, k)}
                for b1, f in SP.independent_functions(team, j):
                    vf = SP.variant_team_fn(n, b1, f)
                    reachable = {SP.variant_team_fn(n, b, v)
                                 for b, v in SP.independent_functions(vf, k)}
                    assert targets <= reachable


def test_functions_commute_witness():
    # moves on m then n swap to moves on n then m when m in K and n in J
    m, n = 0, 1
    for team in all_teams(SP):
        for j in JSETS:
            if n not in j:
                continue
            for k in JSETS:
                if m not in k:
                    continue
                swapped = set()
                for bg, gv in SP.independent_functions(team, k):
                    vg = SP.variant_team_fn(n, bg, gv)
                    for bf, fv in SP.independent_functions(vg, j):
                        swapped.add(SP.variant_team_fn(m, bf, fv))
                for bf, fv in SP.independent_functions(team, j):
                    vf = SP.variant_team_fn(m, bf, fv)
                    for bg, gv in SP.independent_functions(vf, k):
                        assert SP.variant_team_fn(n, bg, gv) in swapped


# -- masks ---------------------------------------------------------------------------


def test_powerset_mask():
    mask = SP.powerset_mask(0b101)
    assert mask.bit_count() == 4
    for team in bits(mask):
        assert team & ~0b101 == 0
    assert SP.powerset_mask(0) == 1


@given(st.one_of(st.integers(0, (1 << 12) - 1), st.integers(0, 1 << 600)))
def test_bits_and_popcount(mask):
    """Both sides of the 64-bit switch in bits."""
    width = mask.bit_length()
    assert bits(mask) == [i for i in range(width) if mask >> i & 1]
    assert mask.bit_count() == bin(mask).count("1")


@pytest.mark.parametrize("width", [64, 65, 1 << 16])
def test_bits_at_fixed_widths(width):
    full = (1 << width) - 1
    top = 1 << (width - 1)
    sampled = random.Random(width).getrandbits(width) | top
    for mask in (full, top, full ^ 1, sampled):
        assert bits(mask) == [i for i in range(width) if mask >> i & 1]


# -- rendering team sets -------------------------------------------------------------


def _render_each(space, family):
    return [space.render_team(team) for team in bits(family)]


def _sampled_families(space, rng, count):
    """Downward-closed families (unions of powersets) and random ones."""
    out = []
    for _ in range(count):
        family = 1
        for _ in range(rng.randint(1, 4)):
            family |= space.powerset_mask(rng.getrandbits(space.count))
        out.append(family)
        out.append(rng.getrandbits(1 << space.count))
        out.append(family ^ 1 << rng.randrange(1 << space.count))
    return out


def test_render_teams_at_count_4():
    downsets = Downsets(SP)
    rng = random.Random(4)
    closed = [f for f in range(1 << 16) if downsets.is_downset(f)]
    assert len(closed) == 168  # the Dedekind number M(4)
    other = [f for f in (rng.getrandbits(16) for _ in range(400))
             if not downsets.is_downset(f)]
    assert len(other) > 300
    assert SP.render_teams(0) == []
    assert SP.render_teams(1) == ["{}"]
    assert SP.render_teams(0b1001) == ["{}", "{00,10}"]
    for family in closed + other:
        assert SP.render_teams(family) == _render_each(SP, family)


@pytest.mark.parametrize("size,nvars", [(2, 3), (3, 2), (2, 4)])
def test_render_teams_sampled(size, nvars):
    space = Space(size, nvars)
    rng = random.Random(space.count)
    families = [0, 1, space.powerset_mask(space.full_team)]
    families += _sampled_families(space, rng, 4 if space.count > 9 else 20)
    for family in families:
        assert space.render_teams(family) == _render_each(space, family)
