import pytest
from hypothesis import given, settings

from ifg import cli, games, syntax, trump
from ifg.downsets import Downsets
from ifg.errors import IfgError, GuardExceeded
from ifg.model import Structure, Space, bits
from teamsem import TeamSemantics

from test_syntax import nodes, signature

EQ2 = Structure(2)
CONST2 = Structure(2, constants={"c0": 0, "c1": 1})
EQ1 = Structure(1)

SAMPLE_TEXTS = [
    "v0=v1",
    "~(v0=v1)",
    "(v0=v1 \\/{} ~(v0=v1))",
    "(v0=v1 \\/{0,1} ~(v0=v1))",
    "(v0=v1 /\\{0} v0=v0)",
    "E v1/{} (v0=v1)",
    "E v1/{0} (v0=v1)",
    "A v0/{} E v1/{0} (v0=v1)",
    "A v0/{} E v1/{} (v0=v1)",
    "E v0/{} A v1/{1} (v0=v1)",
]


def sample_formulas():
    return [syntax.parse(t, 2) for t in SAMPLE_TEXTS]


# -- clause behaviour, on the per-team recursion of tests/teamsem.py -------------


def test_atomic_clause():
    ev = TeamSemantics(EQ2, 2)
    f = syntax.parse("v0=v1", 2)
    diag = ev.space.parse_team("00,11")
    assert ev.satisfies(f, diag, True)
    assert not ev.satisfies(f, diag | ev.space.parse_team("01"), True)
    assert ev.satisfies(f, ev.space.parse_team("01,10"), False)


def test_negation_swaps_signs():
    ev = TeamSemantics(EQ2, 2)
    f = syntax.parse("v0=v1", 2)
    g = syntax.parse("~(v0=v1)", 2)
    for team in range(1 << ev.space.count):
        for sign in (True, False):
            assert ev.satisfies(g, team, sign) == ev.satisfies(f, team, not sign)


def test_disjunction_slash_matters():
    ev = TeamSemantics(EQ2, 2)
    full = ev.space.full_team
    assert ev.satisfies(syntax.parse("(v0=v1 \\/{} ~(v0=v1))", 2), full, True)
    loose = syntax.parse("(v0=v1 \\/{0,1} ~(v0=v1))", 2)
    assert not ev.satisfies(loose, full, True)
    assert not ev.satisfies(loose, full, False)


def test_quantifier_slash_matters():
    ev = TeamSemantics(EQ2, 2)
    full = ev.space.full_team
    assert ev.satisfies(syntax.parse("E v1/{} (v0=v1)", 2), full, True)
    assert not ev.satisfies(syntax.parse("E v1/{0} (v0=v1)", 2), full, True)


# -- general properties ----------------------------------------------------------


def test_empty_team_satisfies_everything():
    ev = TeamSemantics(EQ2, 2)
    for f in sample_formulas():
        assert ev.satisfies(f, 0, True) and ev.satisfies(f, 0, False)


def test_downward_closure_and_noncontradiction():
    ev = trump.Evaluator(EQ2, 2)
    sp = ev.space
    for f in sample_formulas():
        m = ev.meaning(f)
        assert m.check()
        for mask in (m.plus, m.minus):
            for team in bits(mask):
                sub = team
                while sub:
                    sub = (sub - 1) & team
                    assert mask >> sub & 1
        assert m.plus & m.minus == 1


def test_double_negation():
    ev = trump.Evaluator(EQ2, 2)
    for f in sample_formulas():
        g = syntax.Formula(syntax.negate(syntax.negate(f.root)), 2)
        assert ev.meaning(f) == ev.meaning(g)


def test_sentence_truth_spreads_to_all_teams():
    ev = TeamSemantics(EQ2, 2)
    for f in sample_formulas():
        if not f.is_sentence():
            continue
        for sign in (True, False):
            values = {ev.satisfies(f, team, sign)
                      for team in range(1, 1 << ev.space.count)}
            assert len(values) == 1


def test_padding_adds_a_dummy_variable():
    small = Space(2, 1)
    big = Space(2, 2)
    texts = ["v0=c0", "E v0/{} (v0=c0)", "~(v0=c0 \\/{} v0=c1)"]
    for text in texts:
        f1 = syntax.parse(text, 1)
        f2 = syntax.parse(text, 2)
        ev1 = TeamSemantics(CONST2, 1)
        ev2 = TeamSemantics(CONST2, 2)
        for team in range(1 << small.count):
            padded = 0
            for i in range(big.count):
                if team >> big.decode(i)[0] & 1:
                    padded |= 1 << i
            for sign in (True, False):
                assert (ev1.satisfies(f1, team, sign)
                        == ev2.satisfies(f2, padded, sign))


def test_singleton_base_is_bivalent():
    ev = trump.Evaluator(EQ1, 2)
    for f in sample_formulas():
        m = ev.meaning(f)
        assert m.plus | m.minus == (1 << (1 << ev.space.count)) - 1


# counts 4, 8 and 9
BULK_CASES = [
    (EQ2, 2, SAMPLE_TEXTS),
    (signature(2), 3, [
        "(v0=c0 \\/{0} P(v1))",
        "E v2/{0,1} (v0=v2 \\/{1} v1=c1)",
        "A v0/{} E v2/{0} (v0=v2 /\\{2} ~P(v1))",
        "E v1/{0} (v0=v1 \\/{2} (v2=c0 /\\{0} v1=v2))",
        "A v2/{1} E v0/{2} (v0=v2)",
    ]),
    (signature(3), 2, [
        "(v0=c1 \\/{0} P(v1))",
        "E v1/{0} (v0=v1 \\/{1} v1=c0)",
        "A v0/{} E v1/{0} (v0=v1)",
        "A v1/{0} (v0=c \\/{1} E v0/{} (v0=v1))",
        "~E v0/{1} (S(v0,v1) /\\{0} ~v1=c0)",
    ]),
]


def _assert_bulk_matches(structure, nvars, node):
    ev = trump.Evaluator(structure, nvars)
    oracle = TeamSemantics(structure, nvars)
    for sign in (True, False):
        mask = ev.winning_mask(node, sign)
        for team in range(1 << ev.space.count):
            assert (mask >> team & 1) == oracle.satisfies(node, team, sign)


def test_bulk_matches_per_team():
    for structure, nvars, texts in BULK_CASES:
        for text in texts:
            _assert_bulk_matches(structure, nvars,
                                 syntax.parse(text, nvars).root)


@settings(max_examples=60, deadline=None)
@given(nodes.filter(lambda n: n.height <= 4))
def test_bulk_matches_per_team_count8_random(node):
    _assert_bulk_matches(signature(2), 3, node)


@settings(max_examples=20, deadline=None)
@given(nodes.filter(lambda n: n.height <= 4 and n.maxindex < 2))
def test_bulk_matches_per_team_count9_random(node):
    _assert_bulk_matches(signature(3), 2, node)


def test_bulk_matches_games_at_count_16(tmp_path, capsys):
    """The count-16 inputs that the per-team recursion could not finish."""
    text = "A v0/{} E v1/{0} (v0=v1)"
    for size, nvars in ((2, 4), (4, 2)):
        path = tmp_path / ("k%d.ifgs" % size)
        path.write_text("universe %d\n" % size)
        argv = ["-s", str(path), "-f", text, "-n", str(nvars)]
        assert cli.main(["meaning"] + argv) == 0
        assert cli.main(["truth"] + argv) == 0
        assert capsys.readouterr().out.endswith("\nundetermined\n")
        structure = Structure(size)
        formula = syntax.parse(text, nvars)
        m = trump.meaning(structure, formula)
        analyzer = games.GameAnalyzer(structure, nvars)
        assert m.plus == analyzer.winning_mask(formula.root, 1)
        assert m.minus == analyzer.winning_mask(formula.root, 0)


def test_meaning_output_at_count_16(tmp_path, capsys):
    """Every team of both parts, as the per-team rendering prints them."""
    text = "E v0/{} (v0=v1 \\/{} v2=v3)"
    path = tmp_path / "k2.ifgs"
    path.write_text("universe 2\n")
    assert cli.main(["meaning", "-s", str(path), "-f", text, "-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65539
    root = syntax.parse(text, 4).root
    analyzer = games.GameAnalyzer(Structure(2), 4)
    space = Space(2, 4)
    want = []
    for which, player in (("plus:", 1), ("minus:", 0)):
        want.append(which)
        want += [space.render_team(team)
                 for team in bits(analyzer.winning_mask(root, player))]
    assert lines == want


# -- meanings and truth values ------------------------------------------------------


def test_diagonal_meaning_value():
    ev = trump.Evaluator(EQ2, 2)
    sp = ev.space
    m = ev.meaning(syntax.parse("v0=v1", 2))
    assert m.plus == sp.powerset_mask(sp.parse_team("00,11"))
    assert m.minus == sp.powerset_mask(sp.parse_team("01,10"))
    text = m.render()
    assert text.splitlines()[0] == "plus:"
    assert "{00,11}" in text and "{10,01}" in text


def test_constant_meaning_value():
    ev = trump.Evaluator(Structure(3, constants={"c0": 0}), 1)
    sp = ev.space
    m = ev.meaning(syntax.parse("v0=c0", 1))
    assert m.plus == sp.powerset_mask(sp.parse_team("0"))
    assert m.minus == sp.powerset_mask(sp.parse_team("1,2"))


def test_truth_values():
    truth = games.GameAnalyzer(EQ2, 2).truth_value
    assert truth(syntax.parse("A v0/{} E v1/{} (v0=v1)", 2)) == "true"
    assert truth(syntax.parse("A v0/{} A v1/{} (v0=v1)", 2)) == "false"
    assert truth(syntax.parse("A v0/{} E v1/{0} (v0=v1)", 2)) == "undetermined"
    with pytest.raises(IfgError):
        truth(syntax.parse("v0=v1", 2))


def test_maximal_teams():
    maximal = Downsets(Space(2, 1)).maximal
    assert maximal(0b1) == [0]
    # team-set {0, {0}, {1}, {0,1}} has the single maximal team {0,1}
    assert maximal(0b1111) == [3]
    # {0, {0}, {1}} has two maximal teams
    assert maximal(0b111) == [1, 2]


def test_meaning_guard():
    ev = trump.Evaluator(Structure(5), 2)
    with pytest.raises(GuardExceeded):
        ev.meaning(syntax.parse("v0=v1", 2))


def test_dimension_mismatch():
    oracle = TeamSemantics(EQ2, 2)
    with pytest.raises(IfgError):
        oracle.satisfies(syntax.parse("v0=v0", 1), 0, True)
    # every public entry checks, the wider formula or node included
    ev = trump.Evaluator(EQ2, 1)
    wide = syntax.parse("E v1/{} (v1=v1)", 2)
    entries = [lambda f: ev.winning_mask(f, True), ev.element, ev.meaning]
    for entry in entries:
        with pytest.raises(IfgError, match="formula has 2 variables"):
            entry(wide)
        with pytest.raises(IfgError, match="index 1 out of range"):
            entry(wide.root)
    # a bare node needs only its indices to fit
    narrow = syntax.parse("E v0/{} (v0=v0)", 1).root
    two = trump.Evaluator(EQ2, 2)
    assert two.winning_mask(narrow, True) >> two.space.full_team & 1
    assert two.winning_mask(narrow, True) == two.element(narrow).plus
