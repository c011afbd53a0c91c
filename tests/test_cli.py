import itertools
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ifg import cli, finlat, games, syntax
from ifg.finlat import named_algebra
from ifg.model import Space, Structure

EQ2_TEXT = "universe 2\n"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def eq2(tmp_path):
    path = tmp_path / "eq2.ifgs"
    path.write_text(EQ2_TEXT)
    return str(path)


def algebra_file(tmp_path, name):
    path = tmp_path / (name + ".ifga")
    path.write_text(named_algebra(name).render())
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


def test_truth_undetermined(eq2, capsys):
    code, out = run(capsys, ["truth", "-s", eq2, "-f",
                             "A v0/{} E v1/{0} (v0=v1)", "-n", "2"])
    assert code == 0 and out.out == "undetermined\n"


def test_eval_empty_team(eq2, capsys):
    code, out = run(capsys, ["eval", "-s", eq2, "-f", "v0=v0",
                             "-n", "1", "--team", ""])
    assert code == 0 and out.out == "+ yes\n- yes\n"


def test_meaning_diagonal(eq2, capsys):
    code, out = run(capsys, ["meaning", "-s", eq2, "-f", "v0=v1", "-n", "2"])
    assert code == 0
    assert out.out.splitlines() == [
        "plus:", "{}", "{00}", "{11}", "{00,11}",
        "minus:", "{}", "{10}", "{01}", "{10,01}"]


def test_game_strategy_output(eq2, capsys):
    code, out = run(capsys, ["game", "-s", eq2, "-f", "E v1/{} (v0=v1)",
                             "-n", "2", "--team", "00,10", "--player", "1"])
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == "winning strategy for player 1"
    assert all(line.startswith("pos=") for line in lines[1:])


def test_game_no_strategy(eq2, capsys):
    code, out = run(capsys, ["game", "-s", eq2, "-f",
                             "A v0/{} E v1/{0} (v0=v1)", "-n", "2",
                             "--team", "00,01,10,11"])
    assert code == 0 and out.out == "no winning strategy for player 1\n"


def test_algebra_gen_header(eq2, capsys):
    code, out = run(capsys, ["algebra-gen", "-s", eq2, "-n", "1"])
    assert code == 0
    assert out.out.splitlines()[0].startswith("base=2 dim=1 count=")


LAWS_OUT = (
    "absorption-bounds: holds, expected holds\n"
    "absorption-eq: fails, expected fails  [x + (x * y) != x, J=[] K=[]]\n"
    "absorption-flat: holds, expected holds\n"
    "absorption-full-slash: holds, expected holds\n"
    "associativity-mixed-eq: fails, expected fails  [sum J=[] K=[0]]\n"
    "associativity-nested-slash: holds, expected holds\n"
    "associativity-same-slash: holds, expected holds\n"
    "commutativity: holds, expected holds\n"
    "complement-criterion: holds, expected holds\n"
    "complement-suited: holds, expected holds\n"
    "cyl-chain: holds, expected holds\n"
    "cyl-commute: holds, expected holds\n"
    "cyl-constants: holds, expected holds\n"
    "cyl-diagonal: holds, expected holds\n"
    "cyl-diagonal-compose: holds, expected holds\n"
    "cyl-diagonal-split: holds, expected holds\n"
    "cyl-idempotent: holds, expected holds\n"
    "cyl-meet: holds, expected holds\n"
    "cyl-monotone: holds, expected holds\n"
    "cyl-product: holds, expected holds\n"
    "cyl-product-plus-eq: fails, expected fails"
    "  [C(x * C(y)) !=+ C(x) * C(y)]\n"
    "cyl-slash-antitone: holds, expected holds\n"
    "demorgan: holds, expected holds\n"
    "distributive-full-slash: holds, expected holds\n"
    "distributive-inclusion: holds, expected holds\n"
    "distributivity-eq: fails, expected fails  [x *_J (y +_K z), J=[] K=[]]\n"
    "excluded-middle: fails, expected fails  [x + ~x != 1]\n"
    "fixed-points: holds, expected holds\n"
    "full-slash-union: holds, expected holds\n"
    "kleene: holds, expected holds\n"
    "not-complemented: holds, expected holds\n"
    "not-complemented-suited: holds, expected holds\n"
    "omega-between: holds, expected holds\n"
    "omega-definable: holds, expected holds\n"
    "op-chain: holds, expected holds\n"
    "op-monotone: holds, expected holds\n"
    "order-from-ops: holds, expected holds\n"
    "rooted-annihilators: holds, expected holds\n"
    "rooted-bounds: holds, expected holds\n"
    "rooted-sum-grows: holds, expected holds\n"
    "slash-antitone: holds, expected holds\n"
    "unit-elements: holds, expected holds\n"
)


def test_laws_all(capsys):
    """Every verdict and the first counterexample of each law that fails."""
    code, out = run(capsys, ["laws"])
    assert code == 0 and out.out == LAWS_OUT


def test_laws_single(capsys):
    code, out = run(capsys, ["laws", "--law", "demorgan"])
    assert code == 0 and out.out == "demorgan: holds, expected holds\n"


def test_laws_unknown(capsys):
    code, out = run(capsys, ["laws", "--law", "no-such-law"])
    assert code == 1 and "error:" in out.err


def test_monadic_classify(tmp_path, capsys):
    code, out = run(capsys, ["monadic", "classify",
                             algebra_file(tmp_path, "K_nabla1")])
    assert code == 0
    lines = out.out.splitlines()
    assert "axioms: pass" in lines
    assert "type: type1 center=1" in lines
    assert "kleene: yes" in lines


def test_monadic_classify_refuses_before_printing(tmp_path, capsys):
    """The Kleene chain without a nabla: section prints nothing, not
    its carrier line, before the refusal."""
    path = tmp_path / "kleene.ifga"
    path.write_text(named_algebra("K_nabla1").render().split("nabla:")[0])
    code, out = run(capsys, ["monadic", "classify", str(path)])
    assert (code, out.out) == (1, "")
    assert out.err == "error: algebra file has no quantifier table\n"


def test_monadic_congruences(tmp_path, capsys):
    code, out = run(capsys, ["monadic", "congruences",
                             algebra_file(tmp_path, "B")])
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == "count 2" and lines[1] == "simple: yes"


def test_embed_success(tmp_path, capsys):
    code, out = run(capsys, ["embed", algebra_file(tmp_path, "K_nabla1")])
    assert code == 0
    assert out.out.splitlines()[0] == "base 1"


def test_embed_failure(tmp_path, capsys):
    code, out = run(capsys, ["embed", algebra_file(tmp_path, "K_nabla0")])
    assert code == 1 and "error:" in out.err


def test_selftest(capsys):
    code, out = run(capsys, ["selftest"])
    assert code == 0
    assert out.out.splitlines()[-1] == "37/37 passed"


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["nope"], ["truth", "-s", "x"], ["eval", "-s", "x",
                                                      "-f", "y", "-n", "z"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1
        capsys.readouterr()


def test_missing_file_exits_one(capsys):
    code, out = run(capsys, ["truth", "-s", "/no/such/file",
                             "-f", "v0=v0", "-n", "1"])
    assert code == 1 and "error:" in out.err


def test_bad_formula_exits_one(eq2, capsys):
    code, out = run(capsys, ["truth", "-s", eq2, "-f", "v0=", "-n", "1"])
    assert code == 1 and "error:" in out.err


def test_negative_sizes_exit_one(eq2, capsys):
    """A negative variable count or element cap is invalid input, refused
    with a message before any space is built."""
    for argv, message in (
            (["algebra-gen", "-s", eq2, "-n", "-1"], "nvars must be >= 0"),
            (["meaning", "-s", eq2, "-f", "v0=v0", "-n", "-1"],
             "nvars must be >= 0"),
            (["game", "-s", eq2, "-f", "v0=v0", "-n", "-1", "--team", ""],
             "nvars must be >= 0"),
            (["algebra-gen", "-s", eq2, "-n", "1", "--cap", "-1"],
             "cap must be >= 0")):
        code, out = run(capsys, argv)
        assert code == 1 and out.out == ""
        assert out.err == "error: %s\n" % message


@pytest.fixture
def k3(tmp_path):
    path = tmp_path / "k3.ifgs"
    path.write_text("universe 3\n")
    return str(path)


def test_team_commands_above_meaning_guard(k3, capsys):
    """Count 27: truth reads the game antichains over the full team and
    eval those over the valuations its team reaches; neither builds the
    algebra."""
    argv = ["-s", k3, "-f", "A v0/{} A v1/{} A v2/{} (v0=v0)", "-n", "3"]
    code, out = run(capsys, ["truth"] + argv)
    assert code == 0 and out.out == "true\n"
    code, out = run(capsys, ["eval"] + argv + ["--team", "000,111,222"])
    assert code == 0 and out.out == "+ yes\n- no\n"


def test_guard_exits_two(tmp_path, capsys):
    path = tmp_path / "big.ifgs"
    path.write_text("universe 5\n")
    code, out = run(capsys, ["meaning", "-s", str(path), "-f", "v0=v1",
                             "-n", "2"])
    assert code == 2 and "error:" in out.err


def test_truth_at_count_27(k3, capsys):
    """The per-team recursion never returned on the first sentence."""
    for text, verdict in (("A v0/{} E v1/{} (v0=v1)", "true"),
                          ("A v0/{} E v1/{0} (v0=v1)", "undetermined")):
        code, out = run(capsys, ["truth", "-s", k3, "-f", text, "-n", "3"])
        assert code == 0 and out.out == verdict + "\n"


def test_game_at_count_27(k3, capsys):
    """One ~J class per target: its candidates are sorted, not reduced."""
    text = "~~((v0=v1 /\\{0} v1=v2) /\\{} A v1/{0} v0=v1)"
    space = games.GameAnalyzer(Structure(3), 3).space
    team = ",".join(space.digits(i) for i in range(space.count))
    code, out = run(capsys, ["game", "-s", k3, "-f", text, "-n", "3",
                             "--team", team, "--player", "0"])
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == "winning strategy for player 0"
    ga = games.GameAnalyzer(Structure(3), 3)
    formula = syntax.parse(text, 3)
    won, strategy = ga.has_winning_strategy(formula, space.full_team, 0)
    assert won and lines[1:] == strategy.render().splitlines()
    assert ga.verify_strategy(formula, space.full_team, strategy)


def test_game_with_many_single_candidate_groups(k3, capsys):
    """On the full team the \\/ verifier meets 3**9 uniform picks of
    E v1/{0} against one right entry, each its own group: the reduction
    across them reads an inverted index instead of testing every pair."""
    text = "(E v1/{0} (v0=v1) \\/{} A v2/{1} ~(v0=v2))"
    full = ",".join("".join(d) for d in itertools.product("012", repeat=3))
    code, out = run(capsys, ["game", "-s", k3, "-f", text, "-n", "3",
                             "--team", full, "--player", "1"])
    assert code == 0 and out.out == "no winning strategy for player 1\n"


def test_game_strategy_on_the_classes_a_team_reaches(k3, capsys):
    """From 000,111,222 plays meet three ~{} classes at the \\/ and three
    ~{0} classes at the E: the strategy moves on those alone."""
    text = "(E v1/{0} (v0=v1) \\/{} A v2/{1} ~(v0=v2))"
    code, out = run(capsys, ["game", "-s", k3, "-f", text, "-n", "3",
                             "--team", "000,111,222", "--player", "1"])
    assert code == 0
    assert out.out.splitlines() == [
        "winning strategy for player 1",
        "pos=- class=000 -> left", "pos=- class=111 -> left",
        "pos=- class=222 -> left",
        "pos=1 class=*00 -> 0", "pos=1 class=*11 -> 1",
        "pos=1 class=*22 -> 2"]
    analyzer = games.GameAnalyzer(Structure(3), 3)
    formula = syntax.parse(text, 3)
    team = analyzer.space.parse_team("000,111,222")
    won, strategy = analyzer.has_winning_strategy(formula, team, 1)
    assert won and analyzer.verify_strategy(formula, team, strategy)


def test_truth_search_guard_exits_two(tmp_path, capsys):
    path = tmp_path / "k4.ifgs"
    path.write_text("universe 4\n")
    code, out = run(capsys, ["truth", "-s", str(path), "-f",
                             "A v0/{} E v1/{0} (v0=v1)", "-n", "3"])
    assert code == 2 and "strategy search space too large" in out.err


def test_large_valuation_counts_exit_two(eq2, capsys):
    """Spaces above SPACE_LIMIT valuations are refused before any mask of
    the space is built: 2**26 in truth, 2**40 in eval."""
    for argv in (["truth", "-s", eq2, "-f", "A v0/{} (v0=v0)", "-n", "26"],
                 ["eval", "-s", eq2, "-f", "A v0/{} (v0=v0)", "-n", "40",
                  "--team", ""]):
        start = time.perf_counter()
        code, out = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: ") and "exceed the limit" in out.err
        assert "Traceback" not in out.err


@pytest.fixture
def c2(tmp_path):
    path = tmp_path / "c2.ifgs"
    path.write_text("universe 2\nconstant c0 = 0\nconstant c1 = 1\n")
    return str(path)


def test_team_of_the_empty_valuation(c2, capsys):
    """At 0 variables the one valuation is written '()', as meaning
    prints it, and --team accepts it."""
    code, out = run(capsys, ["meaning", "-s", c2, "-f", "c0=c0", "-n", "0"])
    assert code == 0 and out.out == "plus:\n{}\n{()}\nminus:\n{}\n"
    code, out = run(capsys, ["eval", "-s", c2, "-f", "c0=c1", "-n", "0",
                             "--team", "()"])
    assert code == 0 and out.out == "+ no\n- yes\n"
    code, out = run(capsys, ["game", "-s", c2, "-f", "(c0=c1 \\/{} c0=c0)",
                             "-n", "0", "--team", "()", "--player", "1"])
    assert code == 0
    assert out.out == ("winning strategy for player 1\n"
                       "pos=- class=() -> right\n")
    code, out = run(capsys, ["eval", "-s", c2, "-f", "c0=c0", "-n", "0",
                             "--team", "0"])
    assert code == 1 and "bad valuation '0' for 0 variables" in out.err


def run_process(argv, limit_bytes=None, timeout=60):
    """python -m ifg.cli argv in a fresh interpreter: (exit, stdout, stderr)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "ifg.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit if limit_bytes else None)
    return proc.returncode, proc.stdout, proc.stderr


def test_every_command_in_a_fresh_process(eq2, tmp_path, capsys):
    """Each command imports its own modules when it runs; a fresh process
    has nothing loaded before, so a missing import shows here."""
    kleene = algebra_file(tmp_path, "K_nabla1")
    formula = ["-s", eq2, "-f", "A v0/{} E v1/{0} (v0=v1)", "-n", "2"]
    for argv in (["eval", "-s", eq2, "-f", "v0=v0", "-n", "1", "--team", ""],
                 ["truth"] + formula,
                 ["game"] + formula + ["--team", "00,11", "--player", "0"],
                 ["meaning", "-s", eq2, "-f", "v0=v1", "-n", "2"],
                 ["algebra-gen", "-s", eq2, "-n", "1"],
                 ["laws", "--law", "commutativity"],
                 ["monadic", "classify", kleene],
                 ["embed", kleene],
                 ["selftest"]):
        code, out, err = run_process(argv)
        assert "Traceback" not in err, argv
        in_process_code, in_process = run(capsys, argv)
        assert (code, out) == (in_process_code, in_process.out), argv


def test_class_table_limit_exits_two(tmp_path):
    """A ~J class table keeps one full-width mask per class.  With J
    empty at K=2 that is count**2 bits: 2**32 at N=16, the first N above
    CLASS_TABLE_LIMIT, whose table once took 3 s and 599 MB, and 2**36 at
    N=18, which ran out of memory.  Both are refused before any mask is
    built."""
    path = tmp_path / "u2.ifgs"
    path.write_text("universe 2\n")
    text = "A v0/{} E v1/{0} (v0=v1 \\/{} ~v1=v0)"
    for nvars in (16, 18):
        start = time.perf_counter()
        code, out, err = run_process(["truth", "-s", str(path), "-f", text,
                                      "-n", str(nvars)],
                                     limit_bytes=1 << 30, timeout=30)
        assert time.perf_counter() - start < 20
        assert code == 2 and out == ""
        assert err == ("error: the ~J classes for J = {} need %d masks of %d "
                       "bits, above the limit of %d bits\n"
                       % (1 << nvars, 1 << nvars, 1 << 30))


def test_class_tables_refused_before_any_atom_mask(tmp_path, capsys):
    """At N=18 the atom masks alone once took 2 s before the first class
    table was refused; the tables are checked when the query starts."""
    path = tmp_path / "u2.ifgs"
    path.write_text("universe 2\n")
    start = time.perf_counter()
    code, out = run(capsys, ["truth", "-s", str(path), "-f",
                             "A v0/{} E v1/{0} (v0=v1 \\/{} ~v1=v0)",
                             "-n", "18"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and "the ~J classes for J = {}" in out.err


def _all_valuations(size, nvars):
    return ",".join("".join(d) for d in itertools.product(
        "0123456789"[:size], repeat=nvars))


def test_eval_inputs_that_hung_answer_in_seconds(tmp_path):
    """eval on these ran past 20-30 s on the per-team recursion."""
    cases = [(3, 3, "A v0/{} E v1/{} (v0=v1)", "+ yes\n- no\n"),
             (4, 2, "~E v1/{} ~E v1/{} ~v0=v1", "+ yes\n- no\n"),
             (4, 3, "A v0/{} E v1/{0} (v0=v1)", "+ no\n- no\n")]
    for size, nvars, text, verdicts in cases:
        path = tmp_path / ("k%d.ifgs" % size)
        path.write_text("universe %d\n" % size)
        argv = ["eval", "-s", str(path), "-f", text, "-n", str(nvars),
                "--team", _all_valuations(size, nvars)]
        start = time.perf_counter()
        code, out, err = run_process(argv, timeout=5)
        assert time.perf_counter() - start < 5
        assert code in (0, 2) and "Traceback" not in err
        assert out == verdicts if code == 0 else (
            "strategy search space too large" in err)
    # the verdicts of the first two are those of the full-team search
    for size, nvars, text, verdicts in cases[:2]:
        formula = syntax.parse(text, nvars)
        full = Space(size, nvars).full_team
        want = "".join("%s %s\n" % (sign, "yes" if games.has_winning_strategy(
            Structure(size), formula, full, player)[0] else "no")
            for sign, player in (("+", 1), ("-", 0)))
        assert want == verdicts


def test_pennies_from_one_valuation(tmp_path):
    """At K=4, N=3 the search over every valuation meets 4**16 picks at
    E v1/{0}; from 000 plays reach one ~{0} class of four options."""
    path = tmp_path / "k4.ifgs"
    path.write_text("universe 4\n")
    argv = ["-s", str(path), "-f", "A v0/{} E v1/{0} (v0=v1)", "-n", "3",
            "--team", "000"]
    for player in (1, 0):
        code, out, err = run_process(["game"] + argv
                                     + ["--player", str(player)], timeout=5)
        assert (code, out) == (0, "no winning strategy for player %d\n"
                               % player)
    code, out, err = run_process(["eval"] + argv, timeout=5)
    assert (code, out) == (0, "+ no\n- no\n")


def test_eval_prints_no_verdict_when_one_is_refused(tmp_path, capsys):
    """At K=3, N=11 the E's take plays from 0...0 to 3**8 valuations by
    v8.  Player 1 moves on one ~J class at each E (J holds every
    variable); player 0 moves at the A v8/{}, whose reach meets 3**8
    classes of J = {}, one mask of 3**11 bits each: eval exits 2 with
    neither verdict, not with + alone."""
    path = tmp_path / "u3.ifgs"
    path.write_text("universe 3\n")
    every = ",".join(str(k) for k in range(11))
    text = ("".join("E v%d/{%s} " % (k, every) for k in range(8))
            + "A v8/{} (v0=v8)")
    code, out = run(capsys, ["eval", "-s", str(path), "-f", text,
                             "-n", "11", "--team", "0" * 11])
    assert code == 2 and out.out == ""
    assert out.err == ("error: the ~J classes for J = {} need %d masks of %d "
                       "bits, above the limit of %d bits\n"
                       % (3 ** 8, 3 ** 11, 1 << 30))
    analyzer = games.GameAnalyzer(Structure(3), 11)
    assert analyzer.wins(syntax.parse(text, 11), 1, 1) in (True, False)


def test_small_team_in_a_large_space_answers(tmp_path):
    """From one valuation at N=16 plays meet at most 4 valuations; the
    search once refused the ~{} classes of the whole space instead."""
    path = tmp_path / "u2.ifgs"
    path.write_text("universe 2\n")
    code, out, err = run_process(["eval", "-s", str(path), "-f",
                                  "A v0/{} E v1/{} (v0=v1)", "-n", "16",
                                  "--team", "0" * 16], timeout=5)
    assert (code, out, err) == (0, "+ yes\n- no\n", "")


def test_wide_exists_answers_in_seconds(tmp_path):
    """E v1/{} over 2**15 singleton classes once took 17-23 s."""
    path = tmp_path / "u2.ifgs"
    path.write_text("universe 2\n")
    code, out, err = run_process(["truth", "-s", str(path), "-f",
                                  "A v0/{} E v1/{} (v0=v1)", "-n", "15"],
                                 timeout=10)
    assert (code, out, err) == (0, "true\n", "")


def test_verifier_over_two_large_antichains_is_refused_at_once(tmp_path):
    """Each E below has 2**16 entries, so the \\/ pairs 2**32 of them; the
    guard refuses before the pairs are made."""
    path = tmp_path / "u2.ifgs"
    path.write_text("universe 2\n")
    code, out, err = run_process(
        ["eval", "-s", str(path), "-f",
         "(E v1/{0,1} (v0=v1) \\/{} E v1/{0,1} (v0=v1))", "-n", "6",
         "--team", _all_valuations(2, 6)], limit_bytes=1 << 30, timeout=5)
    assert (code, out) == (2, "")
    assert "strategy search space too large" in err
