"""The module layering model -> downsets -> algebra -> trump, and games
beside it on model alone; what the command line loads (truth and eval
the game search only); no assert statement in the package; no loop over
every team in the algebra and its kernels; and the choice of kernel left
to downsets.

Each module is imported in a fresh interpreter, which must not load any
module above it in that order.  The game search must load none of
downsets, algebra and trump, or the tests that check it against the fold
would check the fold against itself.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ORDER = ["ifg.model", "ifg.downsets", "ifg.algebra", "ifg.trump"]


def loaded_after(code):
    """Modules held by a fresh interpreter after it runs code."""
    code = ("import sys; sys.path.insert(0, %r)\n%s\n"
            "print(' '.join(sys.modules))" % (str(SRC), code))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


def loaded_by(module):
    return loaded_after("import %s" % module)


def test_no_module_imports_one_above_it():
    for i, module in enumerate(ORDER):
        loaded = loaded_by(module)
        assert module in loaded
        assert not loaded & set(ORDER[i + 1:]), module


def test_games_is_independent_of_the_fold():
    """The game search shares only model with the fold it is checked
    against."""
    loaded = loaded_by("ifg.games")
    assert "ifg.games" in loaded
    assert not loaded & set(ORDER[1:])


# Modules that a command which runs none of them should not pay to load:
# dataclasses and inspect (with ast, dis and tokenize) cost more to import
# than the game search costs on small inputs.
NOT_AT_START = {"dataclasses", "inspect", "ifg.selftest", "ifg.finlat",
                "ifg.algebra", "ifg.downsets", "ifg.trump"}


def test_cli_loads_only_what_the_parser_needs():
    bare = loaded_after("")
    assert not (loaded_by("ifg.cli") - bare) & NOT_AT_START


def _loaded_by_command(tmp_path, argv):
    path = tmp_path / "eq2.ifgs"
    path.write_text("universe 2\n")
    return loaded_after(
        "from ifg import cli\n"
        "code = cli.main(%r + ['-s', %r, '-f', 'A v0/{} E v1/{0} (v0=v1)',"
        " '-n', '2'])\n"
        "if code: sys.exit(code)" % (argv, str(path)))


def test_truth_loads_only_the_game_search(tmp_path):
    loaded = _loaded_by_command(tmp_path, ["truth"])
    assert "ifg.games" in loaded
    assert not loaded & {m for m in NOT_AT_START if m.startswith("ifg.")}


def test_eval_loads_only_the_game_search(tmp_path):
    """eval answers from the game search too, and loads none of the fold."""
    loaded = _loaded_by_command(tmp_path, ["eval", "--team", "00,11"])
    assert "ifg.games" in loaded
    assert not loaded & {"ifg.trump", "ifg.algebra", "ifg.downsets"}


def test_package_loads_no_dataclasses_or_typing():
    bare = loaded_after("")
    loaded = loaded_after("import ifg.cli, ifg.selftest, ifg.finlat, "
                          "ifg.trump, ifg.games")
    assert not (loaded - bare) & {"dataclasses", "inspect", "typing"}


def test_no_assert_in_the_package():
    """Invariants are checked by raising, so that they survive python -O."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted((SRC / "ifg").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def test_no_team_by_team_loop_in_the_algebra():
    """No loop over range(1 << ...) in algebra and downsets: walking every
    team one at a time is left to the per-team oracle."""
    found = ["%s:%d" % (name, node.lineno)
             for name in ("algebra.py", "downsets.py")
             for node in ast.walk(ast.parse((SRC / "ifg" / name).read_text()))
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.iter, ast.Call)
             and getattr(node.iter.func, "id", None) == "range"
             and any(isinstance(arg, ast.BinOp)
                     and isinstance(arg.op, ast.LShift)
                     for arg in node.iter.args)]
    assert not found


def test_kernel_choice_lives_in_downsets():
    """algebra pairs the coordinates of Downsets.sum, exists and
    exists_minus; which kernel runs on which team set is decided only in
    downsets."""
    kernels = {"or_plus", "exists_plus", "exists_blocks"}
    tree = ast.parse((SRC / "ifg" / "algebra.py").read_text())
    found = ["algebra.py:%d %s" % (node.lineno, name)
             for node in ast.walk(tree)
             for name in (getattr(node, "attr", None),
                          getattr(node, "id", None))
             if name in kernels]
    assert not found
