"""The module layering model -> downsets -> algebra -> trump, and games
beside it on model alone; no assert statement in the package; no loop
over every team in the algebra and its kernels; and the choice of kernel
left to downsets.

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


def loaded_by(module):
    code = ("import sys; sys.path.insert(0, %r); import %s; "
            "print(' '.join(sys.modules))" % (str(SRC), module))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


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
