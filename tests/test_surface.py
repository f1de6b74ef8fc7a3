"""No src/ function or method is reached by the tests alone.

Tier-1 twin of the CI docs job's surface step (``tools/check_surface.py``).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
CHECKER = REPO / "tools" / "check_surface.py"


def check(checker=CHECKER):
    return subprocess.run(
        [sys.executable, str(checker)], capture_output=True, text=True
    )


def test_repo_has_no_unexplained_test_only_surface():
    proc = check()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("OK:")


def test_checker_flags_an_uncalled_method(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "class Log:\n"
        "    def used(self):\n"
        "        return 1\n\n"
        "    def lonely(self):\n"
        "        return 2\n\n\n"
        "Log().used()\n",
        encoding="utf-8",
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Log\n\nLog().lonely()\n", encoding="utf-8"
    )
    # A copy of the checker checks the tree it sits in: this fixture.
    (tmp_path / "tools").mkdir()
    proc = check(shutil.copy(CHECKER, tmp_path / "tools"))
    assert proc.returncode == 1
    assert "Log.lonely is reached only by tests" in proc.stdout
    assert "Log.used" not in proc.stdout
    # A kept name this tree does not define is a stale entry.
    assert "which the census no longer flags" in proc.stdout


def test_checker_censuses_undecorated_classes(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def register(cls):\n"
        "    return cls\n\n\n"
        "@register\n"
        "class Registered:\n"
        "    pass\n\n\n"
        "class Unused:\n"
        '    """Only ``Unused`` itself names it."""\n\n\n'
        "class Used:\n"
        "    pass\n\n\n"
        "Used()\n",
        encoding="utf-8",
    )
    (tmp_path / "tools").mkdir()
    proc = check(shutil.copy(CHECKER, tmp_path / "tools"))
    assert "src/pkg/mod.py:10: Unused is reached only by tests" in proc.stdout
    # A registry-decorated class is reached through its decorator.
    assert "Registered" not in proc.stdout
    assert "Used is" not in proc.stdout


#: One mention of ``target`` each: where, what, and whether it reaches it.
MENTIONS = [
    ("call", "src/pkg/use.py", "from .mod import target\n\ntarget()\n", True),
    ("attribute", "src/pkg/use.py", "import pkg.mod\n\npkg.mod.target()\n", True),
    ("keyword", "src/pkg/use.py", "dict(target=1)\n", True),
    ("identifier-string", "src/pkg/use.py", 'getattr(object, "target", None)\n', True),
    ("docstring-doctest", "src/pkg/use.py", '"""Doctest.\n\n>>> target()\n"""\n', True),
    ("python-fence", "README.md", "```python\ntarget()\n```\n", True),
    ("shell-fence", "docs/guide.md", "```sh\npython -c target\n```\n", True),
    ("markdown-doctest", "docs/guide.md", "Run it:\n\n>>> target()\n", True),
    ("example", "examples/demo.py", "from pkg.mod import target\n\ntarget()\n", True),
    ("perfbench-patch", "perfbench/hook.py", 'setattr(object, "target", None)\n', True),
    ("docstring", "src/pkg/use.py", '"""Call target() for nothing."""\n', False),
    ("comment", "src/pkg/use.py", "# target is unused\n", False),
    ("dunder-all", "src/pkg/use.py", '__all__ = ["target"]\n', False),
    ("re-export", "src/pkg/use.py", "from .mod import target  # noqa: F401\n", False),
    ("sentence-string", "src/pkg/use.py", 'x = "call target now"\n', False),
    ("markdown-prose", "README.md", "Call `target()` in prose.\n", False),
    ("tests-only", "tests/test_use.py", "from pkg.mod import target\n\ntarget()\n", False),
]


@pytest.mark.parametrize(
    "where,text,reaches",
    [pytest.param(*case, id=name) for name, *case in MENTIONS],
)
def test_what_counts_as_a_reference(tmp_path, where, text, reaches):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def target():\n    return 1\n", encoding="utf-8"
    )
    path = tmp_path / where
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    (tmp_path / "tools").mkdir()
    proc = check(shutil.copy(CHECKER, tmp_path / "tools"))
    flagged = "target is reached only by tests" in proc.stdout
    assert flagged is not reaches, proc.stdout

