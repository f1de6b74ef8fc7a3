"""No src/ function or method is reached by the tests alone.

Tier-1 twin of the CI docs job's surface step (``tools/check_surface.py``).
"""

import shutil
import subprocess
import sys
from pathlib import Path

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
