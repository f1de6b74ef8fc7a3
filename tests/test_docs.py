"""The teaching docs cannot rot: links resolve, snippets run.

Tier-1 twin of the CI docs job: the Markdown link/fence checker
(``tools/check_docs.py``) plus a real doctest pass over the runnable
``>>>`` snippets in README.md, docs/FEDERATION.md, docs/PERFORMANCE.md,
docs/POLICIES.md, docs/SERVICE.md and docs/WORKLOADS.md — the same numbers
CI re-executes with ``python -m doctest``.
"""

import doctest
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


class TestDocsChecker:
    def test_check_docs_passes(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("OK:")

    def test_checker_catches_broken_links(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "see [missing](docs/NOPE.md)\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "check_docs.py"),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "broken link" in proc.stdout

    def test_checker_catches_broken_anchor(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text(
            "# Guide\n\n## Real Section\n", encoding="utf-8"
        )
        (tmp_path / "README.md").write_text(
            ">>> 1\n1\n\nsee [a](docs/GUIDE.md#real-section) "
            "and [b](docs/GUIDE.md#gone-section)\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "check_docs.py"),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "broken anchor" in proc.stdout
        assert "#gone-section" in proc.stdout
        assert "#real-section" not in proc.stdout

    def test_checker_catches_unresolved_repro_name(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text(
            "`repro.machines.Machine` lives in `repro.machines.nope`\n",
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(">>> 1\n1\n", encoding="utf-8")
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "check_docs.py"),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "`repro.machines.nope` does not resolve" in proc.stdout
        assert "`repro.machines.Machine`" not in proc.stdout

    def test_checker_validates_same_page_fragments(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            ">>> 1\n1\n\n## Alpha\n\njump to [nowhere](#beta)\n",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "check_docs.py"),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "broken anchor" in proc.stdout

    def test_slugs_match_github_rules(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            from check_docs import github_slug, heading_anchors
        finally:
            sys.path.pop(0)
        assert github_slug("1. Concepts: shards, the gateway") == (
            "1-concepts-shards-the-gateway"
        )
        assert github_slug("WAN `LinkChannel` energy") == "wan-linkchannel-energy"
        text = "# Dup\n\n# Dup\n\n```python\n# not a heading\n```\n"
        assert heading_anchors(text) == {"dup", "dup-1"}

    def test_checker_catches_vanished_doctests(self, tmp_path):
        # A README without any >>> snippet must fail the gate, not pass
        # vacuously.
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text("no snippets\n", encoding="utf-8")
        (tmp_path / "docs" / "FEDERATION.md").write_text(
            "none here either\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "check_docs.py"),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "doctest" in proc.stdout


@pytest.mark.parametrize(
    "document",
    [
        "README.md",
        "docs/FEDERATION.md",
        "docs/PERFORMANCE.md",
        "docs/POLICIES.md",
        "docs/SERVICE.md",
        "docs/WORKLOADS.md",
    ],
    ids=["readme", "guide", "performance", "policies", "service", "workloads"],
)
def test_doctest_snippets_execute(document):
    results = doctest.testfile(
        str(REPO / document), module_relative=False, verbose=False
    )
    assert results.attempted > 0, f"{document}: no doctest examples found"
    assert results.failed == 0, (
        f"{document}: {results.failed}/{results.attempted} doctest "
        "example(s) failed — the documented outputs no longer match the code"
    )
