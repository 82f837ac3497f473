"""Documentation health: internal links resolve and the CLI answers.

The CI docs job runs this file plus a ``python -m repro --help`` smoke
pass; keeping it in tier-1 means a moved file or renamed heading breaks
the build immediately rather than rotting in the docs.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every tracked markdown document with internal links worth checking.
DOCUMENTS = [
    REPO_ROOT / "README.md",
    REPO_ROOT / "docs" / "ARCHITECTURE.md",
    REPO_ROOT / "src" / "repro" / "smt" / "README.md",
    REPO_ROOT / "ROADMAP.md",
]

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _anchor(heading: str) -> str:
    """GitHub's heading-to-anchor slug (enough of it for our docs)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def _links(document: Path):
    for match in _LINK.finditer(document.read_text()):
        yield match.group(1)


class TestInternalLinks:
    def test_documents_exist(self):
        for document in DOCUMENTS:
            assert document.is_file(), f"missing document: {document}"

    def test_relative_links_resolve(self):
        for document in DOCUMENTS:
            for target in _links(document):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, fragment = target.partition("#")
                if path_part:
                    resolved = (document.parent / path_part).resolve()
                    assert resolved.exists(), (
                        f"{document.relative_to(REPO_ROOT)} links to "
                        f"{target!r}, which does not exist"
                    )
                    target_file = resolved
                else:
                    target_file = document
                if fragment and target_file.suffix == ".md":
                    anchors = {
                        _anchor(h) for h in _HEADING.findall(target_file.read_text())
                    }
                    assert fragment in anchors, (
                        f"{document.relative_to(REPO_ROOT)} links to anchor "
                        f"#{fragment} missing from {target_file.name}"
                    )

    def test_readme_mentions_the_cli_flags(self):
        text = (REPO_ROOT / "README.md").read_text()
        for needle in ("python -m repro", "--format json"):
            assert needle in text


class TestCliSmoke:
    def test_module_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "subcommands" in result.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["--jobs", "2"],
            ["--cache-dir", "store"],
            ["serve", "--cache-dir", "store"],
            ["serve", "--max-sessions", "4"],
            ["--no-static-prepass"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_retired_flags_are_rejected(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["repro", *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
