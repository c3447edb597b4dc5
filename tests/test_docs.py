"""The documentation stays true: every bench script PAPER_MAP.md names
exists, every bench script is mapped, the EXPERIMENTS.md codes it
references are real headings, README links every doc, every relative
markdown link resolves, the public pipeline/campaign/wallclock/
collective-pattern docstring examples pass as doctests, the latest
code-line row of EXPERIMENTS.md is what ``tools/code_lines.py``
counts, every CHANGES.md entry is short and points at EXPERIMENTS.md,
and EXPERIMENTS.md's contents list its headings."""

import doctest
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ARCHITECTURE = REPO / "docs" / "ARCHITECTURE.md"
PAPER_MAP = REPO / "docs" / "PAPER_MAP.md"
USER_GUIDE = REPO / "docs" / "USER_GUIDE.md"
COOKBOOK = REPO / "docs" / "COOKBOOK.md"
README = REPO / "README.md"
EXPERIMENTS = REPO / "EXPERIMENTS.md"

#: Public modules whose docstring examples are part of the documented
#: surface — their doctests run here even when CI's broader
#: --doctest-modules pass is not in play.
DOCTESTED_MODULES = [
    "repro.pipeline",
    "repro.pipeline.distributions",
    "repro.pipeline.driver",
    "repro.pipeline.stages",
    "repro.campaign.spec",
    "repro.obs.wallclock",
    "repro.simmpi.patterns",
    "repro.core.hashtable",
    "repro.core.celltable",
]


def test_docs_exist():
    assert ARCHITECTURE.is_file()
    assert PAPER_MAP.is_file()
    assert USER_GUIDE.is_file()
    assert COOKBOOK.is_file()


def test_readme_links_every_doc():
    text = README.read_text()
    assert "docs/ARCHITECTURE.md" in text
    assert "docs/PAPER_MAP.md" in text
    assert "docs/USER_GUIDE.md" in text
    assert "docs/COOKBOOK.md" in text


def test_relative_markdown_links_resolve():
    """Every relative link in the markdown corpus points at a real
    file (anchors stripped; external URLs out of scope)."""
    corpus = [README, EXPERIMENTS, *sorted((REPO / "docs").glob("*.md"))]
    broken = []
    for doc in corpus:
        for target in re.findall(r"\]\(([^)]+)\)", doc.read_text()):
            if target.startswith(("http://", "https://", "#")):
                continue
            path = target.split("#", 1)[0]
            if not (doc.parent / path).exists():
                broken.append(f"{doc.relative_to(REPO)} -> {target}")
    assert not broken, "broken relative links:\n" + "\n".join(broken)


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_public_docstring_examples(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module_name} has no doctests"
    assert result.failed == 0


def test_every_mapped_bench_script_exists():
    named = set(re.findall(r"benchmarks/(bench_\w+\.py)", PAPER_MAP.read_text()))
    assert named, "PAPER_MAP.md names no bench scripts"
    missing = sorted(s for s in named if not (REPO / "benchmarks" / s).is_file())
    assert not missing, f"PAPER_MAP.md names nonexistent bench scripts: {missing}"


def test_every_bench_script_is_mapped():
    on_disk = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
    named = set(re.findall(r"benchmarks/(bench_\w+\.py)", PAPER_MAP.read_text()))
    unmapped = sorted(on_disk - named)
    assert not unmapped, f"bench scripts missing from PAPER_MAP.md: {unmapped}"


def test_experiments_codes_are_real_headings():
    # The map's last column uses the `##` heading codes of
    # EXPERIMENTS.md (T5, F4/F5, S21b, "Ablations", ...).
    headings = EXPERIMENTS.read_text()
    codes = set()
    for line in PAPER_MAP.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 4 and cells[0] not in ("paper artifact", "study") \
                and not set(cells[0]) <= {"-", " "}:
            codes.update(cells[-1].split("/") if "/" in cells[-1] else [cells[-1]])
    codes.discard("")
    for code in sorted(codes):
        assert re.search(rf"^## .*\b{re.escape(code)}\b", headings, re.M), \
            f"EXPERIMENTS.md has no heading for {code!r}"


def test_mapped_modules_import():
    # Every `repro.*` dotted name in both docs must be importable — the
    # docs may not reference modules that have been moved or renamed.
    import importlib

    names = set()
    for doc in (ARCHITECTURE, PAPER_MAP):
        names.update(re.findall(r"`(repro(?:\.\w+)+)`", doc.read_text()))
    assert names
    for name in sorted(names):
        mod = name
        # Trailing attribute like repro.core.CellTable: import the parent.
        parts = name.split(".")
        if parts[-1][0].isupper():
            mod = ".".join(parts[:-1])
        importlib.import_module(mod)


def _code_lines():
    """``tools/code_lines.py`` as a module (``tools`` is no package)."""
    spec = importlib.util.spec_from_file_location("code_lines", REPO / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_latest_code_line_row_is_what_the_counter_prints():
    # The code-line tables of EXPERIMENTS.md end in "all of `src/`" and
    # "all of `benchmarks/`" rows; the last of each is the tree as
    # committed, by the counter the tables cite.  A PR that changes
    # either tree adds its row.
    for tree in ("src", "benchmarks"):
        rows = re.findall(rf"^\| all of `{tree}/` \|.*\| ([\d ]+\d)[^|]*\|$",
                          EXPERIMENTS.read_text(), re.M)
        assert rows, f"EXPERIMENTS.md has no `all of {tree}/` code-line row"
        counted = _code_lines().total(str(REPO / tree))
        assert int(rows[-1].replace(" ", "")) == counted, (
            f"EXPERIMENTS.md's latest `all of {tree}/` row says {rows[-1]}, "
            f"`python tools/code_lines.py {tree}` counts {counted}: add this change's row")


def test_changes_entries_are_short_from_pr_21_on():
    # ROADMAP item 7: an entry says what changed, the one claimed
    # number, what was re-blessed and where the detail lives.  The rule
    # started at PR 21 (hence the name); it now holds every entry, the
    # detail of PRs 1-20 having moved under EXPERIMENTS.md's headings.
    entries = re.findall(r"^- PR (\d+): (.*)$", (REPO / "CHANGES.md").read_text(), re.M)
    assert [int(number) for number, _ in entries] == list(range(1, len(entries) + 1))
    for number, text in entries:
        assert len(text) <= 600, f"CHANGES.md PR {number}: {len(text)} characters, cap 600"
        assert "EXPERIMENTS.md" in text, f"CHANGES.md PR {number} names no EXPERIMENTS.md section"


def _slug(heading: str) -> str:
    """The anchor a markdown renderer gives a heading."""
    return re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")


def test_experiments_contents_lists_every_heading():
    # The contents block (between "**Contents**" and the first rule)
    # lists every `##` section and `###` study outside code fences, in
    # order, indented by level, each linked to its heading's anchor.
    text = EXPERIMENTS.read_text()
    headings, fenced = [], False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and (m := re.match(r"(##|###) (.*)$", line)):
            headings.append((len(m.group(1)) - 2, m.group(2), _slug(m.group(2))))
    block = text.split("**Contents**", 1)[1].split("\n---\n", 1)[0]
    listed = [(len(indent) // 2, title, anchor) for indent, title, anchor
              in re.findall(r"^( *)- \[(.*)\]\(#(.*)\)$", block, re.M)]
    assert headings and listed == headings
