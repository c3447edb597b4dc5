"""Every fenced ``python`` and ``console`` snippet in the user-facing
docs executes, verbatim and in document order.

Each document runs in its own sandbox directory seeded with symlinks
into the repository (``src`` as a directory symlink for ``PYTHONPATH``;
``benchmarks`` as a real directory of per-file symlinks so relative
paths like ``../baseline.jsonl`` stay inside the sandbox).  ``python``
blocks share one namespace per document and ``console`` blocks run
``$ ``-prefixed lines through bash with a ``python`` shim on ``PATH``
— so a reader pasting the docs top to bottom gets exactly what CI ran.
``bash`` and ``text`` fences are display-only by convention.
"""

import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "docs" / "USER_GUIDE.md", REPO / "docs" / "COOKBOOK.md"]

FENCE_RE = re.compile(r"^```(\w*)\s*$")
HEREDOC_RE = re.compile(r"<<\s*'?(\w+)'?")


@dataclass
class Block:
    language: str
    text: str
    line: int  # 1-based line of the opening fence, for failure messages


def extract_blocks(path: Path) -> list[Block]:
    blocks, language, start, body = [], None, 0, []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        m = FENCE_RE.match(line)
        if m and language is None:
            language, start, body = m.group(1) or "text", i, []
        elif line.strip() == "```" and language is not None:
            blocks.append(Block(language, "\n".join(body), start))
            language = None
        elif language is not None:
            body.append(line)
    assert language is None, f"{path.name}: unterminated fence at line {start}"
    return blocks


def console_commands(block: Block) -> list[str]:
    """The ``$ ``-prefixed commands of a console block, with heredoc
    bodies attached; other lines are illustrative output."""
    commands, lines = [], block.text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.startswith("$ "):
            continue
        command = line[2:]
        heredoc = HEREDOC_RE.search(command)
        if heredoc:
            parts = [command]
            while i < len(lines):
                parts.append(lines[i])
                i += 1
                if parts[-1].strip() == heredoc.group(1):
                    break
            command = "\n".join(parts)
        commands.append(command)
    return commands


def make_sandbox(root: Path) -> Path:
    """A scratch tree the snippets can dirty freely.

    ``src`` is a directory symlink (imports only, never written).
    ``benchmarks`` is a *real* directory of file symlinks: a process
    that ``cd``-s into it keeps its cwd inside the sandbox, so
    relative output paths cannot escape into the repository.
    """
    sandbox = root / "sandbox"
    sandbox.mkdir()
    (sandbox / "src").symlink_to(REPO / "src")
    bench = sandbox / "benchmarks"
    bench.mkdir()
    for entry in (REPO / "benchmarks").iterdir():
        if entry.is_file():
            (bench / entry.name).symlink_to(entry)
    shim = sandbox / ".bin"
    shim.mkdir()
    for alias in ("python", "python3"):
        (shim / alias).symlink_to(sys.executable)
    return sandbox


def sandbox_env(sandbox: Path) -> dict:
    env = dict(os.environ)
    env["PATH"] = str(sandbox / ".bin") + os.pathsep + env.get("PATH", "")
    env.pop("PYTHONPATH", None)  # snippets must set it themselves
    return env


@pytest.fixture(scope="module", params=[d.name for d in DOCS])
def document(request, tmp_path_factory):
    path = next(d for d in DOCS if d.name == request.param)
    sandbox = make_sandbox(tmp_path_factory.mktemp(path.stem))
    state = {"namespace": {}, "env": sandbox_env(sandbox)}
    sys_path, modules = list(sys.path), set(sys.modules)
    yield path, sandbox, state
    # Undo snippet side effects on this process (Recipe 5 imports a
    # generated bench module from the sandbox, for example).  Only
    # sandbox-resident modules are evicted: anything else (numpy,
    # repro.*) is shared machinery that must not be re-imported.
    sys.path[:] = sys_path
    for name in set(sys.modules) - modules:
        module_file = getattr(sys.modules[name], "__file__", "") or ""
        if module_file and not Path(module_file).is_absolute():
            module_file = str(sandbox / module_file)
        if module_file.startswith(str(sandbox)):
            del sys.modules[name]


def run_python_block(block: Block, doc: Path, sandbox: Path, namespace: dict):
    code = compile(block.text, f"{doc.name}:{block.line}", "exec")
    cwd = os.getcwd()
    os.chdir(sandbox)
    try:
        exec(code, namespace)
    finally:
        os.chdir(cwd)


def run_console_block(block: Block, doc: Path, sandbox: Path, env: dict):
    for command in console_commands(block):
        proc = subprocess.run(
            ["bash", "-ec", command], cwd=sandbox, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (
            f"{doc.name}:{block.line}: `{command.splitlines()[0]}` exited "
            f"{proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
        )


def test_documents_have_executable_blocks(document):
    path, _, _ = document
    blocks = extract_blocks(path)
    runnable = [b for b in blocks if b.language in ("python", "console")]
    assert len(runnable) >= 4, f"{path.name} has too few executable snippets"
    assert any(b.language == "console" for b in runnable)
    for b in blocks:
        assert b.language in ("python", "console", "bash", "text"), \
            f"{path.name}:{b.line}: unknown fence language {b.language!r}"
    for b in blocks:
        if b.language == "console":
            assert console_commands(b), \
                f"{path.name}:{b.line}: console block with no `$ ` commands"


@pytest.mark.slow
def test_every_snippet_executes(document):
    """The whole document, in order, against one shared sandbox."""
    path, sandbox, state = document
    for block in extract_blocks(path):
        if block.language == "python":
            run_python_block(block, path, sandbox, state["namespace"])
        elif block.language == "console":
            run_console_block(block, path, sandbox, state["env"])
