"""Count code lines: lines carrying a non-comment token, docstrings excluded.

The measure the EXPERIMENTS.md code-line tables use ("PR 12's method").
``python tools/code_lines.py [PATH ...]`` prints one total per path (a
file, or a directory walked for ``*.py``); with no argument, one line
per package under ``src/repro`` and the ``src`` total.
"""

import ast
import io
import os
import sys
import tokenize

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def total(path: str) -> int:
    if os.path.isfile(path):
        return code_lines(path)
    return sum(code_lines(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names if name.endswith(".py"))


if __name__ == "__main__":
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sys.argv[1:] or [os.path.join(root, "repro", name)
                             for name in sorted(os.listdir(os.path.join(root, "repro")))] + [root]
    for path in paths:
        print(f"{total(path):7d}  {os.path.relpath(path)}")
