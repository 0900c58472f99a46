"""Print the total and code lines of ``src/entot``: ``<total> <code>``.

A code line is one that is not blank, not only a comment (``tokenize``) and
not part of a docstring (``ast``: a module, class or function body whose
first statement is a string constant). Run from anywhere:
``python tools/code_lines.py``.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entot"


def counts(text: str) -> tuple[int, int]:
    """(total, code) lines of one module's source."""
    lines = text.splitlines()
    skip = {i for i, line in enumerate(lines, start=1) if not line.strip()}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
            skip.add(tok.start[0])
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skip)


if __name__ == "__main__":
    totals = [counts(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    print(sum(t for t, _ in totals), sum(c for _, c in totals))
