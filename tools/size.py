"""Size of the package: lines and code tokens per module of ``src/psemigroups``.

    python3 tools/size.py [package-dir]

Lines are physical lines, as ``wc -l`` counts them.  Code tokens are the
tokens of the stdlib ``tokenize`` module, less these:

- comments;
- layout tokens: ENCODING, NEWLINE, NL, INDENT, DEDENT and ENDMARKER;
- docstrings: the string constant that opens a module, class or function
  body, every token of it.

Any other string, including a string statement elsewhere, counts as one
token.  The output is one row per module, sorted by name, then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.ENCODING,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(
                    ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
                )
    return spans


def code_tokens(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    spans = _docstring_spans(source)
    with path.open("rb") as f:
        return sum(
            1
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in LAYOUT
            and not any(start <= tok.start and tok.end <= end for start, end in spans)
        )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "psemigroups"
    total_lines = total_tokens = 0
    print(f"{'module':<20}{'lines':>8}{'tokens':>8}")
    for path in sorted(package.glob("*.py")):
        lines = len(path.read_bytes().splitlines())
        tokens = code_tokens(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<20}{lines:>8}{tokens:>8}")
    print(f"{'total':<20}{total_lines:>8}{total_tokens:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
