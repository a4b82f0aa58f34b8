"""Print the code lines of each `src/rnnmf` module and their total.

A code line is a line that holds part of a token other than a comment, a
docstring or layout (newlines, indentation): blank lines, comment lines and
docstrings do not count. A docstring is a statement that is nothing but a
string literal. Run from the root of a checkout:

    python3 tools/loc.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rnnmf"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    lines: set = set()
    statement: list = []  # the current statement's non-layout tokens
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)
    return len(lines)


def main():
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
