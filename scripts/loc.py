#!/usr/bin/env python
"""Count code lines: ROADMAP aim 2's measuring stick.

A *code line* is a physical line carrying at least one token that is not
a comment, not blank, and not part of a docstring (a string literal that
is a whole statement).  Counting by tokenizer, not by ``wc -l``, keeps
the figure honest when a PR trades docstrings for code or the reverse.

Prints one total per top-level directory (``src``, ``scripts``,
``benchmarks`` by default) and the grand total; ``benchmarks/twall/`` is
excluded because no PR may edit it.  With ``--files``, also prints every
file's count (diff two runs to get a per-file delta).

Run:  python scripts/loc.py [--files] [DIR ...]   (or ``make loc``)
"""

import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ("src", "scripts", "benchmarks")
EXCLUDED = (ROOT / "benchmarks" / "twall",)

_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """Physical lines of ``path`` that carry code."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in _IGNORED]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring: the string is the whole statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    per_file = "--files" in argv
    dirs = [a for a in argv if a != "--files"] or list(DEFAULT_DIRS)
    grand = 0
    for name in dirs:
        files = sorted(p for p in (ROOT / name).rglob("*.py")
                       if not any(x in p.parents for x in EXCLUDED))
        counts = {p: code_lines(p) for p in files}
        if per_file:
            for p, n in counts.items():
                print(f"{n:7d}  {p.relative_to(ROOT)}")
        total = sum(counts.values())
        grand += total
        print(f"{total:7d}  {name}/  ({len(files)} files)")
    print(f"{grand:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
