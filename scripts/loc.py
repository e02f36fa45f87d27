#!/usr/bin/env python
"""Count code lines: ROADMAP aim 2's measuring stick.

A *code line* is a physical line carrying at least one token that is not
a comment, not blank, and not part of a docstring (a string literal that
is a whole statement).  Counting by tokenizer, not by ``wc -l``, keeps
the figure honest when a PR trades docstrings for code or the reverse.

Prints one total per argument, a directory or a single file (``src``,
``scripts``, ``benchmarks`` by default) and the grand total; ``benchmarks/twall/`` is
excluded because no PR may edit it.  With ``--files``, also prints every
file's count.  With ``--against REV``, prints the code-line delta versus
a git revision instead — every file whose count moved, then each
directory and the total as ``before -> after (delta)`` — reading the
revision's blobs with ``git show`` (no checkout): the size report a
simplicity PR owes, in one command.

Run:  python scripts/loc.py [--files] [--against REV] [DIR|FILE ...]
      (or ``make loc``, ``make loc AGAINST=HEAD~1``)
"""

import io
import pathlib
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ("src", "scripts", "benchmarks")
EXCLUDED = (ROOT / "benchmarks" / "twall",)

_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    """Physical lines of ``source`` that carry code."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
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


def _counted(path: str) -> bool:
    return (path.endswith(".py")
            and not any(x in (ROOT / path).parents for x in EXCLUDED))


def tree_counts(name: str) -> dict[str, int]:
    """``{repo-relative path: code lines}`` of the working tree's ``name``:
    the file itself, or every ``.py`` file under the directory."""
    top = ROOT / name
    paths = sorted(p.relative_to(ROOT).as_posix()
                   for p in ([top] if top.is_file() else top.rglob("*.py")))
    return {p: code_lines((ROOT / p).read_bytes())
            for p in paths if _counted(p)}


def rev_counts(rev: str, name: str) -> dict[str, int]:
    """The same for git revision ``rev``, read from its blobs."""
    def git(*args: str) -> bytes:
        return subprocess.run(("git", *args), cwd=ROOT, check=True,
                              capture_output=True).stdout

    listed = git("ls-tree", "-r", "--name-only", rev, "--", name)
    return {p: code_lines(git("show", f"{rev}:{p}"))
            for p in listed.decode().splitlines() if _counted(p)}


def main(argv: list[str]) -> int:
    argv = list(argv)
    per_file = "--files" in argv
    against = None
    if "--against" in argv:
        at = argv.index("--against")
        if at + 1 >= len(argv):
            print("error: --against takes a git revision", file=sys.stderr)
            return 2
        against = argv[at + 1]
        del argv[at:at + 2]
    dirs = [a for a in argv if a != "--files"] or list(DEFAULT_DIRS)
    grand = grand_before = 0
    for name in dirs:
        counts = tree_counts(name)
        label = name if (ROOT / name).is_file() else f"{name}/"
        total = sum(counts.values())
        grand += total
        if against is None:
            if per_file:
                for path, n in counts.items():
                    print(f"{n:7d}  {path}")
            print(f"{total:7d}  {label}  ({len(counts)} files)")
            continue
        before = rev_counts(against, name)
        for path in sorted(set(before) | set(counts)):
            was, now = before.get(path, 0), counts.get(path, 0)
            if was != now:
                print(f"{now - was:+7d}  {path}  ({was} -> {now})")
        was = sum(before.values())
        grand_before += was
        print(f"{total - was:+7d}  {label}  ({was} -> {total})")
    if against is None:
        print(f"{grand:7d}  total")
    else:
        print(f"{grand - grand_before:+7d}  total vs {against}  "
              f"({grand_before} -> {grand})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
