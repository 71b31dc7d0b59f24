"""Print the physical lines and the code lines of each Python file of a
package, and their totals; the package is src/moldkit unless a directory
is given:

    python tests/src_lines.py [DIR]

A code line is a line that holds part of a token other than a comment, a
docstring, an indent or a line break, so blank lines, comment lines and
docstring lines are not code.  A docstring is a string that is a
statement by itself.  Only the standard library (tokenize) is used.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def line_counts(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python file."""
    with open(path, "rb") as f:
        tokens = [tok for tok in tokenize.tokenize(f.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    code: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(path.read_bytes().splitlines()), len(code)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "moldkit"
    root = Path(argv[1]) if len(argv) > 1 else default
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no Python files under {root}", file=sys.stderr)
        return 1
    total_physical = total_code = 0
    print(f"{'physical':>8} {'code':>6}  file")
    for path in files:
        physical, code = line_counts(path)
        total_physical += physical
        total_code += code
        print(f"{physical:>8} {code:>6}  {path.relative_to(root)}")
    print(f"{total_physical:>8} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
