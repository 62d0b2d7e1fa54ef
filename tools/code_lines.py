"""Count the code lines of the package: lines of `src/splitloop/*.py` that
hold a token, leaving out docstrings, comments and blank lines.

    python tools/code_lines.py [FOLDER]

prints each module's count and the total, of FOLDER or else of the
package next to this script. A statement or string spread over several
lines counts each of them; a docstring is the string that opens a module,
class or function body.
"""

import ast
import io
import os
import sys
import tokenize
from glob import glob

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of source that hold a token outside every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    folder = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "splitloop")
    total = 0
    for path in sorted(glob(os.path.join(folder, "*.py"))):
        with open(path) as source:
            count = code_lines(source.read())
        print(f"{count:6d}  {os.path.basename(path)}")
        total += count
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
