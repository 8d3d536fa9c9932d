"""Print the size of the simulator's source: total and code lines per module
of `src/nemosim`, both sums, and the number of settable config keys (the
leaves of `ScenarioConfig`).

A code line holds something other than blanks, comments and docstrings (the
string that opens a module, class or function body).  Run from the
repository root:

    python scripts/loc.py
"""

import ast
import io
import sys
import tokenize
from dataclasses import is_dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nemosim"
sys.path.insert(0, str(SRC.parent))

from nemosim.scenario import ScenarioConfig, _walk  # noqa: E402


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's text."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main() -> None:
    totals = [0, 0]
    for path in sorted(SRC.glob("*.py")):
        total, code = count(path.read_text(encoding="utf-8"))
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<16}{total:>6}{code:>6}")
    print(f"{'total':<16}{totals[0]:>6}{totals[1]:>6}")
    keys = sum(not is_dataclass(value) for _, _, value in _walk(ScenarioConfig()))
    print(f"settable config keys: {keys}")


if __name__ == "__main__":
    main()
