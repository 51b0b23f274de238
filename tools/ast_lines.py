"""Line counts of the twrelay package, split by kind.

Prints total/code/docstring/comment/blank for each module under
src/twrelay/ and a TOTAL row:

    python tools/ast_lines.py [PACKAGE_DIR]

Docstring lines are those spanned by module, class and function
docstrings (found with `ast`), blank lines inside them included. Outside
the docstrings a line is a comment if it starts with `#` after its
indentation, blank if it holds only whitespace, and code otherwise, so a
code line with a trailing comment counts as code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Counts of one module's lines by kind."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        counts["total"] += 1
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "twrelay"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'TOTAL':<16}" + "".join(f"{total[kind]:>10}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
