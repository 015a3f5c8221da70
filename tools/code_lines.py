"""Count the code, docstring, comment and blank lines of each ``src/longtail_lab`` module.

    python3 tools/code_lines.py [FILE ...]

Prints one line for each module, sorted by name, and a total. A docstring line
is any line of a module, class or function docstring, found with ``ast``. A
comment line holds only a comment, and a blank line only whitespace, outside a
docstring. Every other line is code, so the four counts of a file sum to its
``wc -l``.
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "longtail_lab"


def docstring_lines(tree) -> set:
    """The line numbers spanned by each module, class and function docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict:
    """{"code", "docstring", "comment", "blank"} line counts of the Python source ``text``."""
    docs = docstring_lines(ast.parse(text))
    code_rows = set()  # lines that hold a token other than a comment or a line break
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code_rows.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif number in code_rows:
            kind = "code"
        elif not line.strip():
            kind = "blank"
        else:
            kind = "comment"
        counts[kind] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="Python files to count (default: every src/longtail_lab module)")
    args = parser.parse_args(argv)
    paths = args.files or sorted(SRC.glob("*.py"))
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    print(f"{'code':>6} {'docstring':>9} {'comment':>7} {'blank':>6} {'lines':>6}  file")
    for path in paths:
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind, count in counts.items():
            total[kind] += count
        print(f"{counts['code']:>6} {counts['docstring']:>9} {counts['comment']:>7} "
              f"{counts['blank']:>6} {sum(counts.values()):>6}  {path.name}")
    print(f"{total['code']:>6} {total['docstring']:>9} {total['comment']:>7} "
          f"{total['blank']:>6} {sum(total.values()):>6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
