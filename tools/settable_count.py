"""Count the settable values and the lines of the library source.

A settable value is a function parameter other than self or cls (lambdas
included) or a field of a dataclass.  Both counts cover src/lowrank_rep;
fewer settable values means fewer knobs a caller can turn.  Stdlib only:

    python3 tools/settable_count.py
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lowrank_rep"


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def settable_values(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            count += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def main(src=SRC):
    files = sorted(Path(src).glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    settable = sum(settable_values(ast.parse(text)) for text in texts)
    lines = sum(len(text.splitlines()) for text in texts)
    print(f"settable_values={settable}")
    print(f"src_lines={lines}")


if __name__ == "__main__":
    main(*sys.argv[1:])
