"""A module-level function that nothing names is dead code: it is tested by
nobody's use and kept in step with nothing."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "gapfill"


def _sources() -> dict[Path, list[str]]:
    return {path: path.read_text().splitlines()
            for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py")}


def test_every_module_level_function_is_named_outside_its_definition():
    sources = _sources()
    unnamed = []
    for module in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("\n".join(sources[module])).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            named = any(word.search(line) for path, lines in sources.items()
                        for k, line in enumerate(lines)
                        if not (path == module and first <= k < node.end_lineno))
            if not named:
                unnamed.append(f"{module.name}:{node.lineno} {node.name}")
    assert not unnamed, f"functions named nowhere but in their own definition: {unnamed}"
