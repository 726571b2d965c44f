"""The README's references to package names stay true."""

import importlib
import pathlib
import re

import kantorov

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(p.stem for p in pathlib.Path(kantorov.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))


def _module_references(text: str) -> set:
    """Every ``module.name`` in an inline code span, for the package's modules."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    pattern = re.compile(r"(?<![\w.])(" + "|".join(MODULES) + r")\.(\w+)")
    return {ref for span in re.findall(r"`([^`]+)`", text) for ref in pattern.findall(span)}


def test_readme_names_only_what_exists():
    refs = _module_references(README.read_text(encoding="utf-8"))
    assert ("moduli", "_scan_grid") in refs
    missing = sorted(f"{mod}.{name}" for mod, name in refs
                     if not hasattr(importlib.import_module(f"kantorov.{mod}"), name))
    assert missing == []


def test_references_are_found_in_code_spans_only():
    text = ("walks `moduli._pair_blocks` and `kantorovich._ladder(f)`, not `np.max`,\n"
            "```\nmoduli.omega9\n```\nnor moduli.omega8 outside a span")
    assert _module_references(text) == {("moduli", "_pair_blocks"), ("kantorovich", "_ladder")}
