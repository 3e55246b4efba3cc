"""The three routes to an ASM's polynomial stay independent.  `verify`
compares the prism route, the ideal route and the pipe-dream route, so a
route that read another's results would be checked against itself.  The
prism and ideal modules may import only the shared base layers; the
pipe-dream route, `pipedream` with the permutations of `perm`, already
imports `prism` for the tableau-to-diagram map, and is not checked here."""

import ast
from pathlib import Path

import pytest

import asmprism

PACKAGE = Path(asmprism.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def package_imports(source: Path) -> set[str]:
    """The package modules that a module's source imports, whatever the
    import's form (relative, absolute, or ``from . import name``)."""
    found = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found |= {p[1] for p in parts if p[0] == "asmprism" and len(p) > 1}
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "asmprism":
                    continue
                path = path[1:]
            found |= {path[0]} if path and path[0] else {alias.name for alias in node.names}
    return found & MODULES


@pytest.mark.parametrize("route", ["prism", "ideal"])
def test_route_imports_no_other_route(route):
    imports = package_imports(PACKAGE / f"{route}.py")
    assert "asm" in imports
    assert not imports & {"perm", "pipedream", "prism", "ideal"}


def test_the_scan_sees_every_import_form(tmp_path):
    route = tmp_path / "route.py"
    route.write_text(
        "import os\n"
        "import asmprism.perm\n"
        "from asmprism import pipedream\n"
        "from asmprism.ideal import multidegree\n"
        "from . import algebra, asm\n"
        "from .prism import asm_polynomial\n"
    )
    assert package_imports(route) == {"perm", "pipedream", "ideal", "algebra", "asm", "prism"}
