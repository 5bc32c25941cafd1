"""Module boundaries of `qfv`, read from the source with `ast`.

The counting recursions (`betti`) and the routes that check them (`ffmod`
by point counts over F_p, `gkm` by the moment graph) must stay apart, or
their agreement shows nothing.

One shared piece is known: `gkm.build_gkm_graph` reads
`RowMultiTableau._rank("geometric")` and the label classes
(`RowMultiTableau._label_classes`), the rank table and the pairs that
`cell_dim` uses too.  Criterion 6 stays an independent check because it
counts tangent directions from their definition (`_tangent_weights` in
the acceptance suite), not through `_rank` or the classes.
"""
import ast
from pathlib import Path

import qfv

SRC = Path(qfv.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _short(name: str) -> str:
    """The `qfv` module that an imported name comes from."""
    if name in MODULES:
        return name
    return getattr(qfv, name).__module__.rsplit(".", 1)[1]


def qfv_imports(module: str) -> set[str]:
    """The `qfv` modules that `module` imports, relatively or by package
    name, anywhere in its source."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level:  # the package is flat: `.` is `qfv`
                path = ["qfv", *filter(None, path)]
            if path == ["qfv"]:
                out.update(_short(alias.name) for alias in node.names)
                continue
            paths = [path]
        else:
            continue
        out.update(path[1] for path in paths if path[0] == "qfv" and len(path) > 1)
    return out


def names_used(module: str) -> set[str]:
    """Every name and attribute that the code of `module` reads."""
    out = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_betti_imports_only_cyclic_core():
    assert qfv_imports("betti") == {"cyclic_core"}


def test_the_checking_routes_never_import_betti():
    for module in ("ffmod", "gkm"):
        imports = qfv_imports(module)
        assert "betti" not in imports and "tableaux" in imports, module
    # the reader sees `from . import betti` as well as `from .betti import`
    assert "betti" in qfv_imports("cli")


def test_ffmod_reads_no_cell_statistic_or_recursion():
    assert not names_used("ffmod") & {"d_tau", "cell_dim", "f_graded"}
    assert "cell_dim" in names_used("cli")
