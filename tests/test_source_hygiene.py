"""Dead-code guard for the package source: every import is used in its
module, and every top-level function or class is referenced somewhere in
src/ or serves a named paper check or caller outside it."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "flowpde"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# top-level names with no caller in src/, and what each one serves
SERVES_OUTSIDE_SRC = {
    "taylor_decompose": "the Taylor reconstruction identity (criterion 2, identities workload)",
    "shot_third_cumulant_oracle": "the shot-noise third-cumulant check of tests/test_noise.py",
    "preset": "model fixtures of the tests and of perfbench",
    "build_stationary_shift": "a field of the analysis that no solve reads, kept as the solver.shift "
    "patch point of perfbench/tracing.py until the benchmark drops that metric",
}


MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path):
    text = path.read_text()
    return text, ast.parse(text)


def _public_exports(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(text: str, tree) -> list:
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _public_exports(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and name not in exported:
                out.append(f"line {node.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(*_parse(path)) == []


def _references(tree) -> Counter:
    """Names referenced in a subtree, with their counts: loads of a bare
    name, attribute names and names imported from another module."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_top_level_definition_is_referenced():
    """A definition is referenced in src/ (outside its own body) or named
    in SERVES_OUTSIDE_SRC, never both: a stale table entry fails too.  The
    references are counted once over all modules; a definition's own body
    is subtracted from that count."""
    modules = {p.name: _parse(p)[1] for p in MODULES}
    counts = sum((_references(tree) for tree in modules.values()), Counter())
    wrong, defined = [], set()
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            referenced = counts[node.name] > _references(node)[node.name]
            if referenced == (node.name in SERVES_OUTSIDE_SRC):
                wrong.append(f"{module}: {node.name}")
    assert wrong == []
    assert set(SERVES_OUTSIDE_SRC) <= defined


def _patch_points() -> set:
    """(module, attribute) of every patch point in the tracer's
    PATCH_POINTS, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets
        ):
            return {(owner, attr) for owner, attr, *_ in ast.literal_eval(node.value)}
    raise AssertionError("no PATCH_POINTS list in the tracer")


def test_every_patch_only_import_is_a_patch_point():
    """An import kept unused under `noqa: F401` exists only for the tracer
    to patch, so the tracer must still name it; once it stops, the import
    is dead and this fails."""
    points = _patch_points()
    stale = []
    for path in MODULES:
        text, tree = _parse(path)
        lines = text.splitlines()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" in lines[node.lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if (f"flowpde.{path.stem}", name) not in points:
                        stale.append(f"{path.name} line {node.lineno}: {name}")
    assert stale == []


# complex full-grid spatial transforms, retired for the rfft half (the
# DFT contract of lattice.py); fft/ifft along one axis stay legal
RETIRED_TRANSFORMS = {"fftn", "ifftn", "forward_transform", "inverse_transform"}


def test_one_spatial_spectral_layout():
    """No module calls np.fft.fftn / ifftn or defines, imports or uses
    forward_transform / inverse_transform, and only LatticeSpec.k_half
    reads the full-grid |k| of LatticeSpec.k_norm: a second spatial layout
    cannot come back unnoticed."""
    found, full_grid_reads, k_half_reads = [], [], []
    for path in MODULES:
        tree = _parse(path)[1]
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)}
            if isinstance(node, (ast.ImportFrom, ast.Import)):
                names = {alias.name.split(".")[-1] for alias in node.names}
            for name in names & RETIRED_TRANSFORMS:
                found.append(f"{path.name} line {node.lineno}: {name}")
            if isinstance(node, ast.Attribute) and node.attr == "k_norm":
                full_grid_reads.append(f"{path.name} line {node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "k_half":
                k_half_reads += [
                    f"{path.name} line {sub.lineno}"
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr == "k_norm"
                ]
    assert found == []
    assert full_grid_reads == k_half_reads and len(k_half_reads) == 1
