#!/usr/bin/env python
"""Static invariant checks over ``src/repro`` — tier-1 CI gate.

Four repo-wide conventions are load-bearing enough to enforce
mechanically rather than by review:

**Percentile invariant.**  Latency percentiles are nearest-rank, never
interpolated, and every consumer must go through a sanctioned kernel —
``repro.sim.metrics.percentile`` (the shared metric kernel), the
P²-estimator's small-sample fallback in ``repro.monitoring.streaming``,
and the reissue kernel's own-window threshold in
``repro.baselines.routing`` (the one site adaptive kernels also feed
from).  A raw ``np.percentile`` anywhere else silently reintroduces
linear interpolation and breaks the golden pins; exactly one raw call
is allowed per sanctioned file.

**Seeding invariant.**  All randomness flows from named
``repro.rng.RngRegistry`` streams so every run is reproducible from the
root seed.  Unseeded generators (``np.random.default_rng()`` with no
argument), the global legacy API (``np.random.seed``,
``np.random.<dist>(...)``), wall-clock seeding (``time.time()`` mixed
into seeds) and ``random.random``-style stdlib draws are all banned in
library code.

**Layering invariant.**  Layering runs one way: the control plane
(``repro.controlplane``) sits on top of the simulator, and only it and
the CLI (``cli.py``) may import it.  Exactly one upward import is
sanctioned: the lazy ``ControlLoop`` import in
``ExperimentRunner.control_loop`` (``sim/runner.py``), which builds the
loop the runner delegates to.

**Batch-invariance invariant.**  An Eq. 1 prediction, and so an entry
of the performance matrix, must not depend on which other rows share
its batch.  A BLAS product (``@``, ``dot``, ``matmul``) can round
differently by batch shape, and ``np.vander`` exists to feed one, so
none of them may appear in ``PolynomialRegressor.predict``
(``model/regression.py``) or anywhere in ``model/matrix.py``.

Violations print ``path:line: message`` and exit 1, so the CI log
points straight at the offending statement.  Run from the repo root::

    python scripts/check_invariants.py

An alternative source root can be passed as the sole argument (the
self-test exercises the checker against synthetic trees that way).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Files allowed exactly one raw ``np.percentile`` call each.
PERCENTILE_SANCTIONED = {
    "sim/metrics.py": 1,        # the shared nearest-rank kernel
    "monitoring/streaming.py": 1,  # P2Quantile's <=5-observation fallback
    "baselines/routing.py": 1,  # ReissueKernel's own-window threshold
}

PERCENTILE_CALL = re.compile(r"\bnp\.percentile\s*\(")

#: (pattern, message) pairs banned everywhere under src/repro.
SEEDING_BANS = [
    (
        re.compile(r"\bnp\.random\.default_rng\s*\(\s*\)"),
        "unseeded np.random.default_rng() — draw from a named "
        "RngRegistry stream instead",
    ),
    (
        re.compile(r"\bnp\.random\.seed\s*\("),
        "np.random.seed mutates global state — use RngRegistry",
    ),
    (
        re.compile(r"\bRandomState\s*\("),
        "legacy np.random.RandomState — use RngRegistry streams",
    ),
    (
        re.compile(
            r"\bnp\.random\.(rand|randn|randint|random|choice|shuffle|"
            r"permutation|uniform|normal|exponential|poisson)\s*\("
        ),
        "global legacy np.random API — use RngRegistry streams",
    ),
    (
        re.compile(r"\bimport\s+random\b|\bfrom\s+random\s+import\b"),
        "stdlib random module — use RngRegistry streams",
    ),
    (
        re.compile(r"seed\s*=\s*(int\s*\(\s*)?time\.(time|time_ns)\s*\("),
        "wall-clock seeding breaks reproducibility — seeds come from "
        "the config",
    ),
]


#: Top-level entries under src/repro allowed to import the control plane.
CONTROLPLANE_IMPORTERS = ("controlplane/", "cli.py")

#: (file, enclosing function, imported module) of the one sanctioned
#: upward import of the control plane.
CONTROLPLANE_SANCTIONED = {
    ("sim/runner.py", "ExperimentRunner.control_loop", "repro.controlplane.loop"),
}

UPWARD_PACKAGE = "repro.controlplane"

#: Batch-invariant scopes: file -> qualified function name, or None
#: for the whole file.
BATCH_INVARIANT_SCOPES = {
    "model/matrix.py": None,
    "model/regression.py": "PolynomialRegressor.predict",
}

#: Attribute calls banned in those scopes, besides the ``@`` operator.
BLAS_CALLS = ("dot", "matmul", "vander")


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """Absolute module names an import statement pulls in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        parts = package.split(".")
        base = ".".join(parts[: len(parts) - node.level + 1])
        module = f"{base}.{node.module}" if node.module else base
    else:
        module = node.module or ""
    # ``from repro import controlplane`` names the package as an alias.
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _upward_imports(tree: ast.AST, package: str):
    """``(lineno, enclosing qualname, module)`` for every import of the
    control plane in ``tree``."""
    found = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for module in _imported_modules(child, package):
                    if module == UPWARD_PACKAGE or module.startswith(
                        UPWARD_PACKAGE + "."
                    ):
                        found.append((child.lineno, ".".join(scope), module))
                        break
            inner = scope
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(tree, ())
    return found


def check_layering(path: Path, src_root: Path) -> tuple[list[str], set]:
    """Upward-import violations in one file, plus the sanctioned sites
    it uses."""
    rel = path.relative_to(src_root).as_posix()
    if rel.startswith(CONTROLPLANE_IMPORTERS):
        return [], set()
    package = ".".join(["repro", *rel.split("/")[:-1]])
    tree = ast.parse(path.read_text(), filename=str(path))
    violations, used = [], set()
    for lineno, scope, module in _upward_imports(tree, package):
        site = (rel, scope, module)
        if site in CONTROLPLANE_SANCTIONED and site not in used:
            used.add(site)
            continue
        violations.append(
            f"{path}:{lineno}: upward import of {module} — only "
            f"repro.controlplane and cli.py may import the control plane"
        )
    return violations, used


def check_batch_invariance(path: Path, src_root: Path) -> tuple[list[str], bool]:
    """BLAS products inside a batch-invariant scope of one file, and
    whether the file's scoped function was found (always True for a
    whole-file scope or a file without one)."""
    rel = path.relative_to(src_root).as_posix()
    if rel not in BATCH_INVARIANT_SCOPES:
        return [], True
    scope = BATCH_INVARIANT_SCOPES[rel]
    tree = ast.parse(path.read_text(), filename=str(path))
    violations: list[str] = []
    seen = scope is None

    def visit(node: ast.AST, qual: tuple) -> None:
        nonlocal seen
        for child in ast.iter_child_nodes(node):
            inner = qual
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                inner = qual + (child.name,)
            name = ".".join(inner)
            seen = seen or name == scope
            if scope is None or name == scope or name.startswith(scope + "."):
                what = None
                if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(
                    child.op, ast.MatMult
                ):
                    what = "@"
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in BLAS_CALLS
                ):
                    what = child.func.attr
                if what is not None:
                    violations.append(
                        f"{path}:{child.lineno}: {what} in "
                        f"{scope or rel} — a BLAS product can round by "
                        f"batch shape; evaluate elementwise so predictions "
                        f"stay batch-invariant"
                    )
            visit(child, inner)

    visit(tree, ())
    return violations, seen


def iter_source_files(src_root: Path) -> list[Path]:
    if not src_root.is_dir():
        print(f"{src_root}: source tree not found", file=sys.stderr)
        sys.exit(2)
    return sorted(src_root.rglob("*.py"))


def strip_comment(line: str) -> str:
    """Drop a trailing ``#`` comment (good enough: the conventions
    never put banned calls inside string literals on purpose, and a
    false positive fails loudly rather than silently)."""
    return line.split("#", 1)[0]


def check_file(path: Path, src_root: Path) -> list[str]:
    rel = path.relative_to(src_root).as_posix()
    violations: list[str] = []
    percentile_lines: list[int] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = strip_comment(raw)
        if PERCENTILE_CALL.search(line):
            percentile_lines.append(lineno)
        for pattern, message in SEEDING_BANS:
            if pattern.search(line):
                violations.append(f"{path}:{lineno}: {message}")
    allowed = PERCENTILE_SANCTIONED.get(rel, 0)
    if len(percentile_lines) > allowed:
        for lineno in percentile_lines[allowed:] if allowed else percentile_lines:
            violations.append(
                f"{path}:{lineno}: raw np.percentile outside the "
                f"sanctioned sites — go through repro.sim.metrics."
                f"percentile (nearest-rank) instead"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src_root = Path(args[0]).resolve() if args else DEFAULT_SRC_ROOT
    enforce_sanctioned = src_root == DEFAULT_SRC_ROOT
    violations: list[str] = []
    missing = []
    seen_raw: dict[str, int] = {}
    used_sites: set = set()
    found_scopes: set = set()
    files = iter_source_files(src_root)
    for path in files:
        violations.extend(check_file(path, src_root))
        layering, used = check_layering(path, src_root)
        violations.extend(layering)
        used_sites |= used
        rel = path.relative_to(src_root).as_posix()
        blas, scope_found = check_batch_invariance(path, src_root)
        violations.extend(blas)
        if scope_found:
            found_scopes.add(rel)
        if rel in PERCENTILE_SANCTIONED:
            n = sum(
                1
                for raw in path.read_text().splitlines()
                if PERCENTILE_CALL.search(strip_comment(raw))
            )
            seen_raw[rel] = n
    # The sanctioned sites must still exist: if one disappears (the
    # kernel moved), the allowlist is stale and must be updated here.
    # Only enforced against the real tree — synthetic self-test trees
    # have no business containing the kernels.
    if enforce_sanctioned:
        for rel, expected in PERCENTILE_SANCTIONED.items():
            if seen_raw.get(rel, 0) != expected:
                missing.append(
                    f"{src_root / rel}: expected exactly {expected} "
                    f"sanctioned raw np.percentile call(s), found "
                    f"{seen_raw.get(rel, 0)} — update PERCENTILE_SANCTIONED "
                    f"in scripts/check_invariants.py if the kernel moved"
                )
        for rel, scope, module in sorted(CONTROLPLANE_SANCTIONED - used_sites):
            missing.append(
                f"{src_root / rel}: sanctioned import of {module} in "
                f"{scope} not found — update CONTROLPLANE_SANCTIONED in "
                f"scripts/check_invariants.py if it moved"
            )
        for rel, scope in sorted(BATCH_INVARIANT_SCOPES.items()):
            if rel not in found_scopes:
                missing.append(
                    f"{src_root / rel}: batch-invariant scope "
                    f"{scope or 'whole file'} not found — update "
                    f"BATCH_INVARIANT_SCOPES in scripts/check_invariants.py "
                    f"if it moved"
                )
    problems = violations + missing
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(
            f"\ncheck_invariants: {len(problems)} violation(s)",
            file=sys.stderr,
        )
        return 1
    print(f"check_invariants: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
