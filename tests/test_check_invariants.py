"""The static invariant checker (`scripts/check_invariants.py`) is
itself a tier-1 gate, so it gets a self-test: clean on the real tree,
loud (file:line, exit 1) on synthetic violations."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_invariants.py"


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_real_tree_is_clean():
    proc = _run()
    assert proc.returncode == 0, proc.stderr
    assert "check_invariants: OK" in proc.stdout


def test_violations_reported_with_file_and_line(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy as np\n"
        "q = np.percentile(x, 99)\n"
        "rng = np.random.default_rng()\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{bad}:2:" in proc.stderr  # raw percentile
    assert f"{bad}:3:" in proc.stderr  # unseeded generator
    assert "2 violation(s)" in proc.stderr


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("np.random.seed(4)\n", "np.random.seed"),
        ("r = RandomState(0)\n", "RandomState"),
        ("x = np.random.uniform(0, 1)\n", "legacy np.random"),
        ("import random\n", "stdlib random"),
        ("seed = int(time.time())\n", "wall-clock"),
    ],
)
def test_each_seeding_ban_fires(tmp_path, line, fragment):
    (tmp_path / "mod.py").write_text(line)
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert fragment in proc.stderr


def test_commented_out_calls_are_ignored(tmp_path):
    (tmp_path / "ok.py").write_text(
        "# q = np.percentile(x, 99)\n"
        "y = 1  # np.random.seed(0) would be wrong here\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 0


def test_seeded_generators_pass(tmp_path):
    (tmp_path / "ok.py").write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng(1234)\n"
    )
    assert _run(str(tmp_path)).returncode == 0


def test_missing_tree_exits_2(tmp_path):
    proc = _run(str(tmp_path / "nope"))
    assert proc.returncode == 2


def test_upward_controlplane_import_reported(tmp_path):
    (tmp_path / "sim").mkdir()
    bad = tmp_path / "sim" / "mod.py"
    bad.write_text(
        "import numpy as np\n"
        "\n"
        "def f():\n"
        "    from repro.controlplane.phases import MonitorPhase\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{bad}:4: upward import of repro.controlplane.phases" in proc.stderr


@pytest.mark.parametrize(
    "line",
    [
        "import repro.controlplane.loop\n",
        "from repro import controlplane\n",
        "from .. import controlplane\n",
        "from ..controlplane.http import start_http_server\n",
    ],
)
def test_every_upward_import_form_fires(tmp_path, line):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "mod.py").write_text(line)
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert "upward import of repro.controlplane" in proc.stderr


def test_controlplane_and_cli_may_import_it(tmp_path):
    (tmp_path / "controlplane").mkdir()
    (tmp_path / "controlplane" / "service.py").write_text(
        "from repro.controlplane.loop import ControlLoop\n"
    )
    (tmp_path / "cli.py").write_text(
        "from repro.controlplane.service import LiveControlPlane\n"
    )
    assert _run(str(tmp_path)).returncode == 0


def test_only_the_control_loop_builder_is_sanctioned(tmp_path):
    (tmp_path / "sim").mkdir()
    runner = tmp_path / "sim" / "runner.py"
    runner.write_text(
        "class ExperimentRunner:\n"
        "    def control_loop(self, state):\n"
        "        from repro.controlplane.loop import ControlLoop\n"
        "        return ControlLoop(self, state)\n"
    )
    assert _run(str(tmp_path)).returncode == 0
    runner.write_text(
        runner.read_text()
        + "\n"
        "    def run_interval(self, state):\n"
        "        from repro.controlplane.loop import ControlLoop\n"
    )
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{runner}:7: upward import" in proc.stderr
    assert "1 violation(s)" in proc.stderr


def _model_tree(tmp_path, matrix, regression):
    (tmp_path / "model").mkdir()
    (tmp_path / "model" / "matrix.py").write_text(matrix)
    (tmp_path / "model" / "regression.py").write_text(regression)
    return tmp_path / "model"


_REGRESSION_OK = (
    "import numpy as np\n"
    "class PolynomialRegressor:\n"
    "    def _design(self, u):\n"
    "        return np.vander(u, 3, increasing=True)\n"
    "    def fit(self, u, x):\n"
    "        return np.linalg.lstsq(self._design(u) @ np.eye(3), x)\n"
    "    def predict(self, u):\n"
    "        out = u * 0 + self.c[-1]\n"
    "        return out * u + self.c[0]\n"
)


def test_elementwise_predictor_and_matrix_pass(tmp_path):
    """``@`` and ``np.vander`` stay legal in ``fit`` and outside the
    batch-invariant scopes."""
    _model_tree(tmp_path, "y = x * w\n", _REGRESSION_OK)
    (tmp_path / "model" / "other.py").write_text("y = a @ b\n")
    proc = _run(str(tmp_path))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "line, what",
    [
        ("y = a @ b\n", "@"),
        ("y @= b\n", "@"),
        ("y = np.dot(a, b)\n", "dot"),
        ("y = a.dot(b)\n", "dot"),
        ("y = np.matmul(a, b)\n", "matmul"),
        ("y = np.vander(u, 3)\n", "vander"),
    ],
)
def test_blas_product_in_the_matrix_fires(tmp_path, line, what):
    model = _model_tree(tmp_path, "def f(a, b, u, y):\n    " + line, _REGRESSION_OK)
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    assert f"{model / 'matrix.py'}:2: {what} in model/matrix.py" in proc.stderr


def test_blas_product_in_predict_fires(tmp_path):
    regression = _REGRESSION_OK.replace(
        "        out = u * 0 + self.c[-1]\n",
        "        out = np.vander(u, 3) @ self.c\n",
    )
    model = _model_tree(tmp_path, "", regression)
    proc = _run(str(tmp_path))
    assert proc.returncode == 1
    where = f"{model / 'regression.py'}:8:"
    assert f"{where} vander in PolynomialRegressor.predict" in proc.stderr
    assert f"{where} @ in PolynomialRegressor.predict" in proc.stderr
    assert "2 violation(s)" in proc.stderr
