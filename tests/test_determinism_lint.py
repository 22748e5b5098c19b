"""The determinism self-lint: the source tree stays reproducible.

``tools/check_determinism.py`` forbids global-RNG use, wall-clock
reads, and per-run seed derivation (spawned children, raw
bit-generator state, the seeding constants) outside the sanctioned
entry points.  These tests run it over the real source tree (the
repository's contract) and over synthetic fixtures (the checker's own
correctness).
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "check_determinism.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_determinism", TOOL
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_determinism", module)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def test_source_tree_is_deterministic():
    violations = checker.run(REPO_ROOT / "src" / "repro")
    assert violations == []


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("import random\n", "hidden global state"),
        ("from random import choice\n", "hidden global state"),
        (
            "import numpy as np\nx = np.random.rand(3)\n",
            "global RNG",
        ),
        (
            "import numpy as np\nr = np.random.default_rng()\n",
            "without a seed",
        ),
        (
            "from numpy.random import default_rng\nr = default_rng()\n",
            "without a seed",
        ),
        ("import time\nt = time.time()\n", "reads a clock"),
        (
            "from datetime import datetime\nd = datetime.now()\n",
            "wall clock",
        ),
        (
            "import numpy as np\n"
            "c = np.random.SeedSequence(7, spawn_key=(3,))\n",
            "per-run seed children",
        ),
        (
            "from numpy.random import SeedSequence\n"
            "cs = SeedSequence(7).spawn(4)\n",
            "per-run seed children",
        ),
    ],
)
def test_checker_flags_nondeterminism(tmp_path, source, fragment):
    path = tmp_path / "module.py"
    path.write_text(source)
    violations = checker.check_file(path, "module.py")
    assert violations, source
    assert any(fragment in v for v in violations)


@pytest.mark.parametrize(
    "source",
    [
        # Seeded constructors and type annotations are sanctioned.
        "import numpy as np\nr = np.random.default_rng(7)\n",
        "import numpy as np\ns = np.random.SeedSequence(0).spawn(4)\n",
        (
            "import numpy as np\n"
            "def f(rng: np.random.Generator) -> float:\n"
            "    return float(rng.random())\n"
        ),
    ],
)
def test_checker_accepts_seeded_use(tmp_path, source):
    path = tmp_path / "module.py"
    path.write_text(source)
    # Checked as the batch seed-derivation point, the one module that
    # may also spawn per-run children.
    assert checker.check_file(path, "runtime/batch.py") == []


def test_seed_derivation_is_confined_to_the_batch_module(tmp_path):
    source = (
        "import numpy as np\n"
        "children = np.random.SeedSequence(0).spawn(4)\n"
    )
    path = tmp_path / "module.py"
    path.write_text(source)
    violations = checker.check_file(path, "resilience/executive.py")
    assert any("per-run seed children" in v for v in violations)
    assert checker.check_file(path, "runtime/batch.py") == []


@pytest.mark.parametrize(
    "source, fragment",
    [
        (
            "import numpy as np\n"
            "bits = np.random.PCG64(1)\n"
            "bits.state = {'bit_generator': 'PCG64'}\n",
            "bit-generator state",
        ),
        (
            "import numpy as np\n"
            "rng = np.random.default_rng(1)\n"
            "rng.bit_generator.state = saved\n",
            "bit-generator state",
        ),
        ("MULT_A = 0x931E8875\n", "seeding constants"),
        (
            "MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645\n",
            "seeding constants",
        ),
    ],
)
def test_stream_derivation_is_confined_to_the_batch_module(
    tmp_path, source, fragment
):
    path = tmp_path / "module.py"
    path.write_text(source)
    violations = checker.check_file(path, "runtime/faults.py")
    assert any(fragment in v for v in violations), violations
    assert checker.check_file(path, "runtime/batch.py") == []


def test_own_state_fields_are_not_bit_generator_state(tmp_path):
    source = (
        "class Job:\n"
        "    def start(self):\n"
        "        self.state = 'running'\n"
    )
    path = tmp_path / "module.py"
    path.write_text(source)
    assert checker.check_file(path, "service/jobs.py") == []


def test_clock_allowlist_is_honoured(tmp_path):
    source = "import time\nt = time.perf_counter()\n"
    path = tmp_path / "module.py"
    path.write_text(source)
    assert checker.check_file(path, "module.py") != []
    assert checker.check_file(path, "telemetry/profiler.py") == []
