"""The traced benchmark wraps package entry points by name; a rename must
show up here rather than only when the benchmark runs."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SPANS = (
    "lie.bracket",
    "lie.form",
    "realization.series_expand",
    "realization.build_operator_general",
    "realization.apply_operator",
    "realization.bracket_sweep",
    "cli.load_config",
    "cli.write_report",
    "cli.main",
    "realization.act",
    "realization.operator",
    "inducing.act",
    "sampling.fock_states",
)

SPECS = {
    "build": ({"kind": "build", "n": 1, "modes": [0], "seed": 1, "flip": False,
               "trace": True}, "realization.build_operator_general"),
    "sweep": ({"kind": "sweep", "n": 1, "sigma": [], "character": [[0, "1"]],
               "states": 1, "max_degree": 1, "state_mode": 1, "max_mode": 1,
               "sampler_seed": 1, "flip": False, "trace": True},
              "realization.apply_operator"),
}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_traced_child_wraps_every_span(kind):
    # a subprocess, because Tracer.install rebinds module globals for good
    spec, busy = SPECS[kind]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []
    stats = result["trace"]["stats"]
    assert set(SPANS) <= set(stats), sorted(set(SPANS) - set(stats))
    assert stats[busy][0] > 0
