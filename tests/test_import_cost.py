"""The package never loads scipy, not even for a quadrature.

scipy costs about half a second and 50 MB at import, and the package's
quadrature is its own numpy rule.  A scipy import anywhere in the package
that the commands or a weighted parametric modular reach fails this test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ncorlicz
from ncorlicz import WeightedContext, exp_decay, log_reciprocal, modular, power

_CHILD = """
import json, sys
import ncorlicz
from ncorlicz import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from ncorlicz import WeightedContext, exp_decay, log_reciprocal, modular, power
value = modular(log_reciprocal(1.0), power(1.0), 1.0, WeightedContext(exp_decay()))
after = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"before": before, "after": after, "value": repr(value)}))
"""

_MORPHISM = {
    "source": {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 1, "weight": 0.5}]},
    "target": {"blocks": [{"dim": 2, "weight": 1.0}, {"dim": 2, "weight": 1.0}]},
    "blocks": [
        {"assignments": [{"src": 0, "copies": 1}], "flavor": "homo"},
        {"assignments": [{"src": 0, "copies": 1}], "flavor": "anti"},
    ],
}
_GAUGES = [
    {"kind": "power", "p": 2},
    {"kind": "cosh_minus_one"},
    {"kind": "t_log1p"},
    {"kind": "zero_then_linear", "a": 1.0},
    {"kind": "linear_until_cap", "b": 5.0},
]


def _commands(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    algebra = write("a.json", {"blocks": [{"dim": 2, "weight": 1.0},
                                          {"dim": 1, "weight": 0.5}]})
    element = write("e.json", {"blocks": [[[[3.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [4.0, 0.0]]],
                                          [[[2.0, 0.0]]]]})
    gauges = [write(f"g{i}.json", g) for i, g in enumerate(_GAUGES)]
    out = str(tmp_path / "out.json")
    argv = [["singular", "--algebra", algebra, "--element", element, "--out", out]]
    argv += [["norm", "--algebra", algebra, "--element", element, "--orlicz", g,
              "--out", out] for g in gauges]
    argv += [["dual-check", "--algebra", algebra, "--element", element, "--element2", element,
              "--orlicz", gauges[2], "--samples", "3", "--seed", "1", "--out", out]]
    argv += [["compose", "--morphism", write("j.json", _MORPHISM), "--psi", psi,
              "--phi2", gauges[0], "--samples", "3", "--seed", "1", "--out", out]
             for psi in (write("psi.json", {"kind": "power", "p": 1}), gauges[2])]
    return argv


def test_commands_load_no_scipy_until_a_quadrature(tmp_path):
    src = str(Path(ncorlicz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(_commands(tmp_path))],
                          env=env, stdout=subprocess.PIPE, text=True, check=True)
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["before"] == []
    assert got["after"] == []
    want = modular(log_reciprocal(1.0), power(1.0), 1.0, WeightedContext(exp_decay()))
    assert float(got["value"]) == want
