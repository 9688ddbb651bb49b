"""The experiment scripts run end to end on tiny arguments, the energy
comparison reproduces its recorded JSON, the output-identity matrix gives
the same manifest twice and matches its committed golden, and the
benchmark's traced functions exist."""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script,args", [
    ("energy_comparison.py", ["--preset", "ldlrnn", "--t", "4"]),
    ("energy_comparison.py", ["--preset", "ldlrnn", "--t", "4", "--quantize"]),
    ("locality_experiment.py", ["--hidden", "8", "--t", "1", "2"]),
])
def test_script_exits_zero(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("golden,args", [
    ("energy_ldlrnn_t4.json", []),
    ("energy_ldlrnn_t4_quantize.json", ["--quantize"]),
])
def test_energy_comparison_matches_golden(tmp_path, golden, args):
    out = tmp_path / "energy.json"
    proc = run_script("energy_comparison.py", ["--preset", "ldlrnn", "--t", "4",
                                               *args, "--json", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == \
        (ROOT / "tests" / "data" / golden).read_text(encoding="utf-8")


def test_output_identity_matrix_repeats(tmp_path):
    # the matrix twice in this checkout, at 2x16 sizes: a difference is
    # nondeterminism, e.g. in the concurrent runs
    manifest = tmp_path / "manifest.json"
    proc = run_script("output_identity.py", ["--tiny", "--out", str(manifest),
                                             "--against", str(ROOT)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    entries = json.loads(manifest.read_text(encoding="utf-8")).values()
    assert {e["exit"] for e in entries} == {0, 2, 3, 4, 5, 6, 7}
    # both forms of the MU refusal
    assert sum(e["stderr"].startswith("check failed: ") and "MU" in e["stderr"]
               for e in entries) == 2
    assert all("Traceback" not in e["stderr"] for e in entries)


def test_output_identity_matrix_matches_golden(tmp_path):
    # one run of the tiny matrix against the committed manifest: every
    # field of every entry, but only the exit code of an entry whose
    # outputs depend on numpy's SIMD tier.  Both files are this host's;
    # ``output_identity.py --golden`` rewrites them
    manifest = tmp_path / "manifest.json"
    proc = run_script("output_identity.py", ["--tiny", "--out", str(manifest)])
    assert proc.returncode == 0, proc.stderr
    data = ROOT / "tests" / "data"
    golden = json.loads((data / "output_manifest_tiny.json").read_text(encoding="utf-8"))
    simd = json.loads((data / "output_manifest_tiny_simd.json").read_text(encoding="utf-8"))
    assert simd and set(simd) < set(golden)

    def pinned(entries):
        return {cmd: {"exit": e["exit"]} if cmd in simd else e
                for cmd, e in entries.items()}
    assert pinned(json.loads(manifest.read_text(encoding="utf-8"))) == pinned(golden)


def test_benchmark_traced_functions_exist():
    # read, not imported: a traced name the program lost would leave the
    # benchmark's per-layer metrics that need it absent
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"epursim.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"epursim.{module}.{name}"
