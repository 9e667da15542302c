"""Byte identity: the SHA-256 of what `cnext` writes for the committed configs, checked
against the digests frozen in tests/golden.json.

    PYTHONPATH=src python tests/test_golden.py    # recompute and rewrite tests/golden.json

A change that moves bytes on purpose re-freezes the file and names each digest that
moved, and why. The digests hold on the build they were frozen under: the numpy and
scipy versions, their BLAS builds, and the SIMD extensions numpy found, which pick the
kernels numpy and OpenBLAS run. On another build the test skips and names what differs.
"""

import hashlib
import io
import json
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy

from cnext.cli import main

from conftest import covtype_fixture_csv

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().with_name("golden.json")
FREEZE = "PYTHONPATH=src python tests/test_golden.py"
T = "200"
COVTYPE_ROWS = 400


def build() -> dict:
    """The versions and kernels the digests depend on, as strings and lists."""
    def blas(config: dict) -> str:
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')} ({dep.get('openblas configuration')})"
    np_config = np.show_config(mode="dicts")
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np_config), "scipy_blas": blas(scipy.show_config(mode="dicts")),
            "machine": platform.machine(),
            "simd": np_config.get("SIMD Extensions", {}).get("found")}


def _cases(tmp: Path) -> dict[str, tuple[list[str], str | None]]:
    """name -> (cnext arguments, the file digested in the output directory; None digests
    standard output)."""
    covtype = json.loads((CONFIGS / "logistic_covtype_ring.json").read_text())
    covtype["objective"]["data"]["path"] = str(tmp / "covtype.csv")
    covtype_fixture_csv(covtype["objective"]["data"]["path"], n_rows=COVTYPE_ROWS)
    (tmp / "covtype.json").write_text(json.dumps(covtype))
    cases = {f"run {name} trace.csv": (["run", "-c", str(CONFIGS / f"{name}.json"), "--T", T],
                                       "trace.csv")
             for name in ("ridge_benchmark", "ridge_compare", "theory_identity")}
    # ridge_benchmark's variants add random-k, top-k and norm-signed
    cases.update({f"compare {name} compare.csv": (
        ["compare", "-c", str(CONFIGS / f"{name}.json"), "--T", T], "compare.csv")
        for name in ("ridge_compare", "ridge_benchmark")})
    cases["theory theory_identity stdout"] = (
        ["theory", "-c", str(CONFIGS / "theory_identity.json")], None)
    cases["theory theory_identity sweep_identity.csv (--grid 8)"] = (
        ["theory", "-c", str(CONFIGS / "theory_identity.json"), "--grid", "8"],
        "sweep_identity.csv")
    cases[f"run logistic_covtype_ring trace.csv ({COVTYPE_ROWS}-row fixture)"] = (
        ["run", "-c", str(tmp / "covtype.json"), "--T", T], "trace.csv")
    # the logistic config in all three modes, on the same fixture
    covtype["compare"] = {"variants": [
        {"name": "newton-qnbbq", "mode": "cnext", "scheme": {"kind": "qnbbq", "b": 2}},
        {"name": "first-order-qnbbq", "mode": "first_order_gt", "scheme": {"kind": "qnbbq", "b": 2}},
        {"name": "newton-uncompressed", "mode": "uncompressed_giant",
         "scheme": {"kind": "identity"}}]}
    (tmp / "covtype_compare.json").write_text(json.dumps(covtype))
    cases[f"compare logistic_covtype_ring compare.csv ({COVTYPE_ROWS}-row fixture)"] = (
        ["compare", "-c", str(tmp / "covtype_compare.json"), "--T", T], "compare.csv")
    return cases


def digests(tmp: Path) -> dict[str, str]:
    """Run every case into its own directory under tmp; name -> SHA-256 of its output."""
    out = {}
    for i, (name, (argv, artifact)) in enumerate(_cases(tmp).items()):
        out_dir = tmp / f"case{i}"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = main(argv + ["--output-dir", str(out_dir)])
        assert code == 0, f"{name} exited {code}"
        data = (out_dir / artifact).read_bytes() if artifact else stdout.getvalue().encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def test_outputs_keep_their_frozen_bytes(tmp_path):
    frozen = json.loads(GOLDEN.read_text())
    here = build()
    moved = {key: {"frozen": frozen["build"].get(key), "here": value}
             for key, value in here.items() if frozen["build"].get(key) != value}
    if moved:
        pytest.skip(f"digests were frozen under another build, so they do not apply: {moved}")
    got = digests(tmp_path)
    assert got.keys() == frozen["digests"].keys()
    assert [name for name in got if got[name] != frozen["digests"][name]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        frozen = {"frozen_by": FREEZE, "build": build(), "digests": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(frozen, indent=2) + "\n")
    print(f"wrote {GOLDEN} ({len(frozen['digests'])} digests)", file=sys.stderr)
