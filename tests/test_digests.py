"""tools/digests.py, the byte-identity command, at micro size."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_digests_micro_run(tmp_path):
    # one JSON object: a sha256 per inference case and for the training
    # run, and verify's lines; the same on a second run, and the checkout
    # is left as it was
    out = tmp_path / "digests.json"
    runs = []
    for _ in range(2):
        subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), "--micro",
                        "--out", str(out)], check=True, cwd=tmp_path, timeout=300)
        runs.append(out.read_text())
    assert runs[0] == runs[1]
    got = json.loads(runs[0])
    infer = {k for k in got if k.startswith("infer/")}
    assert infer == {f"infer/{name}/{dtype}/{size}px/b{nb}"
                     for name in ("dicenet-micro", "separable-micro")
                     for dtype in ("float64", "float32") for size in (32, 40) for nb in (1, 2)}
    digests = [got[k] for k in sorted(infer) + ["train/history", "train/state",
                                                "train/checkpoint"]]
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert len(set(digests)) == len(digests)
    assert got["verify/seed0"] == "all checks passed (4/4)"
    assert got["verify/seed0/dimconv.macs"].startswith("[PASS] dimconv.macs:")
    assert len(got) == len(digests) + 5
