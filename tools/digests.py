"""Print sha256 digests of the bytes dicekit computes, as one JSON object,
so that two trees can be shown to compute the same bytes:

- `infer/<config>/<dtype>/<size>px/b<batch>`: `infer` scores of the six
  configs in float64 and float32, at the config's size and one other, at
  batch 1 and 2, by the network of seed 1 with random batch-norm running
  statistics, on inputs drawn from seed 0;
- `train/history`, `train/state`, `train/checkpoint`: one `train_loop`
  epoch of dicenet-micro on `synth_dataset` images (seed 0), then the
  history it returns, its `named_state()` and the files of the checkpoint
  `save_checkpoint` writes of it;
- `verify/seed<k>/<check>`: not a digest but the line `dicekit verify
  --suite all` prints for each check at seeds 0-2, and `verify/seed<k>`
  its summary line, so that a new check shows as a new key.

Run it from the root of a checkout; it imports dicekit from `src/` there:

    python3 tools/digests.py [--micro] [--out FILE]

and compare the output of two trees with `diff`. `--micro` runs the micro
configs only, trains on 200 images and runs the flops suite of `verify` at
seed 0: every kind of digest in seconds. BLAS runs one thread, as the
benchmark runs it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dicekit import netbuilder, netconfig, serialize, train, verify  # noqa: E402

MICRO = ("dicenet-micro", "separable-micro")
FULL = MICRO + ("dicenet-s0.1", "dicenet-s1.0", "dicenet-s2.4", "separable-300m")
# the size each config also runs at, off its nominal one: DiCE units resize
OFF_NOMINAL = {32: 40, 224: 288}


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _config(name: str) -> netconfig.NetConfig:
    return netconfig.parse_config((ROOT / "configs" / f"{name}.cfg").read_text())


def infer_digests(name: str) -> dict:
    cfg = _config(name)
    out = {}
    for dtype in (np.float64, np.float32):
        net = netbuilder.build_network(cfg, seed=1, dtype=dtype)
        rng = np.random.default_rng(0)
        for bn in net.bn_states():
            bn.running_mean[...] = rng.normal(0.0, 0.1, bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, bn.running_var.shape)
        for size in (cfg.input_size, OFF_NOMINAL[cfg.input_size]):
            for batch in (1, 2):
                x = rng.standard_normal((batch, 3, size, size)).astype(dtype)
                scores = netbuilder.infer(net, x)
                key = f"infer/{name}/{np.dtype(dtype).name}/{size}px/b{batch}"
                out[key] = _sha(str(scores.dtype).encode(), scores.tobytes())
    return out


def train_digests(count: int) -> dict:
    cfg = _config("dicenet-micro")
    net = netbuilder.build_network(cfg, seed=0)
    images, labels = train.synth_dataset(0, count, cfg.classes, cfg.input_size)
    history = train.train_loop(net, images, labels, train.TrainConfig(epochs=1, seed=0))
    state = net.named_state()
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "ck"
        serialize.save_checkpoint(ck, state)
        files = sorted(ck.iterdir())
        checkpoint = _sha(*(p.name.encode() + p.read_bytes() for p in files))
    return {
        "train/history": _sha(json.dumps(history).encode()),
        "train/state": _sha(*(name.encode() + np.ascontiguousarray(a).tobytes()
                              for name, a in state)),
        "train/checkpoint": checkpoint,
    }


def verify_lines(seed: int, suite: str) -> dict:
    results, ok = verify.run_suite(suite, seed)
    out = {f"verify/seed{seed}/{r.name}": r.line() for r in results}
    out[f"verify/seed{seed}"] = (f"{'all checks passed' if ok else 'FAILURES detected'} "
                                 f"({sum(r.passed for r in results)}/{len(results)})")
    return out


def digests(micro: bool) -> dict:
    out = {}
    for name in MICRO if micro else FULL:
        out.update(infer_digests(name))
    out.update(train_digests(200 if micro else 2000))
    for seed in (0,) if micro else (0, 1, 2):
        out.update(verify_lines(seed, "flops" if micro else "all"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--micro", action="store_true",
                        help="micro configs, 200 training images, verify's flops suite")
    parser.add_argument("--out", default=None, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)
    text = json.dumps(digests(args.micro), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
