"""dicekit's benchmark: end-to-end latency and throughput of inference and
toy training, and a traced run that breaks the time down by layer.

Run from the repository root:

    python3 perfbench/run.py --workload infer-s1.0-b1 --seed 1 --seconds 20 --trace 0

Workloads: infer-s1.0-b1, infer-sep300m-b1, infer-s1.0-b8-288, train-micro
(see README.md). Load is a closed loop with one client: the next library
call starts when the previous one returns. BLAS runs on one thread.

Before anything is timed the run checks the kernels against the oracle,
`infer` against `oracle_forward` and `analyze()` against the oracle's MAC
tally; if any check fails it prints no timings and exits 1. Every timed
call is checked too (see workloads.py), and failures are counted.

--trace 0 prints the end-to-end metrics. --trace 1 spends half the time
untraced and half with spans around every call into the library, and
prints the per-layer metrics, including the tracing overhead. The last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full result, with the environment stamp, is also written under
.bench_build/perfbench/.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error or no
dicekit sources under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, public_functions

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("DICEKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUPS = 5               # set-ups per run; setup_s is their median
STAGE_ROWS = 16          # stage.<i> rows of dicenet-s1.0 and separable-300m

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_img_s": "img/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# kernels whose MACs and bytes are computed from their call shapes
ROOFLINE = ("tensorops.pointwise_conv", "tensorops.depthwise_conv",
            "tensorops.conv2d", "tensorops.linear", "dimops.dimconv_fused")
ROW_KEYS = ["conv1", "maxpool"] + [f"stage.{i}" for i in range(STAGE_ROWS)] + ["head"]


# unit of a per-layer metric, from the last part of its name
LAYER_UNITS = {"ms": "ms", "calls": "count", "macs": "MAC", "bytes": "B",
               "mac_s": "MAC/s", "mac_per_byte": "MAC/B", "pct": "%",
               "overhead_pct": "%", "resizes": "count"}


# ------------------------------------------------------------------ costs
# MACs follow analyze()'s convention (one per tap per output element);
# bytes are computed, not measured: operands and result, each counted once.

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cost_pointwise(args, kwargs, out):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "weights")
    return out.size * w.shape[1], x.nbytes + w.nbytes + out.nbytes


def _cost_depthwise(args, kwargs, out):
    x, bank = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "bank")
    return out.size * bank.n * bank.n, x.nbytes + bank.taps.nbytes + out.nbytes


def _cost_conv2d(args, kwargs, out):
    x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "weights")
    return out.size * w[0].size, x.nbytes + w.nbytes + out.nbytes


def _cost_dimconv(args, kwargs, out):
    x, p = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "p")
    taps = p.k_d.taps.nbytes + p.k_w.taps.nbytes + p.k_h.taps.nbytes
    return out.size * p.n * p.n, x.nbytes + taps + out.nbytes


def _cost_resize(args, kwargs, out):
    return 0, _arg(args, kwargs, 0, "x").nbytes + out.nbytes


def _cost_loaded(args, kwargs, out):
    return 0, sum(a.nbytes for a in out.values())


COSTS = {"pointwise_conv": _cost_pointwise, "linear": _cost_pointwise,
         "depthwise_conv": _cost_depthwise, "conv2d": _cost_conv2d,
         "dimconv_fused": _cost_dimconv, "bilinear_resize": _cost_resize}


def install_library(tracer, lib) -> None:
    """Spans around the public functions of the library's modules."""
    for mod in (lib.tensorops, lib.dimops):
        short = mod.__name__.rsplit(".", 1)[1]
        for name in public_functions(mod, skip=("check_tensor", "ceil_div")):
            tracer.wrap(mod, name, f"{short}.{name}", COSTS.get(name))
    for name in public_functions(lib.autograd, skip=("no_grad", "param", "as_var",
                                                     "backward")):
        tracer.wrap(lib.autograd, name, "autograd.ops")
    tracer.wrap(lib.autograd, "backward", "autograd.backward")
    for name in ("synth_dataset", "sgd_step", "ema_update", "evaluate"):
        tracer.wrap(lib.train, name, f"train.{name}")
    tracer.wrap(lib.serialize, "save_checkpoint", "serialize.save_checkpoint")
    tracer.wrap(lib.serialize, "load_checkpoint", "serialize.load_checkpoint",
                _cost_loaded)
    tracer.wrap(lib.netconfig, "parse_config", "netconfig.parse_config")
    tracer.wrap(lib.netbuilder, "build_network", "netbuilder.build_network")


def layer_rows(lib, net, size) -> list:
    """(layer object, analyze() row key, MACs per image) for each layer.

    analyze() names the first two layers conv1 and maxpool, layer i >= 2
    stage.<i-2>, and gives the head several rows; their MACs are summed.
    """
    macs = {}
    for name, _, m, _, _ in lib.netbuilder.analyze(net, size).rows:
        if name.startswith("stage."):
            key = ".".join(name.split(".")[:2])
        else:
            key = name if name in ("conv1", "maxpool") else "head"
        macs[key] = macs.get(key, 0) + m
    keys = ["conv1", "maxpool"] + [f"stage.{i}" for i in range(len(net.layers) - 2)]
    if set(keys + ["head"]) != set(macs) or len(keys) - 2 > STAGE_ROWS:
        raise RuntimeError("analyze() rows do not match the network's layers")
    return [(obj, key, macs[key]) for obj, key in zip(net.layers + [net.head],
                                                      keys + ["head"])]


def install_layers(tracer, rows) -> None:
    for obj, key, macs in rows:
        tracer.wrap(obj, "forward", f"netbuilder.{key}",
                    lambda args, kwargs, out, m=macs: (m * args[0].data.shape[0], 0))


# ------------------------------------------------------------ measurement

class Phase:
    """What a timed stretch of library calls did."""

    def __init__(self):
        self.calls = 0
        self.call_s = 0.0
        self.wall = 0.0
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.images = 0
        self.resizes = 0
        self.errors: list = []


def measure(run, seconds: float, tracer=None) -> Phase:
    from workloads import Call       # imports numpy: only once main() pinned threads

    """Closed loop for `seconds`; with a tracer, the span call counts of every
    library call must equal the first call's exactly."""
    ph = Phase()
    ref = None
    t_start = time.perf_counter()
    while True:
        before = tracer.totals() if tracer else None
        try:
            c = run.call()
        except Exception as exc:     # the library failed: count it, keep going
            c = Call(0.0, [], 1, 0, 0, f"call {ph.calls + 1}: {type(exc).__name__}: {exc}")
        ph.calls += 1
        ph.call_s += c.seconds
        ph.latencies += c.latencies
        ph.attempted += max(len(c.latencies), 1)
        ph.failed += c.failed
        ph.images += c.images
        ph.resizes += c.resizes
        if c.error:
            ph.errors.append(c.error)
        if tracer:
            after = tracer.totals()
            counts = {k: v[0] - before.get(k, (0,))[0] for k, v in after.items()}
            if ref is None:
                ref = counts
            elif counts != ref:
                diff = sorted(k for k in counts if counts[k] != ref.get(k))
                ph.attempted += 1
                ph.failed += 1
                ph.errors.append(f"call {ph.calls}: span call counts differ ({diff})")
        if time.perf_counter() - t_start >= seconds:
            break
    ph.wall = time.perf_counter() - t_start
    return ph


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it:
    (value, percentile, rule met). With ten samples or fewer no percentile
    qualifies, and the maximum is returned with the rule marked unmet."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, True
    return xs[-1], 100.0, False


def per_call(total, n):
    q, r = divmod(total, n)
    return q if r == 0 else total / n


def layer_metrics(d: dict, tot: dict, ph: Phase, overhead_pct: float) -> dict:
    """Per-layer metrics from span totals `d` of the traced phase (per
    library call) and `tot` of the whole run (per call of the function)."""
    zero = (0, 0.0, 0.0, 0, 0)
    n = ph.calls
    out = {}
    for k in ROOFLINE:
        calls, s, _, macs, nbytes = d.get(k, zero)
        out.update({f"{k}.ms": s * 1e3 / n, f"{k}.calls": per_call(calls, n),
                    f"{k}.macs": per_call(macs, n), f"{k}.bytes": per_call(nbytes, n),
                    f"{k}.mac_s": macs / s if s else 0.0,
                    f"{k}.mac_per_byte": macs / nbytes if nbytes else 0.0})
    calls, s, _, _, nbytes = d.get("tensorops.bilinear_resize", zero)
    out.update({"tensorops.bilinear_resize.ms": s * 1e3 / n,
                "tensorops.bilinear_resize.calls": per_call(calls, n),
                "tensorops.bilinear_resize.bytes": per_call(nbytes, n)})
    for k in ("pool", "prelu", "sigmoid"):
        calls, s, _, _, _ = d.get(f"tensorops.{k}", zero)
        out.update({f"tensorops.{k}.ms": s * 1e3 / n,
                    f"tensorops.{k}.calls": per_call(calls, n)})
    calls, s, self_s, _, _ = d.get("autograd.ops", zero)
    out.update({"autograd.ops.ms": s * 1e3 / n, "autograd.ops.calls": per_call(calls, n),
                "autograd.self.ms": self_s * 1e3 / n})
    calls, s, _, _, _ = d.get("autograd.backward", zero)
    out.update({"autograd.backward.ms": s * 1e3 / n,
                "autograd.backward.calls": per_call(calls, n),
                "dice.resizes": per_call(ph.resizes, n)})
    layer_s = 0.0
    for key in ROW_KEYS:
        _, s, _, macs, _ = d.get(f"netbuilder.{key}", zero)
        layer_s += s
        out[f"netbuilder.{key}.ms"] = s * 1e3 / n
        if key != "maxpool":
            out[f"netbuilder.{key}.mac_s"] = macs / s if s else 0.0
    out["netbuilder.unattributed.ms"] = (ph.call_s - layer_s) * 1e3 / n
    out["netbuilder.unattributed.pct"] = 100.0 * (ph.call_s - layer_s) / ph.call_s
    for k in ("train.sgd_step", "train.ema_update", "train.evaluate"):
        out[f"{k}.ms"] = d.get(k, zero)[1] * 1e3 / n
    for k in ("netbuilder.build_network", "train.synth_dataset",
              "serialize.save_checkpoint", "serialize.load_checkpoint",
              "netconfig.parse_config"):
        calls, s, _, _, _ = tot.get(k, zero)
        out[f"{k}.ms"] = s * 1e3 / calls if calls else 0.0
    calls, _, _, _, nbytes = tot.get("serialize.load_checkpoint", zero)
    out["serialize.bytes"] = per_call(nbytes, calls) if calls else 0
    out["trace.overhead_pct"] = overhead_pct
    return out


def diff_totals(after: dict, before: dict) -> dict:
    zero = (0, 0.0, 0.0, 0, 0)
    return {k: tuple(a - b for a, b in zip(v, before.get(k, zero)))
            for k, v in after.items()}


# ------------------------------------------------------------ environment

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def env_stamp(np, args, wl) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workload": args.workload, "short": args.short,
        "params": {"config": wl.config, "input_px": wl.size, "batch": wl.batch,
                   "train_images": wl.images, "setups": SETUPS,
                   "load": "closed loop, one client"},
    }


# ------------------------------------------------------------------- main

def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="run the workload's code paths on the micro configs")
    p.add_argument("--fault", choices=("dimconv",), default=None,
                   help="inject a fault into the named kernel check (self-test)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def emit(result: dict, full: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))


def main(argv=None) -> int:
    for var in THREAD_VARS:          # before numpy loads
        os.environ[var] = "1"
    if not (ROOT / "src" / "dicekit" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"perfbench: no dicekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import dicekit
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = (workloads.SHORT if args.short else workloads.WORKLOADS)[args.workload]
    env = env_stamp(np, args, wl)
    print("env " + json.dumps(env, sort_keys=True))
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}" + (".short" if args.short else "")
    out_path = OUT_DIR / f"{tag}.json"

    checks = workloads.prechecks(args.seed, args.fault)
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(not ok for _, ok, _ in checks)
    if failed:
        print("pre-check failed: no timings reported")
        emit({"correct": False, "attempted": len(checks), "failed": failed, "metrics": {}},
             {"env": env, "checks": checks, "metrics": {}}, out_path)
        return 1

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    run = None
    tracer = Tracer() if args.trace else None
    try:
        run = workloads.make_run(wl, args.seed, workdir)
        if tracer:
            install_library(tracer, dicekit)
        setup_times = []
        try:
            for _ in range(SETUPS):
                t0 = time.perf_counter()
                run.setup()
                setup_times.append(time.perf_counter() - t0)
        except Exception:            # the library failed: report, time nothing
            traceback.print_exc()
            print("set-up failed: no timings reported")
            emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
                 {"env": env, "checks": checks, "metrics": {}}, out_path)
            return 1
        post = run.setup_checks()
        if tracer:
            tracer.unwrap()
            base = measure(run, args.seconds / 2)
            install_library(tracer, dicekit)
            install_layers(tracer, layer_rows(dicekit, run.net, wl.size))
            before = tracer.totals()
            ph = measure(run, args.seconds / 2, tracer)
            span_d = diff_totals(tracer.totals(), before)
            post += run.finish_checks()
            phases = [base, ph]
        else:
            ph = measure(run, args.seconds)
            post += run.finish_checks()
            phases = [ph]
    finally:
        if tracer:
            tracer.unwrap()
        if run is not None:
            run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, ok, detail in post:
        print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    errors = [e for p in phases for e in p.errors]
    for e in errors[:10]:
        print(f"failure {e}")
    attempted = sum(p.attempted for p in phases) + len(post)
    failed = sum(p.failed for p in phases) + sum(not ok for _, ok, _ in post)
    if not all(p.latencies for p in phases):
        print("no operation completed: no timings reported")
        emit({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}},
             {"env": env, "checks": checks + post, "errors": errors, "metrics": {}},
             out_path)
        return 1
    p50 = statistics.median(ph.latencies)
    if tracer:
        overhead = 100.0 * (p50 / statistics.median(base.latencies) - 1.0)
        metrics = layer_metrics(span_d, tracer.totals(), ph, overhead)
        units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        notes = {"normalised": "ms, calls, macs and bytes per library call "
                 "(infer call, or train_loop epoch); set-up and checkpoint "
                 "functions per call of the function",
                 "library_calls_traced": ph.calls,
                 "all_spans": {k: dict(zip(("calls", "s", "self_s", "macs", "bytes"), v))
                               for k, v in sorted(span_d.items()) if v[0]}}
    else:
        t_val, t_pct, t_ok = tail(ph.latencies)
        metrics = {
            "latency_p50_ms": p50 * 1e3,
            "latency_tail_ms": t_val * 1e3,
            "throughput_img_s": ph.images / ph.wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        unit = "training step" if wl.training else "infer call"
        notes = {
            "latency_samples": len(ph.latencies), "latency_unit": unit,
            "tail_percentile": t_pct,
            "tail_rule": "nearest rank with 10 samples above it" if t_ok else
            f"maximum: {len(ph.latencies)} samples are too few for 10 above a percentile",
            "throughput": f"{ph.images} images of {wl.size} px in {ph.wall:.3f} s",
            "setup_times_s": setup_times,
            "ops_failed_ratio": failed / attempted,
        }
        print(f"note latency over {len(ph.latencies)} {unit}s; tail is "
              f"p{t_pct:.1f}" + ("" if t_ok else " (maximum; too few samples)"))
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"metric ops_failed_ratio = {failed / attempted} ({failed}/{attempted})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    emit(result, {"env": env, "checks": checks + post, "errors": errors,
                  "notes": notes, **result}, out_path)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
