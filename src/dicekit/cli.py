"""Command-line front-end: analyze, bench, verify, train, infer."""

from __future__ import annotations

import os

# Thread cap must land in the environment before numpy initializes its
# BLAS backends, so this runs ahead of every other import in the package.
# A cap that is not a positive integer is not passed on; main() refuses it.
_CAP = os.environ.get("DICEKIT_THREADS", "")
_CAP_OK = not _CAP or (_CAP.isascii() and _CAP.isdigit() and int(_CAP) >= 1)
if _CAP and _CAP_OK:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _CAP)

import argparse
import csv
import dataclasses
import io
import json
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _write_out(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_rows(args, rows, table=None):
    """rows (dicts, same keys) as csv, JSON, or `table` lines (default: key=value)."""
    keys = list(rows[0])
    if args.format == "csv":
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([keys] + [list(r.values()) for r in rows])
        _write_out(text.getvalue(), args.out)
    elif args.format == "json":
        _write_out(json.dumps(rows) + "\n", args.out)
    else:
        table = table or ["  ".join(f"{k}={r[k]}" for k in keys) for r in rows]
        _write_out("\n".join(table) + "\n", args.out)


def _load_config(path):
    from .netconfig import parse_config
    with open(path) as fh:
        return parse_config(fh.read())


def cmd_analyze(args) -> int:
    from .netbuilder import analyze, build_network
    cfg = _load_config(args.config)
    net = build_network(cfg, seed=args.seed)
    report = analyze(net, args.input_size)
    if args.format == "csv":
        _write_out(report.to_csv(), args.out)
    elif args.format == "json":
        _write_out(report.to_json() + "\n", args.out)
    else:
        _write_out(report.to_table(), args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import BenchError, compare_fused_unfused, run_bench
    shape = tuple(int(s) for s in args.shape.split(","))
    if len(shape) != 3:
        raise BenchError(f"--shape must be C,H,W, got {args.shape!r}")
    if args.impl == "both":
        results = list(compare_fused_unfused(shape, args.n, args.repeats,
                                             args.warmup, args.seed))
    else:
        results = [run_bench(args.impl, shape, args.n, args.repeats,
                             args.warmup, args.seed)]
    _write_rows(args, [r.row() for r in results])
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite
    results, ok = run_suite(args.suite, seed=args.seed)
    lines = [r.line() for r in results]
    lines.append(f"{'all checks passed' if ok else 'FAILURES detected'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    _write_rows(args, [dataclasses.asdict(r) for r in results], lines)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_train(args) -> int:
    from .netbuilder import build_network
    from .serialize import save_checkpoint
    from .train import TrainConfig, metrics_csv, synth_dataset, train_loop
    tcfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                       lr=args.lr, seed=args.seed)
    cfg = _load_config(args.config)
    net = build_network(cfg, seed=args.seed)
    images, labels = synth_dataset(args.seed, args.count, cfg.classes,
                                   cfg.input_size)
    history = train_loop(net, images, labels, tcfg)
    _write_rows(args, history, metrics_csv(history).splitlines())
    if args.checkpoint:
        save_checkpoint(args.checkpoint, net.named_state())
    return EXIT_OK


def cmd_infer(args) -> int:
    import numpy as np

    from .netbuilder import build_network, infer
    from .serialize import load_checkpoint, load_tensor
    if args.topk < 1:
        raise ValueError(f"--topk must be at least 1, got {args.topk}")
    cfg = _load_config(args.config)
    net = build_network(cfg, seed=args.seed)
    if args.checkpoint:
        net.load_state(load_checkpoint(args.checkpoint))
    x = load_tensor(args.input)
    if x.ndim == 3:
        x = x[None]
    scores = infer(net, x)
    rows, lines = [], []
    for b in range(scores.shape[0]):
        order = np.argsort(scores[b])[::-1][:args.topk]
        rows += [{"sample": b, "rank": r, "class": int(k), "score": float(scores[b, k])}
                 for r, k in enumerate(order, 1)]
        lines.append(f"sample {b}: " + "  ".join(f"{int(k)}:{scores[b, k]:.6f}" for k in order))
    _write_rows(args, rows, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicekit",
        description="Dimension-wise convolution kernels, network analysis, "
                    "and toy training on the CPU.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="cost report for a network config")
    p.add_argument("config")
    p.add_argument("--input-size", type=int, default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("bench", help="time DimConv's fused and unfused kernels")
    p.add_argument("--shape", default="64,56,56")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--impl", choices=("fused", "unfused", "both"), default="both")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run self-check suites")
    p.add_argument("--suite", choices=("kernels", "gradients", "flops", "all"),
                   default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="toy training on the synthetic dataset")
    p.add_argument("config")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="classify a stored tensor")
    p.add_argument("config")
    p.add_argument("input", help="DCK1 tensor file, (C,H,W) or (N,C,H,W)")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--topk", type=int, default=5)
    p.set_defaults(fn=cmd_infer)
    return parser


def main(argv=None) -> int:
    if not _CAP_OK:
        print(f"error: DICEKIT_THREADS must be a positive integer, got {_CAP!r}",
              file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    from .netconfig import ConfigError
    from .serialize import ContainerError
    from .tensorops import KernelError
    try:
        return args.fn(args)
    except (ConfigError, ContainerError, KernelError, OSError, ValueError,
            RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
