"""Benchmark of whole `grr` runs, with an optional traced per-layer run.

    python3 perfbench/run.py --workload tree-deep --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Each op is one in-process call of
grrdecomp.cli.main(argv) on a seeded input file, with stdout captured in
memory. Ops run in a closed loop: one caller, and the next op starts when
the previous one returns. Ops come in rounds of a fixed mix, and a run
always ends at the end of a round, so every run weighs the op kinds
alike. The untraced run (--trace 0) ends at the first round end after
--seconds of op time, and never before the first rounds that hold
MIN_OPS ops; it reports the end-to-end metrics. The traced run
(--trace 1) runs exactly those first rounds, each op once with spans and
counters on and once right after without them, and reports the
per-layer metrics and the tracing overhead between the two calls. Both
check every output after the loop and record a sha256 digest of the
outputs of those first rounds, which must agree between the two runs of
one workload and seed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Details (per-op times, failures, digest, spans) go to
perfbench/out/<workload>-s<seed>-t<trace>.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100   # p90 then has at least ten ops above it
# setup_s is the median of several set-ups, some before the timed loop
# and some after it, so that one slow moment of the machine does not set it
SETUPS_BEFORE, SETUPS_AFTER = 5, 6


def _purge_package() -> None:
    for name in [m for m in sys.modules
                 if m == "grrdecomp" or m.startswith("grrdecomp.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: str):
    """Import the package afresh and write the inputs of the first rounds,
    which hold at least MIN_OPS ops. Returns the sequence and the seconds
    it took."""
    start = time.perf_counter()
    _purge_package()
    importlib.import_module("grrdecomp.cli")
    seq = workloads.Sequence(workload, seed, workdir)
    seq.ensure(MIN_OPS)
    return seq, time.perf_counter() - start


def timed_setups(workload: str, seed: int, workdir: str, repeats: int,
                 times: list):
    seq = None
    for _ in range(repeats):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        seq, dt = setup(workload, seed, workdir)
        times.append(dt)
    return seq


def _failure_layer(exc: BaseException) -> str:
    """The innermost grrdecomp module the exception passed through."""
    pkg = os.path.join(SRC, "grrdecomp") + os.sep
    layer = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        fname = tb.tb_frame.f_code.co_filename
        if fname.startswith(pkg):
            layer = os.path.splitext(fname[len(pkg):])[0]
        tb = tb.tb_next
    return layer


def call(cli, op) -> dict:
    """One op: cli.main on its argv, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv())
    except Exception as exc:  # the op failed; the run goes on
        dt = time.perf_counter() - t0
        rc, failure = None, (type(exc).__name__, _failure_layer(exc))
    else:
        dt = time.perf_counter() - t0
    return {"op": op.index, "label": op.label, "seconds": dt, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue(),
            "failure": failure}


def _outcome(rec) -> tuple:
    return rec["rc"], rec["failure"], rec["stdout"], rec["stderr"]


def run_ops(seq, seconds: float, first: int, cli):
    """The untraced closed loop, from op 0 to the first round end after
    `seconds` of op time and not before op `first`. Returns one record
    per op and the timed wall time."""
    records = []
    timed = 0.0
    i = 0
    seg = time.perf_counter()
    while not (i in seq.round_ends and i >= first
               and timed + time.perf_counter() - seg >= seconds):
        if i == len(seq.ops):
            # new inputs are written off the clock
            timed += time.perf_counter() - seg
            seq.extend()
            seg = time.perf_counter()
        records.append(call(cli, seq.ops[i]))
        i += 1
    timed += time.perf_counter() - seg
    return records, timed


def run_traced(seq, first: int, cli):
    """Ops 0 to `first`, each run twice in a row: traced, then untraced.
    The traced call comes first, so its spans never see what an earlier
    call of the same op left behind. Returns the traced records (each
    with `plain_s`, the untraced call's time) and the tracer."""
    from spans import Tracer
    tracer = Tracer()
    records = []
    for op in seq.ops[:first]:
        tracer.op = op.index
        tracer.install()
        try:
            rec = call(cli, op)
        finally:
            tracer.uninstall()
        plain = call(cli, op)
        rec["plain_s"] = plain["seconds"]
        if _outcome(plain) != _outcome(rec):
            rec["traced_differs"] = True
        records.append(rec)
    return records, tracer


def check(seq, records) -> None:
    """Check every op's output; sets record["problem"] (None when right)."""
    from checks import Checker
    checker = Checker()
    for rec in records:
        rec["problem"] = None
        op = seq.ops[rec["op"]]
        if rec.get("traced_differs"):
            rec["problem"] = "output differs between traced and untraced call"
            continue
        if rec["failure"] is not None:
            exc, layer = rec["failure"]
            if exc != op.may_raise:
                rec["problem"] = f"raised {exc} from {layer}"
            continue
        try:
            rec["problem"] = checker.check(op, rec["rc"], rec["stdout"])
        except Exception as e:  # unparseable output is a wrong answer
            rec["problem"] = f"{type(e).__name__} while checking: {e}"
    for idx, problem in checker.cross(seq.ops[:len(records)]):
        if records[idx]["problem"] is None:
            records[idx]["problem"] = problem


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        outcome = (f"raised {rec['failure'][0]}" if rec["failure"]
                   else f"exit {rec['rc']}")
        h.update(f"{rec['label']}\n{outcome}\n{rec['stdout']}"
                 f"{rec['stderr']}\0".encode())
    return h.hexdigest()


def failed(rec) -> bool:
    return rec["failure"] is not None or rec["problem"] is not None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed op is +inf, above every success."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def end_to_end(records, timed: float, rss_kib: int, setup_times) -> dict:
    lat = [math.inf if failed(r) else r["seconds"] for r in records]
    ok = sum(1 for r in records if not failed(r))
    return {
        "op_s_p50": (percentile(lat, 0.50), "s"),
        "op_s_p90": (percentile(lat, 0.90), "s"),
        "ops_per_s": (ok / timed, "1/s"),
        "ok_ratio": (ok / len(records), "ratio"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "grrdecomp", "cli.py")):
        print(f"error: no grrdecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    setup_times: list[float] = []
    try:
        seq = timed_setups(args.workload, args.seed, workdir, SETUPS_BEFORE,
                           setup_times)
        first = len(seq.ops)
        import grrdecomp
        if not os.path.abspath(grrdecomp.__file__).startswith(SRC + os.sep):
            print(f"error: grrdecomp imported from {grrdecomp.__file__}",
                  file=sys.stderr)
            return 2
        cli = sys.modules["grrdecomp.cli"]
        if args.trace:
            records, tracer = run_traced(seq, first, cli)
            timed = sum(r["seconds"] for r in records)
        else:
            records, timed = run_ops(seq, args.seconds, first, cli)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check(seq, records)
        # the checks use the instances' text, so the inputs can go
        timed_setups(args.workload, args.seed, workdir, SETUPS_AFTER,
                     setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from spans import layer_metrics
        metrics = layer_metrics(tracer, [r["seconds"] for r in records],
                                [r["plain_s"] for r in records])
    else:
        metrics = end_to_end(records, timed, rss_kib, setup_times)
    n_failed = sum(1 for r in records if failed(r))
    wrong = [r for r in records if r["problem"] is not None]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest_ops": first, "digest": digest(records[:first]),
        "timed_s": timed, "setup_s": setup_times,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "ops": [{k: r[k] for k in ("op", "label", "seconds", "rc", "failure",
                                   "problem")} for r in records],
    }
    if args.trace:
        detail["spans"] = tracer.spans
        detail["counts"] = dict(tracer.counts)
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops in {timed:.2f} s, digest {detail['digest']} "
          f"over the first {detail['digest_ops']} ops")
    kinds: dict = {}
    for r in records:
        if r["failure"] is not None:
            key = f"raised {r['failure'][0]} from {r['failure'][1]}"
            kinds.setdefault(key, []).append(r["label"])
    for key, labels in kinds.items():
        print(f"failed: {len(labels)} ops {key}, e.g. {labels[0]}")
    for r in wrong:
        print(f"wrong output: {r['label']}: {r['problem']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong, "attempted": len(records), "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
