"""Benchmark of the posemiring package: one workload per run.

    python3 perfbench/run.py --workload census|catalog|rings|iso \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  Each workload runs in this one
process as a closed loop with one client: the next op starts when the
previous one has returned.  The loop runs whole passes over the seeded inputs
until ``--seconds`` have passed, so every input is measured equally
often.  An op's output is checked after its timer stops.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate for ``--seconds`` in total; the JSON holds the per-layer metrics
and ``trace.overhead``, and the spans are written to ``perfbench/out/``.
The lines before the JSON explain the numbers.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("core", "graphs", "constructions", "ringlab", "census", "harness")
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def import_package():
    """Import the package afresh from ``src/``, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "posemiring" or m.startswith("posemiring.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"posemiring.{m}")
                             for m in MODULES})
    if not Path(lib.core.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"posemiring was imported from {lib.core.__file__}, "
                         f"not from {SRC}")
    return lib


def setup(workload, seed):
    """Imports, input generation and corpus build, timed ``SETUP_REPEATS`` times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = import_package()
        wl = WORKLOADS[workload](lib, seed)
        times.append(perf_counter() - start)
    return lib, wl, times


@dataclass
class Phase:
    """Latencies of whole passes; ``best[i]`` is item i's fastest op."""

    best: list
    ops: int = 0
    op_time: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    first: dict = field(default_factory=dict)    # item index -> signature

    @property
    def ops_per_s(self):
        return len(self.best) / sum(self.best)


def run_pass(wl, phase, tracer=None, expected=None):
    """One pass over ``wl.items``; outputs are checked outside op timing.

    ``expected`` holds the signatures of an earlier phase; an op whose output
    differs from it fails.
    """
    for i, item in enumerate(wl.items):
        if tracer is not None:
            tracer.op = phase.ops
            root = tracer.open("op")
        t0 = perf_counter()
        try:
            out, error = wl.run(item), None
        except Exception as exc:
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        phase.latencies.append(dt)
        phase.best[i] = min(phase.best[i], dt)
        phase.op_time += dt
        phase.ops += 1
        if error is None:
            try:
                error = wl.check(item, out)
                sig = wl.signature(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            if expected is not None and i in expected and sig != expected[i]:
                error = "output differs from the untraced run"
            elif phase.ops <= len(wl.items):
                phase.first[i] = sig
        if error is not None:
            phase.failures.append(f"{wl.label(item)}: {error}")


def measure(wl, seconds, tracer=None, expected=None) -> Phase:
    """Whole passes until ``seconds`` have passed; at least one."""
    phase = Phase(best=[float("inf")] * len(wl.items))
    deadline = perf_counter() + seconds
    while True:
        run_pass(wl, phase, tracer, expected)
        if perf_counter() >= deadline:
            return phase


def end_to_end(phase: Phase, setup_times):
    """End-to-end metrics from each input's fastest op over the passes.

    On a shared machine the clock speed can drift by half between stretches
    of seconds or minutes, so a run reports best-of-passes latencies, as
    ``timeit`` does: higher values are mostly other load, and every input
    gets the same number of tries.
    """
    best = sorted(phase.best)
    tail = oracle.tail_percentile(len(best))
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (oracle.percentile(best, 50) * 1e3, "ms"),
        "op_tail_ms": (oracle.percentile(best, tail) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, tail


def trace_report(wl, tracer, summary):
    """Lines naming the slowest (check, instance) rows and iso call counts."""
    n = len(wl.items)
    rows = defaultdict(list)
    for (cid, op), (own, incl) in summary.check_rows.items():
        rows[cid, wl.label(wl.items[op % n])].append((own, incl))
    slow = sorted(((statistics.median(v[0] for v in vals),
                    statistics.median(v[1] for v in vals), cid, label)
                   for (cid, label), vals in rows.items()), reverse=True)
    lines = []
    if slow:
        lines.append("slowest (check, instance) rows, median over passes:")
        lines += [f"  {cid:<12} {label:<28} self_ms={own * 1e3:.2f} "
                  f"incl_ms={incl * 1e3:.2f}"
                  for own, incl, cid, label in slow[:10]]
    if wl.name == "iso":
        per_order = defaultdict(set)
        for op, calls in summary.iso_calls.items():
            item = wl.items[op % n]
            per_order[item.order].add(summary.analyze_in_iso[op] / calls)
        lines.append("analyze_elements calls per find_isomorphism, by order n:")
        lines += [f"  n={k}: {sorted(v)}" for k, v in sorted(per_order.items())]
    if tracer.absent:
        lines.append("absent: " + ", ".join(tracer.absent))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "posemiring" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'posemiring'}")
    sys.path.insert(0, str(SRC))
    lib, wl, setup_times = setup(args.workload, args.seed)
    wl.prepare()
    gc.collect()
    n = len(wl.items)
    if not args.trace:
        plain = measure(wl, args.seconds)
        phases = [plain]
    else:
        # Untraced and traced passes alternate, so that both see the same
        # machine; the first untraced pass sets the outputs to reproduce.
        plain = Phase(best=[float("inf")] * n)
        traced = Phase(best=[float("inf")] * n)
        phases = [plain, traced]
        tracer = spans.Tracer()
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or not traced.ops:
            run_pass(wl, plain)
            tracer.install(lib)
            try:
                run_pass(wl, traced, tracer, expected=plain.first)
            finally:
                tracer.uninstall()
    metrics, tail = end_to_end(plain, setup_times)
    lat = sorted(plain.latencies)
    lines = [
        f"workload={wl.name} seed={args.seed} inputs={n} "
        f"passes={plain.ops // n} ops={plain.ops} op_time_s={plain.op_time:.3f}",
        f"metrics use each input's fastest op over {plain.ops // n} passes: "
        f"op_p50_ms over n={n} inputs, op_tail_ms is p{tail}",
        f"all ops: ops_per_s={plain.ops / plain.op_time:.6g} "
        f"p50_ms={oracle.percentile(lat, 50) * 1e3:.6g} "
        f"max_ms={lat[-1] * 1e3:.6g}",
        f"setup_s is the median of {', '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    if args.trace:
        summary = spans.summarise(tracer)
        check_ids = [c.id for c in lib.harness.CATALOG]
        metrics = spans.per_layer(summary, traced.ops, check_ids,
                                  tracer.absent)
        metrics["trace.overhead"] = (traced.ops_per_s / plain.ops_per_s,
                                     "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        lines += [f"traced ops={traced.ops} spans={len(tracer.spans)} "
                  f"written to {path.relative_to(HERE.parent)}"]
        lines += trace_report(wl, tracer, summary)
    else:
        lines += [f"{k}={v:.6g} {unit}" for k, (v, unit) in metrics.items()]

    attempted = sum(p.ops for p in phases)
    failures = [f for p in phases for f in p.failures]
    lines.append(f"fail_ratio={len(failures) / attempted:.6g} "
                 f"({len(failures)}/{attempted})")
    lines += [f"FAILED {f}" for f in failures[:20]]
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
