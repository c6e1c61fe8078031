"""Command-line entry point: one binary, subcommand per module.

Exit codes: 0 success, 1 negative result (invalid instance, non-isomorphic,
failing theorem checks), 2 usage / parse / I/O errors, 130 interrupted
(Ctrl-C).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import census as census_mod
from . import constructions as cons
from . import graphs, harness, ringlab
from .core import (
    ClosureError,
    DomainError,
    NotApplicableError,
    StructureError,
    analyze_elements,
    check_conditions,
    find_isomorphism,
    parse_psr,
    to_text,
    verify_axioms,
)
from .graphs import classify_shape, export_dot


class CliError(Exception):
    """Fatal usage or input problem; message goes to stderr, exit code 2."""


def _read_psr(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_psr(fh.read())
        except (StructureError, UnicodeDecodeError) as exc:
            raise CliError(f"{path}: {exc}") from exc


def _read_valid_psr(path: str):
    """A psr file, rejected unless it satisfies the axioms."""
    A = _read_psr(path)
    verify_axioms(A).require_valid(path)
    return A


def _load_instance(arg: str):
    """A positional instance argument: a psr file path or a construction
    spec, rejected unless it satisfies the axioms (specs are verified when
    they are built)."""
    if os.path.exists(arg):
        return _read_valid_psr(arg)
    try:
        return cons.construct_from_text(arg)
    except (StructureError, DomainError) as exc:
        raise CliError(f"{arg}: not a file and not a construction spec "
                       f"({exc})") from exc


def _emit(payload, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _names(A, xs):
    return [A.names[x] for x in sorted(xs)]


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args):
    path = args.input       # an invalid file is reported on, not rejected
    A = _read_psr(path) if os.path.exists(path) else _load_instance(path)
    report = verify_axioms(A)
    payload = {"valid": report.valid,
               "violations": [{"axiom": ax, "witness": list(w)}
                              for ax, w in report.violations]}
    lines = ["valid" if report.valid else "invalid"]
    lines += [f"  {ax} at {tuple(w)}" for ax, w in report.violations]
    _emit(payload, args.json, lines)
    return 0 if report.valid else 1


def cmd_analyze(args):
    A = _load_instance(args.input)
    ana = analyze_elements(A)
    cond = check_conditions(A)
    payload = {
        "order": A.order,
        "zero_divisors": _names(A, ana.zero_divisors),
        "nilpotency": {A.names[x]: k for x, k in sorted(ana.nilpotency.items())},
        "idempotents": _names(A, ana.idempotents),
        "primitive_idempotents": _names(A, ana.primitive_idempotents),
        "primes": _names(A, ana.primes),
        "maximals": _names(A, ana.maximals),
        "minimals": _names(A, ana.minimals),
        "c1": cond.c1, "c2": cond.c2, "c3": cond.c3,
    }
    lines = [f"order {A.order}",
             "Z = {" + ", ".join(_names(A, ana.zero_divisors)) + "}",
             "nilpotent: " + ", ".join(
                 f"{A.names[x]}^{k}=0" for x, k in sorted(ana.nilpotency.items())),
             "idempotents: " + ", ".join(_names(A, ana.idempotents)),
             "primes: " + ", ".join(_names(A, ana.primes)),
             "maximals: " + ", ".join(_names(A, ana.maximals)),
             "minimals: " + ", ".join(_names(A, ana.minimals)),
             f"c1={str(cond.c1).lower()} c2={str(cond.c2).lower()} "
             f"c3={str(cond.c3).lower()}"]
    _emit(payload, args.json, lines)
    return 0


def _shape_payload(shape, m):
    G = shape.graph
    return {
        "shape": shape.tag,
        "params": list(shape.params),
        "line": shape.line(),
        "vertices": G.n,
        "edges": len(G.edges()),
        "diameter": (None if m.diameter is None
                     else "inf" if m.diameter == float("inf")
                     else m.diameter),
        "girth": m.girth,
        "clique_number": m.clique_number,
        "triangle_free": m.triangle_free,
        "quadrilateral_free": m.quadrilateral_free,
    }


def _graph_output(args, A, shape):
    G = shape.graph
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(G, A.names))
    if args.shape:
        print(shape.line())
        return 0
    m = graphs.graph_metrics(shape)
    payload = _shape_payload(shape, m)
    payload["vertex_names"] = [A.names[v] for v in G.vertices]
    lines = [shape.line(),
             "vertices: " + ", ".join(A.names[v] for v in G.vertices),
             f"edges={len(G.edges())} diameter={m.diameter} girth={m.girth} "
             f"clique={m.clique_number}"]
    _emit(payload, args.json, lines)
    return 0


def cmd_graph(args):
    A = _load_instance(args.input)
    return _graph_output(args, A, classify_shape(cons.posemiring_zdgraph(A)))


def _write_psr(A, as_json: bool, output=None):
    """Write A as psr text to `output` or stdout; JSON summary if asked."""
    text = to_text(A)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if as_json:
            print(json.dumps({"order": A.order, "path": output},
                             sort_keys=True))
    elif as_json:
        print(json.dumps({"order": A.order, "psr": text}, sort_keys=True))
    else:
        sys.stdout.write(text)
    return 0


def cmd_construct(args):
    try:
        A = cons.construct_from_text(args.spec)
    except (StructureError, DomainError) as exc:
        raise CliError(f"{args.spec}: {exc}") from exc
    return _write_psr(A, args.json, args.output)


def cmd_product(args):
    A = _load_instance(args.left)
    B = _load_instance(args.right)
    return _write_psr(cons.direct_product(A, B), args.json, args.output)


def cmd_iso(args):
    A = _load_instance(args.left)
    B = _load_instance(args.right)
    perm = find_isomorphism(A, B)
    if perm is None:
        _emit({"isomorphic": False}, args.json, ["non-isomorphic"])
        return 1
    _emit({"isomorphic": True, "permutation": list(perm)}, args.json,
          ["isomorphic: " + " ".join(str(p) for p in perm)])
    return 0


def cmd_enumerate(args):
    result = census_mod.enumerate_posemirings(args.order)
    if args.emit_dir:
        os.makedirs(args.emit_dir, exist_ok=True)
        for A in result.instances:
            # a representative's serialization is its canonical key
            key = b"".join(map(bytes, A.add + A.mul))
            name = hashlib.sha256(key).hexdigest()[:16] + ".psr"
            with open(os.path.join(args.emit_dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(to_text(A))
    summary = (f"order={result.order} classes={result.count_up_to_iso} "
               f"labeled={result.count_labeled} seconds={result.seconds:.3f}")
    payload = {"order": result.order, "classes": result.count_up_to_iso,
               "labeled": result.count_labeled,
               "seconds": round(result.seconds, 3)}
    _emit(payload, args.json, [summary])
    return 0


def cmd_ring(args):
    try:
        return _ring_op(args, ringlab.make_ring(args.spec))
    except (StructureError, DomainError) as exc:
        raise CliError(f"{args.spec}: {exc}") from exc


def _ring_op(args, R):
    if args.op == "ideals":
        rows = [{"name": ringlab.ideal_name(R, i), "size": len(i.members),
                 "members": sorted(i.members)} for i in R.ideals]
        lines = [f"{r['name']} size={r['size']}" for r in rows]
        _emit({"count": len(rows), "ideals": rows}, args.json, lines)
        return 0
    if args.op == "semiring":
        table, _ = ringlab.ideal_semiring(R)
        return _write_psr(table, args.json)
    if args.op == "ag":
        shape, table = ringlab.annihilating_ideal_graph(R)
        return _graph_output(args, table, shape)
    if args.op == "zdgraph":
        shape = ringlab.ring_zdgraph(R)
        return _graph_output(args, R, shape)
    if args.op == "radicals":
        rad = ringlab.radicals(R)
        payload = {
            "nilradical": sorted(rad.nilradical.members),
            "jacobson": sorted(rad.jacobson.members),
            "idempotents": sorted(rad.idempotents),
            "local": ringlab.is_local(R),
        }
        lines = [
            "N = {" + ", ".join(R.names[x] for x in sorted(rad.nilradical.members)) + "}",
            "J = {" + ", ".join(R.names[x] for x in sorted(rad.jacobson.members)) + "}",
            "idempotents: " + ", ".join(R.names[x] for x in sorted(rad.idempotents)),
            f"local={str(ringlab.is_local(R)).lower()}",
        ]
        _emit(payload, args.json, lines)
        return 0
    raise CliError(f"unknown ring operation {args.op!r}")


def _theorem_corpus(spec: str) -> harness.Corpus:
    if spec.startswith("census:"):
        try:
            max_n = int(spec[len("census:"):])
        except ValueError:
            raise CliError(f"bad corpus spec {spec!r}") from None
        if not 2 <= max_n <= census_mod.FAST_CAP:
            raise CliError(f"{spec}: census order must be in "
                           f"[2, {census_mod.FAST_CAP}], got {max_n}")
        return harness.full_corpus(max_n)
    if spec.startswith("files:"):
        directory = spec[len("files:"):]
        if not directory:
            raise CliError(f"bad corpus spec {spec!r}")
        corpus = harness.Corpus()
        for entry in sorted(os.listdir(directory)):
            if entry.endswith(".psr"):
                corpus.posemirings.append(
                    (entry, _read_valid_psr(os.path.join(directory, entry))))
        if not corpus.posemirings:
            raise CliError(f"{directory}: no .psr files found")
        return corpus
    if spec == "rings:default":
        corpus = harness.Corpus()
        corpus.rings.extend(harness.default_ring_corpus())
        return corpus
    raise CliError(f"unknown corpus spec {spec!r} "
                   "(census:<n> | files:<dir> | rings:default)")


def cmd_theorems(args):
    corpus = _theorem_corpus(args.corpus)
    check_ids = None if args.check == "all" else args.check.split(",")
    report = harness.run_catalog(corpus, check_ids)
    if check_ids is not None:
        ran = {cid for cid, _, _ in report.results}
        idle = [cid for cid in dict.fromkeys(check_ids) if cid not in ran]
        if idle:
            raise CliError(f"corpus {args.corpus} has no instance in the "
                           f"scope of {', '.join(idle)}")
    if args.report == "json" or args.json:
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if not report.failures else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posemiring",
        description="Finite po-semiring toolkit: verification, graphs, "
                    "constructions, rings, census, theorem checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    p = add("verify", cmd_verify, help="check the axioms of an instance")
    p.add_argument("input", help="psr file or construction spec")

    p = add("analyze", cmd_analyze, help="element classes and conditions")
    p.add_argument("input", help="psr file or construction spec")

    p = add("graph", cmd_graph, help="zero-divisor graph and shape")
    p.add_argument("input", help="psr file or construction spec")
    p.add_argument("--shape", action="store_true",
                   help="print only the shape line")
    p.add_argument("--dot", metavar="PATH", help="write DOT export")

    p = add("construct", cmd_construct, help="build an instance from a spec")
    p.add_argument("spec", help="construction spec, e.g. example-2.6:k=2")
    p.add_argument("-o", "--output", metavar="PATH", help="write psr file")

    p = add("product", cmd_product, help="direct product of two instances")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", metavar="PATH", help="write psr file")

    p = add("iso", cmd_iso, help="find a table isomorphism (exit 1 if none)")
    p.add_argument("left")
    p.add_argument("right")

    p = add("enumerate", cmd_enumerate, help="census of a given order")
    p.add_argument("order", type=int)
    p.add_argument("--emit-dir", metavar="DIR",
                   help="write one psr file per isomorphism class")

    p = add("ring", cmd_ring, help="finite ring computations")
    p.add_argument("op", choices=("ideals", "semiring", "ag", "zdgraph",
                                  "radicals"))
    p.add_argument("spec", help="ring spec: zn:N | zpx:p:c1:c0 | "
                                "prod(a,b) | file:path")
    p.add_argument("--shape", action="store_true",
                   help="print only the shape line (ag/zdgraph)")
    p.add_argument("--dot", metavar="PATH", help="write DOT export "
                                                 "(ag/zdgraph)")

    p = add("theorems", cmd_theorems,
            help="run the theorem catalog (exit 1 on failures)")
    p.add_argument("--corpus", default="census:4",
                   help="census:<n> | files:<dir> | rings:default")
    p.add_argument("--check", default="all", help="comma-separated check ids")
    p.add_argument("--report", choices=("text", "json"), default="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, StructureError, DomainError, NotApplicableError,
            ClosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"error: {args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
