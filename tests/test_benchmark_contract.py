"""Every name the benchmark traces must resolve in the modules it names,
and every catalog check must be a per-layer metric of BENCHMARK.json.

perfbench/spans.py wraps these functions from outside the package and
records a missing one as absent, which would silently zero its metric.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TRACED = sorted({(key, attr) for _, attr, keys in spans.CALLS for key in keys}
                | {(key, attr) for _, attr, key in spans.GENERATORS})


@pytest.mark.parametrize("key,attr", TRACED,
                         ids=[f"{key}.{attr}" for key, attr in TRACED])
def test_traced_name_resolves(key, attr):
    module = importlib.import_module(f"posemiring.{key}")
    assert callable(getattr(module, attr, None))


def test_catalog_is_a_list_of_checks():
    from posemiring import harness

    assert isinstance(harness.CATALOG, list)
    assert all(callable(check.fn) for check in harness.CATALOG)


def test_catalog_ids_are_the_benchmark_check_metrics():
    # a traced run reports one harness.check.<id>.self_s per catalog entry,
    # so adding, dropping or renaming a check changes the benchmark's keys
    from posemiring import harness

    declared = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer"]]
    prefix, suffix = "harness.check.", ".self_s"
    traced = [name[len(prefix):-len(suffix)] for name in names
              if name.startswith(prefix) and name.endswith(suffix)]
    assert sorted(traced) == sorted(check.id for check in harness.CATALOG)


def test_traced_census_counts_every_layer():
    # the census workload's layer metrics read these counts; a search that
    # stopped calling the traced generators would leave them at 0
    keys = ({key for _, _, keys in spans.CALLS for key in keys}
            | {key for _, _, key in spans.GENERATORS})
    lib = SimpleNamespace(**{key: importlib.import_module(f"posemiring.{key}")
                             for key in keys})
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        for n in range(2, 7):
            lib.census.enumerate_posemirings(n)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert (tracer.items["census.lattice"], tracer.items["census.search"],
            tracer.items["census.enumerate"]) == (25, 179, 165)


def test_traced_catalog_counts_every_decomposition():
    # the catalog reaches recognize_small_z, peel_boolean and split_two_star
    # by their public names, so each call is a constructions.decompose span
    keys = {key for _, _, keys in spans.CALLS for key in keys}
    lib = SimpleNamespace(**{key: importlib.import_module(f"posemiring.{key}")
                             for key in keys})
    corpus = lib.harness.census_corpus(6)
    corpus.posemirings += lib.harness.construction_grid().posemirings
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        report = lib.harness.run_catalog(corpus)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert report.counts["fail"] == 0
    assert sum(span[0] == "constructions.decompose"
               for span in tracer.spans) == 210


def test_traced_ring_catalog_times_every_ring_check():
    # the tracer replaces the CATALOG entries in place, so run_catalog must
    # read its checks from CATALOG when it runs, not from a copy made earlier
    keys = {key for _, _, keys in spans.CALLS for key in keys}
    lib = SimpleNamespace(**{key: importlib.import_module(f"posemiring.{key}")
                             for key in keys})
    corpus = lib.harness.Corpus(rings=[("zn:12", lib.ringlab.ring_zn(12))])
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        lib.harness.run_catalog(corpus)
    finally:
        tracer.uninstall()
    ring_checks = {f"harness.check.{check.id}" for check in lib.harness.CATALOG
                   if check.scope == "ring"}
    assert ring_checks == {span[0] for span in tracer.spans} & ring_checks
