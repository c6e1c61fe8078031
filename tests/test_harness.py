import gc
import json
from collections import Counter
from types import SimpleNamespace

import pytest

import oracles
from posemiring import constructions as cons
from posemiring import core, graphs, harness, ringlab
from posemiring.census import enumerate_posemirings
from posemiring.cli import main
from posemiring.core import StructureError, make_table
from posemiring.graphs import ZdGraph


def single_instance_corpus(name, A):
    corpus = harness.Corpus()
    corpus.posemirings.append((name, A))
    return corpus


def results_for(report, check_id, instance_id=None):
    return [res for cid, iid, res in report.results
            if cid == check_id and (instance_id is None or iid == instance_id)]


def verdict(check_id, *ctxs):
    """The catalog's verdict for one check: hypotheses first, then the check."""
    ((_, _, res),) = harness._run([harness._BY_ID[check_id]], "", *ctxs)
    return res


class TestCatalogStructure:
    def test_check_ids_unique(self):
        assert len(set(harness.CHECK_IDS)) == len(harness.CHECK_IDS)

    def test_scopes_valid(self):
        for check in harness.CATALOG:
            assert check.scope in ("posemiring", "product-pair", "ring")

    def test_unknown_check_id_rejected(self):
        corpus = single_instance_corpus("t", cons.trivial())
        with pytest.raises(StructureError):
            harness.run_catalog(corpus, check_ids=["nope"])

    def test_invalid_corpus_instance_named(self):
        bad = make_table(3, ("0", "a", "1"),
                         [[0, 1, 2], [1, 0, 2], [2, 2, 2]],
                         [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
        corpus = single_instance_corpus("broken-one", bad)
        with pytest.raises(StructureError) as info:
            harness.run_catalog(corpus)
        assert str(info.value) == ("corpus instance broken-one: not a "
                                   "po-semiring: distributive at (1, 2, 2)")


class TestNotApplicableDiscipline:
    def test_t27_na_on_example_2_6(self):
        corpus = single_instance_corpus("ex", cons.example_2_6(2))
        report = harness.run_catalog(corpus, check_ids=["T2.7"])
        (res,) = results_for(report, "T2.7")
        assert res.status == "not-applicable"

    def test_t22_na_when_no_chain_hypothesis(self):
        corpus = single_instance_corpus("ex", cons.example_3_2(1))
        report = harness.run_catalog(corpus, check_ids=["T2.2"])
        (res,) = results_for(report, "T2.2")
        assert res.status == "not-applicable"

    def test_small_z_checks_na_on_integral(self):
        corpus = single_instance_corpus("chain", cons.chain_lattice(2))
        report = harness.run_catalog(
            corpus, check_ids=["L4.1a", "L4.1b", "T4.2", "P4.5"])
        for _, _, res in report.results:
            assert res.status == "not-applicable"

    def test_pass_never_reported_without_hypotheses(self, census_instances):
        corpus = harness.Corpus()
        corpus.posemirings = [(f"c{i}", A)
                              for i, A in enumerate(census_instances)]
        from posemiring.core import check_conditions, zero_divisors
        report = harness.run_catalog(corpus, check_ids=["T2.3"])
        by_id = dict(zip((iid for _, iid, _ in report.results),
                         (res for _, _, res in report.results)))
        for iid, A in corpus.posemirings:
            if not check_conditions(A).c2:
                assert by_id[iid].status == "not-applicable"


class TestHypothesesAsData:
    """Each check's hypotheses are catalog data, tested by the runner."""

    def test_na_exactly_when_a_declared_hypothesis_fails(self):
        corpus = harness.census_corpus(6)
        corpus.posemirings += harness.construction_grid().posemirings
        corpus.posemirings += [(f"I({iid})", ringlab.ideal_semiring(R)[0])
                               for iid, R in harness.default_ring_corpus()]
        corpus.pairs = harness.census_pairs(3)
        corpus.rings = harness.default_ring_corpus()
        rows = {(cid, iid): res
                for cid, iid, res in harness.run_catalog(corpus).results}
        instances = [("posemiring", iid, (harness.Ctx(A),))
                     for iid, A in corpus.posemirings]
        instances += [("product-pair", iid, (
            harness.Ctx(a), harness.Ctx(b),
            harness.Ctx(cons.direct_product(a, b))))
            for iid, a, b in corpus.pairs]
        instances += [("ring", iid, (harness.RingCtx(R),))
                      for iid, R in corpus.rings]
        outcomes = Counter()
        for scope, iid, ctxs in instances:
            for check in harness.CATALOG:
                if check.scope != scope:
                    continue
                res = rows.pop((check.id, iid))
                failing = [note for holds, note in check.hypotheses
                           if not holds(*ctxs)]
                if failing:
                    # the note is that of the first hypothesis that fails
                    assert res == harness._na(failing[0]), (check.id, iid)
                else:
                    # so no check returns n/a once its hypotheses hold
                    assert res.status != "not-applicable", (check.id, iid)
                outcomes[scope, res.status] += 1
        assert rows == {}
        assert outcomes["posemiring", "not-applicable"] > 0
        assert outcomes["product-pair", "not-applicable"] > 0
        assert outcomes["ring", "pass"] > 0


class TestFiniteCaseAnnotation:
    def test_note_attached_on_pass(self):
        corpus = single_instance_corpus("b2", cons.boolean_power(2))
        report = harness.run_catalog(corpus, check_ids=["T2.2"])
        (res,) = results_for(report, "T2.2")
        assert res.status == "pass"
        assert res.note == "finite-case"


class TestSharedAnalysis:
    def test_sub_tables_get_no_analysis(self, monkeypatch, census_instances):
        # T3.5b, T4.2, P4.5 and P4.8 read Z(S) and minimal idempotents of
        # their split, recovered or peeled base directly, and
        # find_isomorphism reads its invariants from the tables
        grid = [A for _, A in harness.construction_grid().posemirings]
        two_stars = [cons.direct_product(cons.trivial(),
                                         cons.adjoin_z1(cons.chain_lattice(k)))
                     for k in (1, 2)]
        ctxs = [harness.Ctx(A)
                for A in list(census_instances) + grid + two_stars]
        for ctx in ctxs:
            ctx.ana, ctx.cond       # built before counting starts
        calls = []

        def counting(analyze):
            def wrapped(A):
                calls.append(A)
                return analyze(A)
            return wrapped

        monkeypatch.setattr(harness, "analyze_elements",
                            counting(harness.analyze_elements))
        monkeypatch.setattr(core, "analyze_elements",
                            counting(core.analyze_elements))
        applied = Counter()
        for ctx in ctxs:
            for cid in ("T3.5b", "T4.2", "P4.5", "P4.8"):
                calls.clear()
                res = verdict(cid, ctx)
                assert res.status != "fail"
                assert calls == []
                applied[cid] += res.status == "pass"
        assert min(applied.values()) > 0

    def test_conditions_computed_once_per_instance(self, monkeypatch):
        # the peel and two-star guards read the report the checks computed
        calls = []
        report = core._condition_report

        def counting(A):
            calls.append(A)
            return report(A)

        monkeypatch.setattr(core, "_condition_report", counting)
        corpus = harness.census_corpus(5)
        corpus.posemirings += harness.construction_grid().posemirings
        assert not harness.run_catalog(corpus).failures
        assert Counter(map(id, calls)) == Counter(
            id(A) for _, A in corpus.posemirings)

    def test_pair_bases_analysed_once_each(self, monkeypatch):
        calls = []
        analyze = harness.analyze_elements

        def counting(A):
            calls.append(A)
            return analyze(A)

        monkeypatch.setattr(harness, "analyze_elements", counting)
        pairs = harness.census_pairs(3)
        # equal tables built apart share their Ctx too
        pairs += [(f"copy-{iid}", make_table(A.order, A.names, A.add, A.mul),
                   B) for iid, A, B in pairs]
        bases = {A for _, A, B in pairs} | {B for _, A, B in pairs}
        report = harness.run_catalog(harness.Corpus(pairs=pairs))
        assert not report.failures
        assert Counter(A for A in calls if A.order <= 3) == \
            Counter(bases)
        assert len(bases) == 3


class TestSmallZOnce:
    """T4.2, C4.3 and P4.5 share one recognize_small_z outcome per Ctx."""

    def counting(self, monkeypatch, fn):
        calls = []

        def wrapped(A):
            calls.append(A)
            return fn(A)

        monkeypatch.setattr(cons, "recognize_small_z", wrapped)
        return calls

    def test_once_per_instance(self, monkeypatch, census_instances):
        calls = self.counting(monkeypatch, cons.recognize_small_z)
        grid = harness.construction_grid().posemirings
        corpus = harness.Corpus(posemirings=grid + [
            (f"c{i}", A) for i, A in enumerate(census_instances)])
        report = harness.run_catalog(corpus, check_ids=["T4.2", "C4.3",
                                                        "P4.5"])
        assert not report.failures
        assert len(calls) == len({id(A) for A in calls}) > 0

    @pytest.mark.parametrize("exc", [StructureError("rebuild differs"),
                                     core.ClosureError((1, 2, "mul"))])
    def test_raised_error_reaches_each_check(self, monkeypatch, exc):
        def raising(A):
            raise exc

        calls = self.counting(monkeypatch, raising)
        ctx = harness.Ctx(cons.boolean_power(2))   # T4.2 and C4.3 apply
        for chk in (harness.chk_t42, harness.chk_c43):
            assert chk(ctx) == harness.CheckResult("fail", witness=str(exc))
        assert len(calls) == 1

    def test_p45_keeps_its_closure_verdict(self, monkeypatch):
        def raising(A):
            raise core.ClosureError((1, 2, "mul"))

        self.counting(monkeypatch, raising)
        ctx = harness.Ctx(cons.example_4_6(1, "zero"))
        assert len(ctx.zset) == 2
        assert harness.chk_p45(ctx) == harness.CheckResult(
            "fail", witness=("closure", (1, 2, "mul")))


class TestSmallZMapCheck:
    def test_t42_fails_when_the_base_has_no_least_nonzero_element(self):
        # not a po-semiring: Z(A) = {c, u} incomparable, the base
        # {0, p, q, 1} has no least nonzero element, on which
        # adjoin_z2_incomparable raises DomainError, and c p = u.  The
        # rebuild takes a0 = c + u = 1 from A, so it needs no least
        # element; the construction map fails, and T4.2 reports a fail.
        base = make_table(4, ("0", "p", "q", "1"),
                          [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3],
                           [3, 3, 3, 3]],
                          [[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2],
                           [0, 1, 2, 3]])
        add, mul = cons._adjoin_rows(base, 2, *cons._low_incomparable(3))
        mul = list(map(bytearray, mul))
        mul[1][3] = mul[3][1] = 2
        A = make_table(6, ("0", "c", "u", "p", "q", "1"), add, mul)
        assert sorted(core.zero_divisors(A)) == [1, 2]
        assert harness.chk_t42(harness.Ctx(A)) == harness.CheckResult(
            "fail", witness="adjoin_z2_incomparable rebuild is not "
                            "isomorphic to the input")


class TestNoCyclicGarbage:
    """A catalog run frees everything it allocates by reference counting."""

    def test_ring_and_isomorphism_search_leave_no_cycles(self, monkeypatch):
        calls = []
        iso = core.find_isomorphism

        def counting(A, B):
            calls.append(A)
            return iso(A, B)

        for module in (harness, cons):
            monkeypatch.setattr(module, "find_isomorphism", counting)
        rings = harness.Corpus()
        rings.rings.append(("prod(zn:4,zn:6)",
                            ringlab.make_ring("prod(zn:4,zn:6)")))
        census6 = single_instance_corpus(
            "census6-45", enumerate_posemirings(6).instances[45])
        for corpus in (rings, census6):
            gc.collect()
            harness.run_catalog(corpus)
            assert gc.collect() == 0
        assert calls        # the census instance reached find_isomorphism


class TestReports:
    def test_deterministic_ordering(self):
        corpus = harness.Corpus()
        corpus.posemirings = [("b", cons.trivial()), ("a", cons.trivial())]
        r1 = harness.run_catalog(corpus, check_ids=["P2.1a", "P2.13"])
        r2 = harness.run_catalog(corpus, check_ids=["P2.13", "P2.1a"])
        assert [(c, i, r.status) for c, i, r in r1.results] == \
               [(c, i, r.status) for c, i, r in r2.results]
        assert r1.results[0][:2] == ("P2.13", "a")

    @pytest.mark.parametrize("ids", [
        [], ["P2.1a"], ["T2.3", "L4.1b", "P4.8"], ["L3.3b"],
        ["L3.3a", "T3.5b-conv"], ["C4.4"], ["Prop1.2", "C2.5", "C2.8"],
        ["P2.13", "L3.3c"], ["T2.7", "C2.8"], ["L3.3a", "C4.4"],
        ["P2.16", "T3.5b-conv", "Prop1.2"], list(harness.CHECK_IDS)])
    def test_selected_ids_give_the_full_report_filtered(self, ids):
        corpus = harness.census_corpus(4)
        corpus.pairs = harness.census_pairs()
        corpus.rings = [(spec, ringlab.make_ring(spec))
                        for spec in ("zn:12", "zpx:2:0:0", "prod(zn:2,zn:4)")]
        full = harness.run_catalog(corpus).results
        assert harness.run_catalog(corpus, ids).results == \
            [row for row in full if row[0] in ids]

    def test_json_schema(self):
        corpus = single_instance_corpus("t", cons.trivial())
        report = harness.run_catalog(corpus, check_ids=["P2.1a"])
        data = json.loads(report.to_json())
        assert set(data) == {"results", "counts"}
        row = data["results"][0]
        assert row["check"] == "P2.1a" and row["instance"] == "t"
        assert row["result"] in ("pass", "fail", "not-applicable")

    def test_text_summary_line(self):
        corpus = single_instance_corpus("t", cons.trivial())
        report = harness.run_catalog(corpus, check_ids=["P2.1a"])
        assert report.to_text().splitlines()[-1].startswith("pass=")


class TestFailureDetection:
    def test_fabricated_counterexample_fails(self):
        # an instance whose maximal element is not prime would falsify P2.1a;
        # instead, feed a wrong assertion through a doctored check on a real
        # instance: L4.1a must fail if we lie about the zero-divisor count.
        A = cons.adjoin_z1(cons.chain_lattice(1))
        res = verdict("L4.1a", harness.Ctx(A))
        assert res.status == "pass"
        # break the instance: make c^2 = c so the nilpotency claim fails
        mul = [list(r) for r in A.mul]
        mul[1][1] = 1
        B = make_table(A.order, A.names, A.add, mul)
        res = verdict("L4.1a", harness.Ctx(B))
        assert res.status in ("fail", "not-applicable")


class TestT29:
    """T2.9 under (C2) is T2.2 with P2.1a and T2.7: its verdict is the
    first of theirs that fails."""

    # chain 0 < a < b < 1, where T2.2 asks Z(A) = {a, b}; each context
    # doctors Z(A), the primes and the maximals
    @pytest.mark.parametrize("zset,primes,maximals,first", [
        ({1}, {2}, {2}, "chk_t22"),
        ({1}, {1}, {2}, "chk_t22"),
        ({1, 2}, {1}, {1, 2}, "chk_p21a"),
        ({1, 2}, {1}, {2}, "chk_p21a"),
        ({1, 2}, {1, 2}, {2}, "chk_t27"),
        ({1, 2}, {2}, {2}, None),
    ])
    def test_verdict_is_the_first_failing_part(self, zset, primes, maximals,
                                               first):
        ctx = SimpleNamespace(
            A=cons.chain_lattice(2), zset=frozenset(zset),
            ana=SimpleNamespace(primes=frozenset(primes),
                                maximals=frozenset(maximals)))
        res = harness.chk_t29(ctx)
        if first is None:
            assert res.status == "pass"
        else:
            assert res.status == "fail"
            assert res == getattr(harness, first)(ctx)


def l34a_on(edges, minimals=()):
    """chk_l34a on a hand-built context: vertices 1..6 of the given edges
    (element labels), with the given minimal elements."""
    masks = [0] * 6
    for a, b in edges:
        masks[a - 1] |= 1 << b - 1
        masks[b - 1] |= 1 << a - 1
    G = ZdGraph(vertices=tuple(range(1, 7)), masks=tuple(masks))
    ctx = SimpleNamespace(zset=frozenset(G.vertices), graph=G,
                          ana=SimpleNamespace(minimals=frozenset(minimals)))
    return harness.chk_l34a(ctx)


class TestL34a:
    """L3.4a: a path a-u-b outside every triangle and quadrilateral has a
    minimal middle vertex u."""

    def test_bare_path_fails_with_its_triple(self):
        assert l34a_on([(1, 2), (2, 3)]) == harness._fail((1, 2, 3))

    def test_bare_path_passes_with_minimal_middle(self):
        assert l34a_on([(1, 2), (2, 3)], minimals={2}).status == "pass"

    def test_only_common_neighbour_is_the_middle(self):
        # a = 1 and b = 3 have further neighbours, but none in common
        edges = [(1, 2), (2, 3), (1, 4), (3, 5), (4, 6), (5, 6)]
        res = l34a_on(edges, minimals={1, 3, 4, 5, 6})
        assert res == harness._fail((1, 2, 3))

    def test_path_inside_a_quadrilateral_passes(self):
        assert l34a_on([(1, 2), (2, 3), (3, 4), (4, 1)]).status == "pass"

    def test_path_inside_a_triangle_passes(self):
        assert l34a_on([(1, 2), (2, 3), (3, 1)]).status == "pass"


class TestProductPairChecks:
    def test_l33_on_known_pairs(self):
        corpus = harness.Corpus()
        corpus.pairs = [
            ("triv*ex32", cons.trivial(), cons.example_3_2(1)),
            ("ex32*ex32", cons.example_3_2(1), cons.example_3_2(1)),
            ("triv*chain", cons.trivial(), cons.chain_lattice(1)),
        ]
        report = harness.run_catalog(
            corpus, check_ids=["L3.3a", "L3.3b", "L3.3c", "T3.5b-conv"])
        assert not report.failures

    def test_two_star_converse_positive(self):
        corpus = harness.Corpus()
        corpus.pairs = [("p", cons.trivial(), cons.example_3_2(2))]
        report = harness.run_catalog(corpus, check_ids=["T3.5b-conv"])
        (res,) = results_for(report, "T3.5b-conv")
        assert res.status == "pass"


class TestRingChecks:
    def test_ring_scope_passes_on_small_rings(self):
        corpus = harness.Corpus()
        for spec in ("zn:4", "zn:6", "zn:8", "zn:12", "zpx:2:0:0"):
            corpus.rings.append((spec, ringlab.make_ring(spec)))
        report = harness.run_catalog(corpus)
        assert not report.failures
        assert report.counts["pass"] > 0

    def test_c44_positive_cases(self):
        corpus = harness.Corpus()
        corpus.rings = [("zn:8", ringlab.ring_zn(8)),
                        ("zn:6", ringlab.ring_zn(6)),
                        ("zn:27", ringlab.ring_zn(27))]
        report = harness.run_catalog(corpus, check_ids=["C4.4"])
        assert all(res.status == "pass" for _, _, res in report.results)


class TestGraphMetricsOnDemand:
    """Shapes and the acyclic test come from degrees, masks and a component
    count, and each check computes only the graph facts it reads; the full
    metrics are computed only for the graph commands."""

    def test_ring_catalog_computes_no_graph_metrics(self, monkeypatch,
                                                    capsys):
        calls = []
        metrics = graphs.graph_metrics
        monkeypatch.setattr(graphs, "graph_metrics",
                            lambda shape: calls.append(shape) or metrics(shape))
        report = harness.run_catalog(
            harness.Corpus(rings=harness.default_ring_corpus()))
        assert not report.failures and calls == []
        # the counter sees the ring graph command's read of the metrics
        assert main(["ring", "zdgraph", "zn:4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["girth"] is None \
            and len(calls) == 1

    def test_posemiring_catalog_computes_no_graph_metrics(self, monkeypatch,
                                                          capsys):
        calls = []
        metrics = graphs.graph_metrics

        def counting(shape):
            calls.append(shape)
            return metrics(shape)

        monkeypatch.setattr(graphs, "graph_metrics", counting)
        monkeypatch.setattr(harness, "graph_metrics", counting)
        corpus = harness.census_corpus(5)
        corpus.pairs += harness.census_pairs(3)
        report = harness.run_catalog(corpus)
        assert calls == []
        # the verdicts the catalog gave when it read the full metrics
        assert report.counts == {"pass": 430, "fail": 0,
                                 "not-applicable": 422}
        assert sorted(Counter(
            (cid, res.status) for cid, _, res in report.results
            if cid in ("L3.3a", "L3.3c", "L3.4b", "L3.4c")).items()) == [
            (("L3.3a", "pass"), 6), (("L3.3c", "pass"), 6),
            (("L3.4b", "not-applicable"), 11), (("L3.4b", "pass"), 25),
            (("L3.4c", "not-applicable"), 11), (("L3.4c", "pass"), 25)]
        # the graph command reads the full metrics once and prints each one
        assert main(["graph", "product(bool:n=2,chain:k=2)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert {key: payload[key] for key in (
            "diameter", "girth", "clique_number", "triangle_free",
            "quadrilateral_free")} == {
            "diameter": 3, "girth": 3, "clique_number": 3,
            "triangle_free": False, "quadrilateral_free": False}

    def test_acyclic_is_oracle_girth_none(self):
        for n in range(2, 8):
            for A in enumerate_posemirings(n).instances:
                ctx = harness.Ctx(A)
                assert ctx.acyclic == (
                    oracles.graph_metrics(ctx.graph).girth is None), A


class TestCorpusBuilders:
    def test_construction_grid_contents(self):
        grid = harness.construction_grid()
        ids = [iid for iid, _ in grid.posemirings]
        assert "ex2.6-k3" in ids
        assert "ex4.6-k2-zero" in ids
        assert "ex4.7-k3-n3" in ids
        assert "bool-3" in ids
        assert len(ids) == len(set(ids))

    def test_census_pairs_cover_orders(self):
        pairs = harness.census_pairs(3)
        assert len(pairs) == 6          # 3 bases -> 6 unordered pairs
        for _, A, B in pairs:
            assert 2 <= A.order <= 3 and 2 <= B.order <= 3

    def test_full_corpus_runs_the_census_once_per_order(self, monkeypatch):
        from posemiring import census

        calls = []
        enumerate_fast = census.enumerate_posemirings

        def counting(n):
            calls.append(n)
            return enumerate_fast(n)

        monkeypatch.setattr(census, "enumerate_posemirings", counting)
        for n in (2, 3, 5):
            calls.clear()
            corpus = harness.full_corpus(n)
            assert sorted(calls) == list(range(2, n + 1))
            assert corpus.pairs == harness.census_pairs(min(n, 3))
            assert [iid for iid, _ in corpus.posemirings] == [
                iid for iid, _ in harness.census_corpus(n).posemirings
                + harness.construction_grid().posemirings]

    def test_default_ring_corpus_size(self):
        rings = harness.default_ring_corpus()
        ids = [iid for iid, _ in rings]
        assert "zn:64" in ids
        assert "zpx:5:4:4" in ids
        assert any(iid.startswith("prod(") for iid in ids)
        assert len(ids) == len(set(ids))


class TestRingCorollaries:
    """C2.5 and C2.8 run T2.3 and P2.1a + T2.7 on I(R)."""

    def test_not_applicable_on_ideal_semiring_is_a_failure(self):
        # 0 < a < 1 with a idempotent: (C2) fails, which Prop 1.2 rules out
        # for any I(R), so the corollaries must report it instead of n/a
        A = make_table(3, ("0", "a", "1"),
                       [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                       [[0, 0, 0], [0, 1, 1], [0, 1, 2]])
        rctx = SimpleNamespace(ctx=harness.Ctx(A))
        assert not rctx.ctx.cond.c2
        for chk in (harness.chk_c25, harness.chk_c28):
            res = chk(rctx)
            assert res.status == "fail" and "(C2)" in res.witness

    def test_maximal_elements_of_ideal_semiring_are_maximal_ideals(self):
        for iid, R in harness.default_ring_corpus():
            if iid.startswith("zn:") and int(iid[3:]) > 24:
                continue
            rctx = harness.RingCtx(R)
            table, ideals = ringlab.ideal_semiring(R)
            maximal = {ideals[m].members for m in rctx.ctx.ana.maximals}
            assert maximal == {m.members for m in R.maximal_ideals}, iid

    def test_one_ideal_enumeration_per_ring(self, monkeypatch):
        calls = []
        enumerate_ring_ideals = ringlab.enumerate_ring_ideals

        def counting(R):
            calls.append(R)
            return enumerate_ring_ideals(R)

        monkeypatch.setattr(ringlab, "enumerate_ring_ideals", counting)
        specs = ("zn:12", "zn:13", "zpx:3:0:1", "prod(zn:2,zn:4)")
        corpus = harness.Corpus(
            rings=[(spec, ringlab.make_ring(spec)) for spec in specs])
        report = harness.run_catalog(corpus)
        assert not report.failures
        assert len(calls) == len(specs)

    def test_conditions_checked_once_per_ring(self, monkeypatch):
        calls = []
        check_conditions = core.check_conditions

        def counting(A):
            calls.append(A)
            return check_conditions(A)

        for module in (core, harness, cons):
            monkeypatch.setattr(module, "check_conditions", counting)
        rings = harness.default_ring_corpus()
        report = harness.run_catalog(harness.Corpus(rings=rings))
        assert not report.failures
        assert len(calls) == len(rings)
