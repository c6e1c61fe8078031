import hashlib
import json
from collections import Counter

import pytest

from posemiring import constructions as cons
from posemiring import cli, harness
from posemiring.cli import main
from posemiring.core import parse_psr, to_text


def write_psr(tmp_path, name, A):
    path = tmp_path / name
    path.write_text(to_text(A))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_valid_file(self, tmp_path, capsys):
        path = write_psr(tmp_path, "a.psr", cons.trivial())
        code, out, _ = run(capsys, "verify", path)
        assert code == 0 and out.strip() == "valid"

    def test_invalid_file(self, tmp_path, capsys):
        text = to_text(cons.trivial()).replace("0 1\n1 1", "0 1\n1 0")
        path = tmp_path / "bad.psr"
        path.write_text(text)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1 and out.startswith("invalid")

    def test_spec_argument(self, capsys):
        code, out, _ = run(capsys, "verify", "example-2.6:k=2")
        assert code == 0

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.psr"
        path.write_text("not a psr file\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and err.startswith("error:")

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.psr"
        path.write_bytes(b"\xff\xfe\x00")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and err.startswith(f"error: {path}: ")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "trivial", "--json")
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}


class TestAnalyze:
    def test_example_2_6(self, capsys):
        code, out, _ = run(capsys, "analyze", "example-2.6:k=2")
        assert code == 0
        assert "Z = {a, b1, b2}" in out
        assert "c1=false c2=false c3=true" in out

    def test_json_keys(self, capsys):
        code, out, _ = run(capsys, "analyze", "trivial", "--json")
        data = json.loads(out)
        assert data["c1"] is True
        assert data["zero_divisors"] == []


    def test_json_pinned_on_grid_and_census5(self, tmp_path, capsys):
        # sha256 over `analyze --json` for every construction-grid instance
        # and every class of the census:5 corpus
        digest = hashlib.sha256()
        corpus = (harness.construction_grid().posemirings
                  + harness.census_corpus(5).posemirings)
        for name, A in corpus:
            code, out, _ = run(capsys, "analyze",
                               write_psr(tmp_path, f"{name}.psr", A), "--json")
            assert code == 0
            digest.update(f"{name}\n{out}".encode())
        assert digest.hexdigest() == (
            "69a8fb799908538cb2b6fdd76402fbdef2826ef18ba9430ba0e7c53911d2702d")


class TestGraph:
    def test_shape_line(self, capsys):
        code, out, _ = run(capsys, "graph", "example-2.6:k=2", "--shape")
        assert code == 0 and out.strip() == "star r=2"

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "example-2.6:k=1",
                         "--shape", "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("graph zd {")

    def test_json_metrics(self, capsys):
        code, out, _ = run(capsys, "graph", "example-2.6:k=2", "--json")
        data = json.loads(out)
        assert data["shape"] == "star"
        assert data["vertices"] == 3


    def test_json_pinned_on_construction_grid(self, tmp_path, capsys):
        # sha256 over `graph --json` for every construction-grid instance
        digest = hashlib.sha256()
        for name, A in harness.construction_grid().posemirings:
            code, out, _ = run(capsys, "graph",
                               write_psr(tmp_path, f"{name}.psr", A), "--json")
            assert code == 0
            digest.update(f"{name}\n{out}".encode())
        assert digest.hexdigest() == (
            "63cfe250efb5b5a1228876708372697303a90f88c1e3be8bda1372a4dd7455af")

    def test_json_pinned_on_large_graphs(self, capsys):
        # ring AG and zero-divisor graphs of up to 207 vertices, and the
        # 62-vertex graph of {0,1}^6 (not a ring spec, so through `graph`)
        digest = hashlib.sha256()
        runs = [("ring", op, spec) for spec in ("zn:210", "prod(zn:12,zn:20)")
                for op in ("ag", "zdgraph")] + [("graph", "bool:n=6")]
        for argv in runs:
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            digest.update(" ".join(argv).encode() + b"\n" + out.encode())
        assert digest.hexdigest() == (
            "81f809440102ed8bde50518ca7c15bd0309b783baf32433a4b46b10050c9ffc2")


class TestConstructAndProduct:
    def test_construct_writes_file(self, tmp_path, capsys):
        path = tmp_path / "e.psr"
        code, _, _ = run(capsys, "construct", "example-3.2:k=1",
                         "-o", str(path))
        assert code == 0
        assert parse_psr(path.read_text()).order == 4

    def test_construct_stdout_verifies(self, capsys):
        code, out, _ = run(capsys, "construct", "chain:k=2")
        assert code == 0
        assert parse_psr(out).order == 4

    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "construct", "nonsense:k=1")
        assert code == 2 and "error:" in err

    def test_repeated_parameter_exit_2(self, capsys):
        code, out, err = run(capsys, "construct", "chain:k=1,k=2")
        assert (code, out) == (2, "")
        assert err == "error: chain:k=1,k=2: chain: duplicate parameter 'k'\n"
        code, out, _ = run(capsys, "iso", "chain:k=1,k=2", "chain:k=2")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("spec,message", [
        ("chain:k=1,", "malformed parameter ''"),
        ("product(chain:k=1,)", "unknown construction kind ''")])
    def test_spec_error_names_the_spec(self, capsys, spec, message):
        code, out, err = run(capsys, "construct", spec)
        assert (code, out) == (2, "")
        assert err == f"error: {spec}: {message}\n"

    # one error each; the messages the spec grammar has always given
    @pytest.mark.parametrize("spec,message", [
        ("bool:n=9", "boolean power 9 exceeds cap 6"),
        ("bool:n=0", "boolean power needs n >= 1"),
        ("bool:n=300", "parameter n=300 exceeds cap 256"),
        ("chain:k=255", "order 257 exceeds cap 256"),
        ("chain:k=300", "parameter k=300 exceeds cap 256"),
        ("chain:k=-1", "chain length must be >= 0"),
        ("chain:k=two", "parameter k must be an integer"),
        ("chain:k=1,k=2", "chain: duplicate parameter 'k'"),
        ("chain:k", "malformed parameter 'k'"),
        ("chain", "chain: missing ['k'], unexpected []"),
        ("chain:k=2,extra=1", "chain: missing [], unexpected ['extra']"),
        ("chain:k=1,", "malformed parameter ''"),
        ("unknown", "unknown construction kind 'unknown'"),
        ("nonsense:k=1", "unknown construction kind 'nonsense'"),
        ("product(trivial)", "product() takes two specs"),
        ("product(trivial,trivial,trivial)", "product() takes two specs"),
        ("adjoin-z1(trivial,trivial)", "adjoin-z1() takes one spec"),
        ("adjoin-z2c(trivial)", "adjoin-z2c(<spec>,u2=c|u)"),
        ("adjoin-z2c(chain:k=1,u2=x)", "u_square must be c or u, got 'x'"),
        ("example-4.6:k=1", "example-4.6: missing ['u2'], unexpected []"),
        ("example-4.6:k=0,u2=c", "need at least one b element (k >= 1)"),
        ("example-4.6:k=1,u2=x", "u_square must be zero/c/u, got 'x'"),
        ("example-4.7:k=2,n=3", "threshold position 3 needs chain length >= 3"),
        ("example-4.7:k=2,n=1", "threshold position must be > 1"),
        ("example-2.6:k=254", "order 257 exceeds cap 256"),
        ("product(bool:n=9,trivial)", "boolean power 9 exceeds cap 6"),
        ("product(trivial,u2=c)", "unknown construction kind 'u2=c'"),
        ("product(trivial,chain:k=x)", "parameter k must be an integer"),
        ("product(chain:k=1,)", "unknown construction kind ''"),
        ("product(chain:k=254,trivial)", "order 512 exceeds cap 256"),
        ("product(chain:k=200,chain:k=200)", "order 40804 exceeds cap 256"),
        ("adjoin-z1(chain:k=254)", "order 257 exceeds cap 256"),
        ("adjoin-z2c(chain:k=253,u2=c)", "order 257 exceeds cap 256"),
        ("adjoin-z1(bool:n=2)", "base instance is not integral"),
        ("adjoin-z2i(bool:n=2)", "base instance is not integral"),
        ("adjoin-z2c(example-4.6:k=1,u2=c)",
         "example-4.6: missing ['u2'], unexpected []"),
        ("product(chain:k=1,chain:k=1))", "unbalanced brackets"),
        ("product(chain:k=1),chain:k=1)", "unbalanced brackets"),
        ("product(product(trivial,trivial)", "unbalanced brackets"),
        ("chain:k=1)", "unbalanced brackets"),
    ])
    def test_single_error_spec_messages(self, capsys, spec, message):
        code, out, err = run(capsys, "construct", spec)
        assert (code, out) == (2, "")
        assert err == f"error: {spec}: {message}\n"

    def test_product(self, tmp_path, capsys):
        a = write_psr(tmp_path, "a.psr", cons.trivial())
        code, out, _ = run(capsys, "product", a, "example-3.2:k=1")
        assert code == 0
        assert parse_psr(out).order == 8


class TestIso:
    def test_isomorphic_exit_0(self, tmp_path, capsys):
        a = write_psr(tmp_path, "a.psr", cons.chain_lattice(1))
        code, out, _ = run(capsys, "iso", a, "chain:k=1")
        assert code == 0 and out.startswith("isomorphic")

    def test_non_isomorphic_exit_1(self, tmp_path, capsys):
        nil = cons.adjoin_z1(cons.trivial())
        a = write_psr(tmp_path, "a.psr", nil)
        code, out, _ = run(capsys, "iso", a, "chain:k=1")
        assert code == 1 and out.strip() == "non-isomorphic"


class TestEnumerate:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3")
        assert code == 0
        assert out.startswith("order=3 classes=2 labeled=2 seconds=")

    def test_emit_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "census3"
        code, _, _ = run(capsys, "enumerate", "3",
                         "--emit-dir", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.psr"))
        assert len(files) == 2
        for f in files:
            assert parse_psr(f.read_text()).order == 3

    def test_emit_dir_pinned(self, tmp_path, capsys):
        # sha256 over every file name and content for orders 2..6
        digest = hashlib.sha256()
        for n in range(2, 7):
            out_dir = tmp_path / str(n)
            code, _, _ = run(capsys, "enumerate", str(n),
                             "--emit-dir", str(out_dir))
            assert code == 0
            for f in sorted(out_dir.iterdir()):
                digest.update(f"{n}/{f.name}\n".encode())
                digest.update(f.read_bytes())
        assert digest.hexdigest() == (
            "799b7789d8c41ea37d3b07ea84feef6ef770c741b259e322b7bd60bc8b28e171")

    def test_emit_dir_pinned_order_seven(self, tmp_path, capsys):
        # sha256 over every file name and content for order 7 (723 files)
        digest = hashlib.sha256()
        code, _, _ = run(capsys, "enumerate", "7", "--emit-dir", str(tmp_path))
        assert code == 0
        for f in sorted(tmp_path.iterdir()):
            digest.update(f"7/{f.name}\n".encode())
            digest.update(f.read_bytes())
        assert digest.hexdigest() == (
            "04bcdd09cc2682bc5960cafecb87ad3496ccaa57aa7e01badfed67f0cfe9c027")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--json")
        data = json.loads(out)
        assert data["classes"] == 7 and data["labeled"] == 13
        assert sorted(data) == ["classes", "labeled", "order", "seconds"]

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "10")
        assert code == 2
        assert err == "error: order 10 outside [2, 9]\n"

    def test_mode_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "4", "--mode", "naive"])
        assert exc.value.code == 2


class TestRing:
    def test_ag_shape(self, capsys):
        code, out, _ = run(capsys, "ring", "ag", "zn:8", "--shape")
        assert code == 0 and out.strip() == "complete n=2"

    def test_ideals(self, capsys):
        code, out, _ = run(capsys, "ring", "ideals", "zn:12", "--json")
        data = json.loads(out)
        assert data["count"] == 6

    def test_semiring_is_psr(self, capsys):
        code, out, _ = run(capsys, "ring", "semiring", "zn:6")
        assert code == 0
        assert parse_psr(out).order == 4

    def test_zdgraph(self, capsys):
        code, out, _ = run(capsys, "ring", "zdgraph", "prod(zn:2,zn:4)",
                           "--shape")
        assert code == 0
        assert out.strip() == "two-star r=1 s=2 (K1+K1+K1+D_2)"

    def test_radicals(self, capsys):
        code, out, _ = run(capsys, "ring", "radicals", "zn:12", "--json")
        data = json.loads(out)
        assert data["nilradical"] == [0, 6]
        assert data["local"] is False

    def test_bad_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "ring", "ideals", "zn:huge")
        assert code == 2

    def test_outputs_pinned_on_default_rings(self, capsys):
        # sha256 over `ring ideals --json`, `ring semiring` and
        # `ring radicals --json` for every rings:default spec
        digest = hashlib.sha256()
        for spec, _ in harness.default_ring_corpus():
            for argv in (("ring", "ideals", spec, "--json"),
                         ("ring", "semiring", spec),
                         ("ring", "radicals", spec, "--json")):
                code, out, _ = run(capsys, *argv)
                assert code == 0
                digest.update(" ".join(argv).encode() + b"\n" + out.encode())
        assert digest.hexdigest() == (
            "45d5331f8da1b648b436e5a3d13e21f2e4b0f192eff0ed3dc0937c8ec09e0ffb")


class TestTheorems:
    def test_census_corpus_passes(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "census:3")
        assert code == 0
        assert "fail=0" in out.splitlines()[-1]

    def test_files_corpus_verifies_each_file_once(
            self, tmp_path, capsys, monkeypatch, axiom_kernel_calls):
        for i, A in enumerate([cons.trivial(), cons.boolean_power(2),
                               cons.example_3_2(2)]):
            write_psr(tmp_path, f"{i}.psr", A)
        parsed, read = [], cli._read_psr
        monkeypatch.setattr(
            cli, "_read_psr", lambda p: parsed.append(read(p)) or parsed[-1])
        code, _, _ = run(capsys, "theorems", "--corpus", f"files:{tmp_path}")
        assert code == 0 and len(parsed) == 3
        checked = Counter(map(id, axiom_kernel_calls))
        assert [checked[id(A)] for A in parsed] == [1, 1, 1]

    def test_census6_verdict_counts(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "census:6",
                           "--report", "json")
        assert code == 0
        assert json.loads(out)["counts"] == {
            "pass": 2237, "not-applicable": 2433, "fail": 0}

    def test_census7_verdict_counts_per_check(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "census:7",
                           "--report", "json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {
            "pass": 9829, "not-applicable": 11470, "fail": 0}
        got = Counter((row["check"], row["result"])
                      for row in data["results"])
        want = {
            "P2.1a": (925, 0), "P2.1b": (925, 0), "P2.1c": (925, 0),
            "P2.13": (925, 0), "P2.16": (925, 0),
            "T2.2": (241, 684), "T2.2t": (241, 684), "T2.3": (241, 684),
            "T2.7": (241, 684), "T2.9": (241, 684), "C3.8": (241, 684),
            "T3.1": (238, 687), "T3.5a": (247, 678), "T3.5b": (1, 924),
            "T3.5b-conv": (1, 5),
            "L3.3a": (6, 0), "L3.3b": (6, 0), "L3.3c": (6, 0),
            "L3.4a": (754, 171), "L3.4b": (754, 171), "L3.4c": (754, 171),
            "L4.1a": (43, 882), "L4.1b": (89, 836), "T4.2": (93, 832),
            "C4.3": (37, 888), "P4.5": (39, 886), "P4.8": (690, 235),
        }
        assert {check: (got[check, "pass"], got[check, "not-applicable"])
                for check, _ in got} == want
        # every row, witness and note as well as the counts
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6c5f783e8e7350309bec0b7b24b6bf3ec0bd69a420f7a6d41479344e8ee48cad")

    def test_rings_default_report_pinned(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "rings:default",
                           "--report", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e46443b489d2a903b5b4ed4dd677f64b3a2d952070e3f08882b8a18b86ee10b5")

    def test_check_selection(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "census:2",
                           "--check", "P2.1a,P2.16", "--report", "json")
        data = json.loads(out)
        checks = {row["check"] for row in data["results"]}
        assert checks == {"P2.1a", "P2.16"}
        assert code == 0

    def test_files_corpus(self, tmp_path, capsys):
        write_psr(tmp_path, "one.psr", cons.example_2_6(1))
        code, out, _ = run(capsys, "theorems", "--corpus",
                           f"files:{tmp_path}", "--check", "P2.1a")
        assert code == 0

    def test_unknown_corpus_exit_2(self, capsys):
        code, _, err = run(capsys, "theorems", "--corpus", "what:ever")
        assert code == 2

    @pytest.mark.parametrize("spec", ["census:", "files:"])
    def test_corpus_spec_without_argument_exit_2(self, capsys, spec):
        code, _, err = run(capsys, "theorems", "--corpus", spec)
        assert (code, err) == (2, f"error: bad corpus spec {spec!r}\n")

    @pytest.mark.parametrize("corpus,checks,idle", [
        ("census:3", "C2.5", "C2.5"),
        ("rings:default", "L3.3a", "L3.3a"),
        ("rings:default", "C2.5,L3.3a,T2.2,L3.3a", "L3.3a, T2.2"),
    ])
    def test_check_with_no_instance_in_scope_exit_2(self, capsys, corpus,
                                                    checks, idle):
        # a check that ran nowhere must not read as a pass
        code, out, err = run(capsys, "theorems", "--corpus", corpus,
                             "--check", checks)
        assert (code, out) == (2, "")
        assert err == (f"error: corpus {corpus} has no instance in the "
                       f"scope of {idle}\n")

    def test_check_all_runs_whatever_is_in_scope(self, capsys):
        code, out, _ = run(capsys, "theorems", "--corpus", "rings:default",
                           "--check", "all")
        assert code == 0
        assert out.splitlines()[-1] == "pass=668 fail=0 na=0"

    def test_unknown_check_exit_2(self, capsys):
        code, _, err = run(capsys, "theorems", "--corpus", "census:2",
                           "--check", "bogus")
        assert code == 2

    def test_files_corpus_parse_error_names_file(self, tmp_path, capsys):
        write_psr(tmp_path, "a_good.psr", cons.trivial())
        (tmp_path / "b_bad.psr").write_text("psr 1\norder 2\n")
        code, _, err = run(capsys, "theorems", "--corpus", f"files:{tmp_path}")
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'b_bad.psr'}: ")


class TestInvalidFiles:
    """A psr file that fails the axioms is rejected before any computation
    that assumes them; verify still reports on it."""

    # 0 < a, b < 1 with ab = a: b(a + b) = b but ba + bb = 1
    BAD = ("psr 1\norder 4\nnames 0 a b 1\nadd\n"
           "0 1 2 3\n1 1 3 3\n2 3 2 3\n3 3 3 3\n"
           "mul\n0 0 0 0\n0 1 1 1\n0 1 2 2\n0 1 2 3\n")

    @pytest.mark.parametrize("argv", [
        ("analyze", "{bad}"), ("graph", "{bad}"),
        ("iso", "{bad}", "bool:n=2"), ("iso", "bool:n=2", "{bad}"),
        ("product", "trivial", "{bad}"),
        ("theorems", "--corpus", "files:{dir}")])
    def test_rejected_with_exit_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.psr"
        bad.write_text(self.BAD)
        code, out, err = run(capsys, *(a.format(bad=bad, dir=tmp_path)
                                       for a in argv))
        assert code == 2 and out == ""
        assert err == (f"error: {bad}: not a po-semiring: "
                       "distributive at (2, 1, 2)\n")

    def test_verify_reports(self, tmp_path, capsys):
        bad = tmp_path / "bad.psr"
        bad.write_text(self.BAD)
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert out == "invalid\n  distributive at (2, 1, 2)\n"


class TestUserPathErrors:
    """An unusable path exits 2 with one line naming it, not a traceback."""

    def check(self, capsys, path, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_emit_dir_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "out"
        self.check(capsys, target, "enumerate", "3", "--emit-dir", str(target))

    def test_construct_output_missing_dir(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.psr"
        self.check(capsys, target, "construct", "trivial", "-o", str(target))

    def test_graph_dot_missing_dir(self, tmp_path, capsys):
        target = tmp_path / "missing" / "g.dot"
        self.check(capsys, target, "graph", "trivial", "--dot", str(target))

    def test_verify_directory(self, tmp_path, capsys):
        self.check(capsys, tmp_path, "verify", str(tmp_path))


class TestBoundedInputs:
    """Over-deep or over-large specs and files exit 2 with one line."""

    def check(self, capsys, *argv, prefix="error: "):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(prefix) and err.count("\n") == 1
        return err

    def test_deep_construction_spec(self, capsys):
        spec = "adjoin-z1(" * 1200 + "trivial" + ")" * 1200
        self.check(capsys, "construct", spec)

    def test_deep_ring_spec(self, capsys):
        spec = "prod(" * 1200 + "zn:2" + ",zn:2)" * 1200
        self.check(capsys, "ring", "ideals", spec)

    def test_over_cap_construction(self, capsys):
        err = self.check(capsys, "construct", "product(bool:n=5,bool:n=5)")
        assert "1024" in err

    def test_over_cap_parameter(self, capsys):
        self.check(capsys, "construct", "chain:k=100000000")

    def test_over_cap_psr_file(self, tmp_path, capsys):
        n = 257
        rows = [" ".join(["0"] * n)] * n
        path = tmp_path / "big.psr"
        path.write_text("\n".join(
            ["psr 1", f"order {n}", "names " + " ".join(map(str, range(n))),
             "add", *rows, "mul", *rows]) + "\n")
        self.check(capsys, "verify", str(path), prefix=f"error: {path}: ")

    @pytest.mark.parametrize("spec", ["zn:257", "prod(zn:16,zn:17)"])
    def test_over_cap_ring_spec(self, capsys, spec):
        err = self.check(capsys, "ring", "ideals", spec,
                         prefix=f"error: {spec}: ")
        assert "cap 256" in err or "[2, 256]" in err

    def test_over_cap_ring_file(self, tmp_path, capsys):
        n = 257
        rows = [" ".join(["0"] * n)] * n
        path = tmp_path / "big.ring"
        path.write_text("\n".join(
            ["ring 1", f"order {n}", "one 1",
             "names " + " ".join(map(str, range(n))),
             "add", *rows, "mul", *rows]) + "\n")
        err = self.check(capsys, "ring", "ideals", f"file:{path}",
                         prefix=f"error: file:{path}: ")
        assert "257" in err

    def test_non_utf8_ring_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.ring"
        path.write_bytes("ring 1\n# r\xe9sum\xe9\n".encode("latin-1"))
        err = self.check(capsys, "ring", "ideals", f"file:{path}",
                         prefix=f"error: file:{path}: ")
        assert "UTF-8" in err

    @pytest.mark.parametrize("spec,message", [
        ("prod(zn:2),zn:3)", "unbalanced brackets"),
        ("zn:2)", "unbalanced brackets"),
        ("file:", "bad file spec 'file:'"),
    ])
    def test_ring_spec_errors_name_the_spec(self, capsys, spec, message):
        code, out, err = run(capsys, "ring", "ideals", spec)
        assert (code, out) == (2, "")
        assert err == f"error: {spec}: {message}\n"

    @pytest.mark.parametrize("spec", ["census:1", "census:10"])
    def test_census_corpus_out_of_range(self, capsys, spec):
        err = self.check(capsys, "theorems", "--corpus", spec,
                         prefix=f"error: {spec}: ")
        assert "[2, 9]" in err

    @pytest.mark.parametrize("op", ["semiring", "ag"])
    def test_over_cap_ideal_count(self, capsys, op):
        spec = "prod(zn:2," * 6 + "zn:2" + ")" * 6      # F_2^7, 128 ideals
        err = self.check(capsys, "ring", op, spec, prefix=f"error: {spec}: ")
        assert "128 ideals exceed cap 64" in err


def test_ring_radicals_enumerates_ideals_once(monkeypatch, capsys):
    from posemiring import ringlab

    calls = []
    enumerate_ring_ideals = ringlab.enumerate_ring_ideals
    monkeypatch.setattr(ringlab, "enumerate_ring_ideals",
                        lambda R: calls.append(R) or enumerate_ring_ideals(R))
    code, _, _ = run(capsys, "ring", "radicals", "zn:12")
    assert code == 0 and len(calls) == 1


def test_interrupt_exits_130_without_traceback(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_theorems", interrupted)
    code, out, err = run(capsys, "theorems", "--corpus", "census:8")
    assert code == 130
    assert out == "" and err == "error: theorems: interrupted\n"
