import hashlib
import io
import json
import os

import pytest

import support
from maxsemi.cli import run
from maxsemi.max_subsemigroups import max_subsemigroups
from maxsemi.perm_group import Permutation
from maxsemi.rees_matrix import max_subsemigroups_rzms

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
RZMS_INPUT = os.path.join(DATA, "rzms_s4.json")
W_INPUT = os.path.join(DATA, "w_t7.json")


def invoke(args):
    buf = io.StringIO()
    code = run(args, buf)
    return code, buf.getvalue()


def invoke_json(args):
    code, text = invoke(args)
    assert code == 0, text
    return json.loads(text)


class TestMaximal:
    def test_rzms_s4_document(self):
        doc = invoke_json(["maximal", RZMS_INPUT])
        assert doc["schema"] == 1
        assert doc["size"] == 865
        assert len(doc["maximal_subsemigroups"]) == 32
        counts = doc["counts_by_type"]
        assert counts["R3"] + counts["R4"] == 9
        assert counts["R5"] == 14
        assert counts["R6"] == 9

    def test_w_contains_the_six_jclass_results(self):
        doc = invoke_json(["maximal", W_INPUT])
        tags = [r["type"] for r in doc["maximal_subsemigroups"]]
        assert tags.count("S3") == 2
        assert tags.count("S4") == 2
        assert tags.count("S5") == 2

    def test_types_filter(self):
        doc = invoke_json(["maximal", RZMS_INPUT, "--types", "R5"])
        assert doc["counts_by_type"] == {"R5": 14}
        assert all(r["type"] == "R5" for r in doc["maximal_subsemigroups"])

    @pytest.mark.parametrize("types, tag", [("R7", "R7"), ("r6", "r6"), ("R6,", "")])
    def test_unknown_type_tag_is_an_input_error(self, types, tag, capsys):
        code, out = invoke(["maximal", W_INPUT, "--types", types])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith(f"error: unknown type tag {tag!r} ")

    def test_verify_flag(self):
        doc = invoke_json(["maximal", W_INPUT, "--verify"])
        assert all(r["verified"] for r in doc["maximal_subsemigroups"])

    def test_verify_flag_rees_scale(self):
        code, text = invoke(["maximal", RZMS_INPUT, "--verify"])
        assert code == 0
        entries = json.loads(text)["maximal_subsemigroups"]
        assert len(entries) == 32
        assert all(r["verified"] is True for r in entries)
        # pins the whole document, every verdict included
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "616dfc5d4339272e2c0d602cc2c54a2b8fa72ac2137a3a7e6e9c15880a647efe")

    def test_generators_regenerate_sizes(self, w_semigroup, s4_rzms):
        # every generators array, closed by an outside model, gives the
        # element set of the result it stands for, and so its size
        def outside(path, element, mul):
            doc = invoke_json(["maximal", path])
            return {(r["type"], frozenset(support.right_closure(map(element, r["generators"]),
                                                                mul)))
                    for r in doc["maximal_subsemigroups"]}

        w = {(r.type_tag, frozenset(w_semigroup.elements[e].images for e in r.element_indices))
             for r in max_subsemigroups(w_semigroup)}
        assert outside(W_INPUT, lambda g: tuple(x - 1 for x in g), support.compose) == w
        with open(RZMS_INPUT) as f:
            model = support.IntegerRees(json.load(f))
        s4 = {(r.type_tag, frozenset(x if x == 0 else (x[0], x[1].images, x[2])
                                     for x in r.element_set))
              for r in max_subsemigroups_rzms(s4_rzms)}
        assert outside(RZMS_INPUT, model.element, model.multiply) == s4

    def test_byte_identical_runs(self):
        a = invoke(["maximal", RZMS_INPUT])
        b = invoke(["maximal", RZMS_INPUT])
        assert a == b

    def test_json_round_trip(self):
        code, text = invoke(["maximal", W_INPUT])
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc

    def test_timings_flag(self):
        plain = invoke_json(["analyze", W_INPUT])
        assert "timings" not in plain
        timed = invoke_json(["analyze", W_INPUT, "--timings"])
        assert timed["timings"]["total_s"] >= 0

    def test_stdin_input(self, monkeypatch):
        payload = json.dumps({"kind": "cayley_table", "table": [[0, 1], [1, 0]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        doc = invoke_json(["maximal", "-"])
        assert doc["size"] == 2
        assert doc["counts_by_type"] == {"MAX-R6": 1}


class TestAnalyze:
    def test_w_summary(self):
        doc = invoke_json(["analyze", W_INPUT])
        assert doc["size"] == 245
        big = [j for j in doc["j_classes"] if j["size"] == 144]
        assert len(big) == 1
        assert big[0]["n_l_classes"] == 4
        assert big[0]["n_r_classes"] == 6
        assert big[0]["regular"] is True

    def test_rzms_size(self):
        doc = invoke_json(["analyze", RZMS_INPUT])
        assert doc["size"] == 865
        assert doc["graham_houghton_edges"] == 11

    def test_one_element(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"kind": "cayley_table", "table": [[0]]}))
        doc = invoke_json(["analyze", str(path)])
        assert doc["size"] == 1
        assert len(doc["j_classes"]) == 1
        assert doc["j_classes"][0]["regular"] is True


class TestErrors:
    def test_malformed_cycle_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kind": "rzms", "group_degree": 4,
            "group_generators": ["(1 2"], "matrix": [["0"]]}))
        code, _ = invoke(["maximal", str(path)])
        assert code == 1
        assert "position" in capsys.readouterr().err

    def test_invalid_json_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "rzms",\n  broken')
        code, _ = invoke(["maximal", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_capacity_exits_2(self, capsys):
        code, _ = invoke(["maximal", W_INPUT, "--bound-closure", "10"])
        assert code == 2
        assert "10" in capsys.readouterr().err

    def test_capacity_stops_group_enumeration(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "s9.json"
        path.write_text(json.dumps({
            "kind": "rzms", "group_degree": 9,
            "group_generators": ["(1 2)", "(1 2 3 4 5 6 7 8 9)"], "matrix": [["()"]]}))
        products = [0]
        mul = Permutation.__mul__

        def counted(a, b):
            products[0] += 1
            return mul(a, b)

        monkeypatch.setattr(Permutation, "__mul__", counted)
        code, _ = invoke(["analyze", str(path), "--bound-closure", "100"])
        assert code == 2
        assert "100" in capsys.readouterr().err
        assert products[0] < 1000  # |S9| = 362 880 is never enumerated

    def test_table_over_bound_exits_2(self, tmp_path):
        path = tmp_path / "zero5.json"
        path.write_text(json.dumps({"kind": "cayley_table", "table": [[0] * 5] * 5}))
        code, _ = invoke(["analyze", str(path), "--bound-closure", "2"])
        assert code == 2

    def test_closed_generators_over_bound_exit_2(self, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps({"kind": "transformations",
                                    "generators": [[1, 1], [2, 2]]}))
        code, _ = invoke(["analyze", str(path), "--bound-closure", "1"])
        assert code == 2

    def test_bound_below_1_exits_1(self, tmp_path, capsys):
        path = tmp_path / "zero2.json"
        path.write_text(json.dumps({"kind": "cayley_table", "table": [[0, 0], [0, 0]]}))
        code, _ = invoke(["analyze", str(path), "--bound-closure", "-5"])
        assert code == 1
        assert "--bound-closure" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"kind": "sandwich"}))
        code, _ = invoke(["maximal", str(path)])
        assert code == 1

    def test_gh_needs_rzms(self):
        code, _ = invoke(["dot", W_INPUT, "--graph", "gh"])
        assert code == 1

    def test_missing_jclass(self):
        code, _ = invoke(["dot", W_INPUT, "--graph", "delta"])
        assert code == 1

    def test_table_not_associative(self, tmp_path):
        path = tmp_path / "bad_table.json"
        path.write_text(json.dumps(
            {"kind": "cayley_table", "table": [[0, 0], [1, 0]]}))
        code, _ = invoke(["maximal", str(path)])
        assert code == 1


def golden(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return f.read()


class TestDot:
    def test_figure_1_graham_houghton(self):
        code, text = invoke(["dot", RZMS_INPUT, "--graph", "gh"])
        assert code == 0
        assert text == golden("fig1_graham_houghton.dot")
        assert text.count(" -- ") == 11

    def test_figure_3_delta(self):
        code, text = invoke([
            "dot", W_INPUT, "--graph", "delta", "--jclass-of-generator", "1"])
        assert code == 0
        assert text == golden("fig3_delta.dot")
        assert text.count(" -- ") == 10

    def test_figure_4_theta(self):
        code, text = invoke([
            "dot", W_INPUT, "--graph", "theta", "--jclass-of-generator", "1"])
        assert code == 0
        assert text == golden("fig4_theta.dot")
        assert text.count(" -- ") == 2

    def test_gamma_l_arcs(self):
        code, text = invoke([
            "dot", W_INPUT, "--graph", "gamma-l", "--jclass-of-generator", "1"])
        assert code == 0
        assert text.count(" -> ") == 4

    def test_jclass_flag_equivalent(self):
        doc = invoke_json(["analyze", W_INPUT])
        jid = next(j["id"] for j in doc["j_classes"] if j["size"] == 144)
        _, via_id = invoke(["dot", W_INPUT, "--graph", "theta", "--jclass", str(jid)])
        _, via_gen = invoke([
            "dot", W_INPUT, "--graph", "theta", "--jclass-of-generator", "1"])
        assert via_id == via_gen


# sha256 of the documents the CLI prints for the committed inputs; any
# change here is a change to the byte-identical output contract
DOCUMENT_DIGESTS = {
    ("maximal", "rzms_s4.json"):
        "daa93b59f0a03a49d55f59a07526d763f69f32c0f59c0f21c25ff52d97815b60",
    ("maximal", "w_t7.json"):
        "c87d78d93a7670c228d24ff4080f95a4eb29f0b7edba2cf5d2d135c4b4455cb9",
    ("analyze", "rzms_s4.json"):
        "049452b29617e303c6ec21fa9c3e24d3c52c48e5f495a7ec4c6f171bc2585eb9",
    ("analyze", "w_t7.json"):
        "150f4e7acb24b3a740a91b346600c5bc0ee01b4e6e38c7c69dfe079f828fbf95",
}


@pytest.mark.parametrize("cmd, name", sorted(DOCUMENT_DIGESTS))
def test_document_digest(cmd, name):
    code, text = invoke([cmd, os.path.join(DATA, name)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == DOCUMENT_DIGESTS[cmd, name]


RZMS_OK = {"kind": "rzms", "group_degree": 2, "group_generators": ["(1 2)"],
           "matrix": [["()"]]}


@pytest.mark.parametrize("spec", [
    {"kind": "transformations", "generators": [1, 2]},
    {"kind": "transformations", "generators": "12"},
    {"kind": "transformations", "generators": [[1, "2"]]},
    {"kind": "cayley_table", "table": [0]},
    {"kind": "cayley_table", "table": [[0.0]]},
    {"kind": "cayley_table", "table": [[0]], "generators": "a"},
    {"kind": "cayley_table", "table": [[0]], "generators": [True]},
    dict(RZMS_OK, matrix=[[5]]),
    dict(RZMS_OK, matrix=["()"]),
    dict(RZMS_OK, matrix={"0": 0}),
    dict(RZMS_OK, group_generators="(1 2)"),
    dict(RZMS_OK, group_generators=[12]),
    dict(RZMS_OK, group_degree=True),
])
def test_wrongly_shaped_input_is_an_input_error(spec, tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(spec))
    code, _ = invoke(["maximal", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_wrong_shape_fixture_is_valid(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(RZMS_OK))
    assert invoke_json(["maximal", str(path)])["size"] == 3
