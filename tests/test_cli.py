"""Command-line surface: JSON output, exit codes, error objects."""

import argparse
import hashlib
import io
import json
import sys
import time

import pytest

import folcalc as f
from folcalc import bounds
from folcalc.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def ten_order_two_points(tmp_path):
    """Samples of ten order-2 points: weak-nef sum 5/2, 3,648 configurations."""
    data = [f.Terminal(f.CyclicType(2, 1))] * 10
    values = {str(m): str(f.global_chi(2, 1, 1, data, m)) for m in range(7)}
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"values": values, "period_hint": 2}))
    return path


# one small input per subcommand; {name} stands for a file of TABLE_FILES
TABLE_FILES = {
    "graph.json": {
        "curves": [{"label": "C1", "self": -3}, {"label": "C2", "self": -2}],
        "edges": [["C1", "C2", 1]],
    },
    "profile.json": {"C1": -1},
    "positive.json": {
        "curves": [{"label": "A", "self": 1}, {"label": "B", "self": -2}],
        "edges": [["A", "B", 1]],
    },
    "divisor.json": {"A": 1, "B": 1},
    "samples.json": {"values": {str(m): m * m + 1 for m in range(8)}},
    "weak.json": {"0": -1, "1": 4, "2": 9},
    "canonical.json": {"0": 1, "1": 4, "2": 9},
}
TABLES = [
    (["hj", "12", "5"], "b = [3, 2, 3]\n"),
    (["wunram", "5", "2", "3"], "b = [3, 2]\nd = [1, 1]\ns = [5, 2, 1]\n"),
    (["contrib", "--kind", "terminal", "--n", "5", "--q", "2", "--m", "3"], "a = -2/5\n"),
    (["chi-local", "--n", "3", "--q", "1", "--m", "2"], "chi = 1\n"),
    (["pullback", "{graph.json}", "{profile.json}"], "C1 = 2/5\nC2 = 1/5\n"),
    (["zariski", "{positive.json}", "{divisor.json}"], "P = A: 1, B: 1/2\nN = B: 1/2\nsupport = B\n"),
    (
        ["bounds", "--mode", "weak-nef", "{samples.json}"],
        "K2 = 2\nK_dot_KY = 0\nchi_O = 1\ncontribution_sum = 0\ncusp_count = None\n\n"
        "configuration  index  gamma  N1\n"
        "-------------  -----  -----  --\n"
        "smooth         1      3      8 \n\n"
        "max_terminal_order = 1\nN1_worst = 8\n",
    ),
    (
        ["jouanolou", "--dmax", "3"],
        "d  volume  aut_order  one_minus_volume\n"
        "-  ------  ---------  ----------------\n"
        "2  1/7     21         6/7             \n"
        "3  4/13    39         9/13            \n"
        "strictly_increasing = True\nall_below_one = True\nminimum = 1/7\n"
        "gap_identity_holds = True\nconverges = True\n",
    ),
    (
        ["dihedral-verify", "--variant", "e1", "--a", "1", "--l", "1", "--modd", "3", "--p", "5"],
        "a = -1/2\nexpected_n = 3\npass = True\nsum_exact = 3\nsum_value = 3+0j\n",
    ),
    (["relate", "{weak.json}", "{canonical.json}", "--cusps", "2"], "match = True\n"),
]


class TestBasicCommands:
    def test_hj(self, capsys):
        assert run_json(capsys, "hj", "12", "5") == {"b": [3, 2, 3]}

    def test_hj_validation_failure(self, capsys):
        code, out, err = run(capsys, "hj", "4", "2")
        assert code == 2
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert "gcd(n,q) must be 1" in error["message"]

    @pytest.mark.parametrize("tail", [["hj"], ["wunram", "0"]], ids=["hj", "wunram"])
    def test_string_above_cap_refused(self, capsys, tail):
        n = 10**12 + 1
        code, out, err = run(capsys, tail[0], str(n), str(n - 1), *tail[1:])
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert "more than 100000 curves" in error["message"]

    def test_wunram(self, capsys):
        doc = run_json(capsys, "wunram", "5", "2", "3")
        assert doc == {"b": [3, 2], "s": [5, 2, 1], "d": [1, 1]}

    def test_wunram_index_is_never_reduced(self, capsys):
        code, out, err = run(capsys, "wunram", "5", "2", "7", "--reduce")
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "invalid-input"

    def test_contrib_cusp(self, capsys):
        assert run_json(capsys, "contrib", "--kind", "cusp", "--m", "4") == {"a": "-1"}

    def test_contrib_terminal(self, capsys):
        doc = run_json(capsys, "contrib", "--kind", "terminal", "--n", "5", "--q", "2", "--m", "3")
        assert doc == {"a": "-2/5"}

    @pytest.mark.parametrize(
        "kind, m, expected",
        [("dihedral", "3", "-1/2"), ("dihedral", "4", "0"), ("cusp", "0", "0"), ("gorenstein", "5", "0")],
    )
    def test_contrib_other_kinds(self, capsys, kind, m, expected):
        assert run_json(capsys, "contrib", "--kind", kind, "--m", m) == {"a": expected}

    def test_contrib_terminal_needs_type(self, capsys):
        code, _, err = run(capsys, "contrib", "--kind", "terminal", "--m", "3")
        assert code == 2
        assert "--n" in json.loads(err)["message"]

    def test_chi_local_string_value(self, capsys):
        assert run_json(capsys, "chi-local", "--n", "3", "--q", "1", "--m", "2") == {"chi": "1"}

    def test_chi_local_crepant_table(self, capsys):
        assert run_json(capsys, "chi-local", "--kind", "cusp", "--m", "0") == {"chi": "1"}
        assert run_json(capsys, "chi-local", "--kind", "dihedral", "--m", "3") == {"chi": "0"}

    def test_jouanolou(self, capsys):
        doc = run_json(capsys, "jouanolou", "--dmax", "3")
        assert doc["entries"][0] == {
            "d": 2,
            "volume": "1/7",
            "aut_order": 21,
            "one_minus_volume": "6/7",
        }
        assert doc["strictly_increasing"] and doc["all_below_one"]

    def test_dihedral_verify(self, capsys):
        doc = run_json(
            capsys,
            "dihedral-verify",
            "--variant", "e1", "--a", "1", "--l", "1", "--modd", "3", "--p", "5",
        )
        assert doc["pass"] is True
        assert doc["expected_n"] == 3
        assert doc["sum_exact"] == "3"
        assert doc["a"] == "-1/2"

    def test_dihedral_verify_invalid_datum(self, capsys):
        code, _, err = run(
            capsys,
            "dihedral-verify",
            "--variant", "e1", "--a", "1", "--l", "3", "--modd", "1", "--p", "5",
        )
        assert code == 2
        assert "invalid dihedral datum" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "variant, a, p",
        [("e2", "1000000000", "1"), ("e1", "40", "1099511627775")],
    )
    def test_dihedral_verify_huge_group_refused_quickly(self, capsys, variant, a, p):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "dihedral-verify",
            "--variant", variant, "--a", a, "--l", "1", "--modd", "1", "--p", p,
        )
        elapsed = time.perf_counter() - start
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "invalid-input"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_jouanolou_dmax_above_cap_refused(self, capsys):
        code, out, err = run(capsys, "jouanolou", "--dmax", "10001")
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "invalid-input"

    def test_mode_choices_are_the_bounds_constants(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        mode = next(a for a in sub.choices["bounds"]._actions if a.dest == "mode")
        assert mode.choices == (bounds.WEAK_NEF, bounds.CANONICAL)

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert json.loads(err)["code"] == "invalid-input"


class TestFileCommands:
    @pytest.fixture
    def string_graph(self, tmp_path):
        graph = {
            "curves": [{"label": "C1", "self": -3}, {"label": "C2", "self": -2}],
            "edges": [["C1", "C2", 1]],
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        return path

    def test_pullback(self, capsys, string_graph, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"C1": -1}))
        doc = run_json(capsys, "pullback", str(string_graph), str(profile))
        assert doc == {"C1": "2/5", "C2": "1/5"}

    def test_zariski(self, capsys, string_graph, tmp_path):
        divisor = tmp_path / "divisor.json"
        divisor.write_text(json.dumps({"C1": 1, "C2": 1}))
        doc = run_json(capsys, "zariski", str(string_graph), str(divisor))
        assert doc == {"P": {}, "N": {"C1": "1", "C2": "1"}, "support": ["C1", "C2"]}

    def test_pullback_degenerate_is_domain_error(self, capsys, tmp_path):
        cycle = {
            "curves": [{"label": "A", "self": -2}, {"label": "B", "self": -2}, {"label": "Z", "self": -2}],
            "edges": [["A", "B", 1], ["B", "Z", 1], ["A", "Z", 1]],
        }
        gpath = tmp_path / "cycle.json"
        gpath.write_text(json.dumps(cycle))
        ppath = tmp_path / "profile.json"
        ppath.write_text(json.dumps({"A": 1}))
        code, _, err = run(capsys, "pullback", str(gpath), str(ppath))
        assert code == 1
        assert json.loads(err)["code"] == "degenerate-configuration"

    @pytest.mark.parametrize("graph", [{"curves": 5}, {"curves": [], "edges": 5}])
    def test_graph_with_curves_or_edges_not_a_list(self, capsys, tmp_path, graph):
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps(graph))
        ppath = tmp_path / "profile.json"
        ppath.write_text("{}")
        code, out, err = run(capsys, "pullback", str(gpath), str(ppath))
        assert (code, out) == (2, "")
        assert json.loads(err)["code"] == "invalid-input"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "zariski", str(bad), str(bad))
        assert code == 2
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert error["location"] == str(bad)

    def test_graph_from_stdin(self, capsys, string_graph, tmp_path, monkeypatch):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"C1": -1}))
        monkeypatch.setattr(sys, "stdin", io.StringIO(string_graph.read_text()))
        assert run_json(capsys, "pullback", "-", str(profile)) == {"C1": "2/5", "C2": "1/5"}

    @pytest.mark.parametrize(
        "text",
        [
            '{"curves": [{"label": "C1", "self": -' + "9" * 5000 + "}]}",
            "[" * 100_000 + "]" * 100_000,
            '{"curves": [{"label": "C\xff", "self": -2}]}',
        ],
        ids=["number-past-4300-digits", "nested-100000-deep", "undecodable-bytes"],
    )
    def test_json_past_python_limits(self, capsys, tmp_path, text):
        gpath = tmp_path / "graph.json"
        gpath.write_bytes(text.encode("latin-1"))
        code, out, err = run(capsys, "pullback", str(gpath), str(gpath))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert error["location"] == str(gpath)
        assert error["message"].startswith("malformed JSON: ")

    def test_result_past_digit_limit(self, capsys, tmp_path):
        # four curves of self-intersection -(10^1500 - 1): the solution has about 6000 digits
        n = 10**1500 - 1
        chain = {
            "curves": [{"label": f"C{j}", "self": -n} for j in range(1, 5)],
            "edges": [[f"C{j}", f"C{j + 1}", 1] for j in range(1, 4)],
        }
        gpath = tmp_path / "graph.json"
        gpath.write_text(json.dumps(chain))
        ppath = tmp_path / "profile.json"
        ppath.write_text(json.dumps({"C1": "1"}))
        code, out, err = run(capsys, "pullback", str(gpath), str(ppath))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert "more than 4300 digits" in error["message"]

    def test_relate_table_not_an_object(self, capsys, tmp_path):
        weak = tmp_path / "weak.json"
        canon = tmp_path / "canon.json"
        weak.write_text(json.dumps([-1, 4, 9]))
        canon.write_text(json.dumps({"0": 1, "1": 4, "2": 9}))
        code, out, err = run(capsys, "relate", str(weak), str(canon), "--cusps", "2")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert error["location"] == str(weak)

    # files written as text, since a repeated key cannot come out of json.dumps; each case
    # names the file its error must point at (None: the library names the multiple instead)
    SAMPLES = ", ".join(f'"{m}": {m * m + 1}' for m in range(8))
    REPEATS = {
        "profile-key": (
            ["pullback", "{graph}", "{profile}"],
            {"graph": json.dumps(TABLE_FILES["graph.json"]), "profile": '{"C1": "-1", "C1": "1"}'},
            "profile", "repeated key 'C1'",
        ),
        "graph-curves-key": (
            ["pullback", "{graph}", "{profile}"],
            {"graph": '{"curves": [], "curves": [{"label": "C1", "self": -2}]}', "profile": "{}"},
            "graph", "repeated key 'curves'",
        ),
        "samples-3-then-03": (
            ["bounds", "--mode", "weak-nef", "{samples}"],
            {"samples": '{"values": {%s, "03": 999}}' % SAMPLES},
            None, "two keys name the multiple 3",
        ),
        "samples-03-then-3": (
            ["bounds", "--mode", "weak-nef", "{samples}"],
            {"samples": '{"values": {"03": 999, %s}}' % SAMPLES},
            None, "two keys name the multiple 3",
        ),
        "relate-1-and-space-1": (
            ["relate", "{weak}", "{canonical}", "--cusps", "2"],
            {"weak": '{"0": 1, "1": 2, " 1": 3}', "canonical": '{"0": 3, "1": 3}'},
            None, "two keys name the multiple 1",
        ),
    }

    @pytest.mark.parametrize("argv, files, location, message", REPEATS.values(), ids=REPEATS)
    def test_repeated_key_or_multiple_refused(self, capsys, tmp_path, argv, files, location, message):
        paths = {name: tmp_path / f"{name}.json" for name in files}
        for name, text in files.items():
            paths[name].write_text(text)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["code"] == "invalid-input"
        assert message in error["message"]
        assert error["location"] == (location and str(paths[location]))

    @pytest.mark.parametrize("samples", [{"period_hint": 2}, {"values": [1, 2, 5]}, [1, 2, 5]])
    def test_bounds_samples_without_values_map(self, capsys, tmp_path, samples):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        code, out, err = run(capsys, "bounds", "--mode", "weak-nef", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == 'samples JSON must be an object with a "values" map'

    def test_bounds_large_sum_stops(self, capsys, tmp_path):
        # K^2 = 2 and contribution sum 50: 101 slots for 1 reach the denominator limit at once
        samples = {"values": {"0": 1, "1": -48, "2": 5, "3": -40, "4": 17, "5": -24, "6": 37, "7": 0}}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({**samples, "period_hint": 2}))
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--mode", "weak-nef", str(path))
        assert time.perf_counter() - start < 5.0
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["code"] == "search-budget-exceeded"
        assert error["location"] == "101 slots, sum 1"

    def test_bounds_negative_sum_names_it(self, capsys, tmp_path):
        samples = {"values": {"0": 1, "1": 3, "2": 5, "3": 11, "4": 17, "6": 37}, "period_hint": 2}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        code, out, err = run(capsys, "bounds", "--mode", "weak-nef", str(path))
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert (error["code"], error["location"]) == ("inconsistent-model", "contribution sum -1")

    def test_zariski_stops_at_a_singular_support(self, capsys, tmp_path):
        # a (-1)-curve E on a cycle of four (-2)-curves: the last pass adopts C and the
        # support A, B, C, D is singular
        curves = [{"label": c, "self": -2} for c in "ABCD"] + [{"label": "E", "self": -1}]
        edges = [["A", "B", 1], ["B", "C", 1], ["C", "D", 1], ["D", "A", 1], ["E", "A", 1]]
        gpath, dpath = tmp_path / "graph.json", tmp_path / "divisor.json"
        gpath.write_text(json.dumps({"curves": curves, "edges": edges}))
        dpath.write_text(json.dumps({"E": -1}))
        code, out, err = run(capsys, "zariski", str(gpath), str(dpath))
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert (error["code"], error["location"]) == ("not-pseudoeffective", "C")

    def test_bounds(self, capsys, tmp_path):
        samples = {"values": {str(m): m * m + 1 for m in range(8)}}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        doc = run_json(capsys, "bounds", "--mode", "weak-nef", str(path))
        assert doc["invariants"]["K2"] == "2"
        assert doc["N1_worst"] == 8
        assert doc["configurations"] == [
            {"terminal_orders": [], "dihedral_count": 0, "cusp_count": 0}
        ]

    @pytest.mark.parametrize("lmax", ["0", "x"])
    def test_bounds_ignores_period_env(self, capsys, tmp_path, monkeypatch, lmax):
        # the period scan is bounded by bounds.MAX_PERIOD alone; no variable moves it
        samples = {"values": {str(m): m * m + 1 for m in range(8)}}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        expected = run(capsys, "bounds", "--mode", "weak-nef", str(path))
        monkeypatch.setenv("FOLCALC_LMAX", lmax)
        assert run(capsys, "bounds", "--mode", "weak-nef", str(path)) == expected
        assert expected[0] == 0

    def test_bounds_search_budget(self, capsys, tmp_path, monkeypatch):
        # eight order-2 points: contribution sum 2, realized by 168 weak-nef configurations
        data = [f.Terminal(f.CyclicType(2, 1))] * 8
        values = {str(m): str(f.global_chi(4, 2, 1, data, m)) for m in range(7)}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"values": values, "period_hint": 2}))
        assert len(run_json(capsys, "bounds", "--mode", "weak-nef", str(path))["configurations"]) == 168
        monkeypatch.setattr(bounds, "MAX_CONFIGURATIONS", 100)
        code, out, err = run(capsys, "bounds", "--mode", "weak-nef", str(path))
        assert (code, out) == (1, "")
        error = json.loads(err)
        assert error["code"] == "search-budget-exceeded"
        assert "101" in error["message"]

    def test_relate(self, capsys, tmp_path):
        weak = tmp_path / "weak.json"
        canon = tmp_path / "canon.json"
        weak.write_text(json.dumps({"0": -1, "1": 4, "2": 9}))
        canon.write_text(json.dumps({"0": 1, "1": 4, "2": 9}))
        doc = run_json(capsys, "relate", str(weak), str(canon), "--cusps", "2")
        assert doc == {"match": True}

    def test_relate_negative_multiple_refused(self, capsys, tmp_path):
        weak = tmp_path / "weak.json"
        canon = tmp_path / "canon.json"
        weak.write_text(json.dumps({"-1": 2, "0": 1}))
        canon.write_text(json.dumps({"-1": 2, "0": 2}))
        code, out, err = run(capsys, "relate", str(weak), str(canon), "--cusps", "1")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "code": "invalid-input",
            "location": None,
            "message": "weak nef table key out of range: must be an integer >= 0",
        }


class TestOutputDiscipline:
    def test_help_is_for_users(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "Exit status 0 means success, 2 a validation problem" in text
        assert "Handlers" not in text

    def test_byte_deterministic(self, capsys, tmp_path):
        samples = {"values": {str(m): m * m + 1 for m in range(8)}, "period_hint": 2}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "bounds", "--mode", "weak-nef", str(path))
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_batched_json_matches_one_string(self, capsys, tmp_path):
        # the document encodes to more than two batches of 65,536 chunks
        argv = ["bounds", "--mode", "weak-nef", str(ten_order_two_points(tmp_path))]
        args = build_parser().parse_args(argv)
        doc = args.handler(args)
        assert sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)) > 2 * 65536
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "jouanolou", "--dmax", "4", "--format", "table")
        assert code == 0
        assert "volume" in out and "1/7" in out

    def test_table_format_bounds(self, capsys, tmp_path):
        samples = {"values": {str(m): m * m + 1 for m in range(8)}}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(samples))
        code, out, _ = run(capsys, "bounds", "--mode", "weak-nef", str(path), "--format", "table")
        assert code == 0
        assert "N1_worst = 8" in out

    def test_table_of_a_large_report_is_pinned(self, capsys, tmp_path):
        path = ten_order_two_points(tmp_path)
        code, out, _ = run(capsys, "bounds", "--mode", "weak-nef", str(path), "--format", "table")
        assert code == 0
        assert out.count("\n") == 3648 + 11
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "200dbd29b8271550c55049f0f3974da3a4253597055f24fef828778bb7e2a083"
        )

    def test_table_names_dihedral_points_and_cusps(self, capsys, tmp_path):
        # one dihedral point and one cusp on a canonical model: contribution sum 3/2, one cusp
        data = [f.Dihedral(1, 1, 1, 1), f.Cusp()]
        values = {str(m): str(f.global_chi(4, 2, 1, data, m)) for m in range(7)}
        path = tmp_path / "samples.json"
        path.write_text(json.dumps({"values": values, "period_hint": 2}))
        assert run(capsys, "bounds", "--mode", "canonical", str(path), "--format", "table") == (
            0,
            "K2 = 4\nK_dot_KY = 2\nchi_O = 1\ncontribution_sum = 3/2\ncusp_count = 1\n\n"
            "configuration             index  gamma  N1\n"
            "------------------------  -----  -----  --\n"
            "terminal(2, 2) + cusp x1  4      13     30\n"
            "dihedral x1 + cusp x1     2      7      16\n\n"
            "max_terminal_order = 2\nN1_worst = 30\n",
            "",
        )

    @pytest.mark.parametrize("argv, expected", TABLES, ids=[argv[0] for argv, _ in TABLES])
    def test_table_bytes_per_subcommand(self, capsys, tmp_path, argv, expected):
        for name, doc in TABLE_FILES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
        assert run(capsys, *argv, "--format", "table") == (0, expected, "")
