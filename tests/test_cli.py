"""End-to-end command-line behavior: output shapes, exit codes, caching."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from cyclekit import cli
from cyclekit.cli import main
from cyclekit.counting import count_cycles
from cyclekit.graph_io import GraphFormatError, graph_from_graph6, graph_to_graph6, parse_graph_argument
from cyclekit.graphs import make_graph, turan_class_sizes, turan_graph, twin_classes
from cyclekit.morphisms import is_isomorphic

from _oracles import graph_texts, random_graph, reference_cmd_verify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """main() with stdout and stderr captured, for use inside hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _retyped(key, value):
    """Damage for a cache file: one field of the stored result gets a wrong
    value, of the wrong type or for another n."""

    def damage(raw: bytes) -> bytes:
        data = json.loads(raw)
        data[key] = value
        return json.dumps(data).encode()

    return damage


class TestCount:
    def test_turan(self, capsys):
        code, out, _ = run(capsys, "count", "--turan", "6", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 63
        assert data["hamilton"] == 16
        assert data["spectrum"] == {"3": 8, "4": 15, "5": 24, "6": 16}

    def test_graph6_input(self, capsys):
        g6 = graph_to_graph6(turan_graph(4, 4))
        code, out, _ = run(capsys, "count", "--graph6", g6, "--format", "json")
        assert code == 0
        assert json.loads(out)["total"] == 7

    def test_parts_input(self, capsys):
        code, out, _ = run(capsys, "count", "--parts", "2,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["spectrum"] == {"4": 3}

    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "count", "--edge-list", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["total"] == 1

    def test_graph6_file_multiple(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        g6s = [graph_to_graph6(turan_graph(4, 4)), graph_to_graph6(turan_graph(5, 2))]
        path.write_text("\n".join(g6s) + "\n")
        code, out, _ = run(capsys, "count", "--graph6-file", str(path), "--format", "json")
        assert code == 0
        totals = [json.loads(line)["total"] for line in out.splitlines()]
        assert totals == [7, 3]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_turan_at_the_cap_matches_analytic(self, capsys, k):
        code, out, _ = run(capsys, "count", "--turan", "24", str(k), "--format", "json")
        parts = ",".join(map(str, turan_class_sizes(24, k)))
        _, want, _ = run(capsys, "analytic", "--parts", parts, "--format", "json")
        assert code == 0
        assert json.loads(out)["spectrum"] == json.loads(want)["spectrum"]

    def test_malformed_graph6_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--graph6", "C~extra")
        assert code == 2
        assert "graph6" in err

    def test_requires_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "count", "--turan", "4", "2", "--parts", "2,2")
        assert code == 2

    def test_turan_past_the_vertex_cap_matches_analytic(self, capsys):
        code, out, _ = run(capsys, "count", "--turan", "45", "3", "--format", "json")
        _, want, _ = run(capsys, "analytic", "--parts", "15,15,15", "--format", "json")
        assert code == 0
        assert json.loads(out)["spectrum"] == json.loads(want)["spectrum"]

    def test_twin_free_graph_past_the_vertex_cap_exit_2(self, capsys):
        rng = random.Random(113)
        g = random_graph(rng, 25, 0.5)
        assert len(twin_classes(g)) == 25
        code, out, err = run(capsys, "count", "--graph6", graph_to_graph6(g))
        assert (code, out) == (2, "")
        assert err.startswith("error: cycle counting refused: n=25") and "25 twin classes" in err


class TestAnalytic:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "analytic", "--parts", "2,2,2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["c"] == [2, 2, 2]
        assert data["h"] == 16
        assert data["prob_q_given_p"] == "4/15"

    def test_zero_case(self, capsys):
        code, out, _ = run(capsys, "analytic", "--parts", "3,1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 0
        assert data["prob_q_given_p"] == "0/1"

    def test_rooted(self, capsys):
        code, out, _ = run(
            capsys, "analytic", "--parts", "2,2", "--rooted", "1,2", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["rooted_code_count"] == 1
        assert data["rooted_permutations"] == 2

    @pytest.mark.parametrize("rooted", ["1,2,3", "1", "a,b"])
    def test_bad_rooted_names_the_flag(self, capsys, rooted):
        # used to exit 2 with Python's "too many values to unpack"
        code, out, err = run(capsys, "analytic", "--parts", "2,2", "--rooted", rooted)
        assert (code, out) == (2, "")
        assert "--rooted" in err and "I,J" in err

    def test_bad_parts(self, capsys):
        code, _, err = run(capsys, "analytic", "--parts", "2,zero")
        assert code == 2

    def test_spectrum_up_to_the_64_vertex_limit(self, capsys):
        code, out, _ = run(capsys, "analytic", "--parts", ",".join(["1"] * 64), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["spectrum"]["64"] == data["h"] > 0
        code, _, err = run(capsys, "analytic", "--parts", ",".join(["1"] * 65), "--format", "json")
        assert code == 2
        assert "64" in err


class TestVerify:
    def test_major_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "major", "--n-max", "8", "--k-max", "3", "--format", "json"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert all(case["ok"] for case in lines)

    def test_recursion_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "recursion", "--n-max", "12", "--k", "3", "--format", "json"
        )
        assert code == 0
        assert all(json.loads(line)["holds"] for line in out.splitlines())

    def test_kkmain_reports_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "kkmain", "--n-max", "6", "--format", "json")
        assert code == 0

    def test_turancount_reports_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "turancount", "--n-max", "7", "--k", "3", "--format", "json"
        )
        assert code == 0

    def test_ref3count_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "ref3count", "--n-max", "8", "--format", "json")
        assert code == 0
        assert all(json.loads(line)["ok"] for line in out.splitlines())

    def test_unknown_lemma_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "nosuch")
        assert code == 2
        assert "invalid choice: 'nosuch'" in err

    def test_failed_theorem_check_exit_1(self, capsys, monkeypatch):
        # the real checks are theorems and never fail; stub one to confirm
        # that a verified-false report drives the exit code to 1
        import cyclekit.cli as cli_mod
        from cyclekit.search import VerifyReport

        def fake(n, k):
            return VerifyReport(
                name="major", params={"n": n, "k": k},
                cases=[{"ok": False}], failures=1, passed=False,
            )

        monkeypatch.setattr(cli_mod.search, "verify_balanced_code_probability", fake)
        code, _, err = run(
            capsys, "verify", "major", "--n-max", "3", "--k", "2", "--format", "json"
        )
        assert code == 1
        assert "failed checks" in err

    def test_failed_bound_check_exit_1(self, capsys, monkeypatch):
        from cyclekit.bounds import BoundReport

        def fake(n, k):
            return BoundReport(name="secondcount", params={"n": n, "k": k}, lhs=2, rhs=1, holds=n != 4)

        monkeypatch.setattr(cli.bounds, "check_total_to_hamilton", fake)
        code, out, err = run(capsys, "verify", "secondcount", "--n-max", "5", "--k", "3")
        assert code == 1
        assert out.splitlines() == [
            "secondcount {'n': 3, 'k': 3}: holds",
            "secondcount {'n': 4, 'k': 3}: VIOLATED",
            "secondcount {'n': 5, 'k': 3}: holds",
        ]
        assert err == "verify secondcount: 1 failed checks\n"

    def test_stepcount_and_close(self, capsys):
        for name in ("stepcount", "close"):
            code, _, _ = run(
                capsys, "verify", name, "--n-max", "7", "--k", "3", "--format", "json"
            )
            assert code == 0

    def test_turanbest_with_sampling(self, capsys):
        code, out, _ = run(
            capsys, "verify", "turanbest", "--n-max", "6", "--k", "2",
            "--samples", "20", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert all(json.loads(line)["ok"] for line in out.splitlines())

    def test_secondcount_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "secondcount", "--n-max", "10", "--k", "3",
            "--format", "json",
        )
        assert code == 0
        assert all(json.loads(line)["holds"] for line in out.splitlines())

    @pytest.mark.parametrize("argv", [
        ("major", "--k", "0"),
        ("turanbest", "--k", "1"),
        ("stepcount", "--k", "2"),
        ("kkmain", "--k", "2"),
    ])
    def test_k_below_the_suite_minimum_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[0] in err

    def test_negative_samples_exit_2(self, capsys):
        code, out, err = run(
            capsys, "verify", "turanbest", "--n-max", "5", "--k", "2", "--samples", "-3"
        )
        assert (code, out) == (2, "")
        assert "sample_subgraphs" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv", [
        ("secondcount", "--n-max", "2"),
        ("recursion", "--i-max", "-1"),
        ("kkmain", "--n-max", "3"),
        ("turanbest", "--n-max", "5", "--k", "6"),
        ("ref3count", "--n0", "8", "--n-max", "8"),
    ])
    def test_empty_range_exit_2(self, capsys, argv, fmt):
        code, out, err = run(capsys, "verify", *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: verify {argv[0]}: the given ranges hold no case\n"

    # ref3count's exhaustive optimizer stops at 14; the suites that build
    # class vectors stop at 64 vertices, before any row is printed
    @pytest.mark.parametrize("suite, n_max, cap", [
        pytest.param("ref3count", 20, 14, id="ref3count"),
        *(pytest.param(name, 65, 64, id=name) for name in (
            "turanbest", "major", "stepcount", "close", "turancount", "recursion", "secondcount", "kkmain")),
    ])
    def test_n_max_over_the_suite_cap_exit_2(self, capsys, suite, n_max, cap):
        code, out, err = run(capsys, "verify", suite, "--n-max", str(n_max))
        assert (code, out) == (2, "")
        assert err == f"error: verify {suite} is capped at --n-max {cap}, got {n_max}\n"


def run_reference(capsys, *argv):
    """The verify command before the suite registry, with main's error handling."""
    args = cli.build_parser().parse_args(list(argv))
    try:
        code = reference_cmd_verify(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# small valid ranges of every suite; kkmain --k 3 still reports k = 2 first,
# and ref3count --n0 9 fails its check (exit 1)
REFERENCE_RUNS = [
    ("turanbest", "--n-max", "6"),
    ("turanbest", "--n-max", "6", "--k", "2", "--samples", "4", "--seed", "5"),
    ("major", "--n-max", "6"),
    ("stepcount", "--n-max", "6"),
    ("close", "--n-max", "6"),
    ("turancount", "--n-max", "6", "--k-max", "4"),
    ("recursion", "--n-max", "7", "--i-max", "2"),
    ("secondcount", "--n-max", "7"),
    ("second2count", "--n-max", "8", "--i-max", "2"),
    ("kkmain", "--n-max", "6"),
    ("kkmain", "--n-max", "6", "--k", "3"),
    ("ref3count", "--n-max", "8"),
    ("ref3count", "--n0", "9"),
]


class TestVerifyMatchesReference:
    def test_every_suite_is_covered(self):
        assert {argv[0] for argv in REFERENCE_RUNS} == set(cli.SUITES)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("argv", REFERENCE_RUNS, ids=" ".join)
    def test_byte_identical(self, capsys, argv, fmt):
        full = ("verify", *argv, "--format", fmt)
        got = run(capsys, *full)
        assert got == run_reference(capsys, *full)
        assert got[0] == (1 if argv == ("ref3count", "--n0", "9") else 0)


class TestSearch:
    def test_search_json(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--forbid", "K3", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_cycles"] == "3"
        assert data["unique"] is True
        assert data["forbidden_chi"] == 3
        assert data["forbidden_has_critical_edge"] is True

    def test_search_cache_hit(self, capsys, tmp_path):
        code1, out1, _ = run(
            capsys, "search", "--n", "4", "--forbid", "K3",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        code2, out2, _ = run(
            capsys, "search", "--n", "4", "--forbid", "K3",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        assert code1 == code2 == 0
        first, second = json.loads(out1), json.loads(out2)
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert first["max_cycles"] == second["max_cycles"]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: b"\xff\xfe{garbage",
            lambda raw: raw.replace(b'"schema": %d' % cli.search.CACHE_SCHEMA, b'"schema": 1'),
            lambda raw: b'{"schema": %d}' % cli.search.CACHE_SCHEMA,
            _retyped("extremal_graphs", "DFw"),
            _retyped("extremal_graphs", [7]),
            _retyped("unique", "yes"),
            _retyped("forbidden", 3),
            _retyped("n", 7),
            _retyped("extremal_graphs", ["E???"]),
            _retyped("forbidden_has_critical_edge", "yes"),
            _retyped("forbidden_chi", "three"),
            _retyped("forbidden_chi", 4),
            _retyped("max_cycles", 9.99),
            _retyped("max_cycles", "-3"),
            _retyped("graphs_examined", True),
            _retyped("n", 5.0),
            _retyped("forbidden_chi", 3.0),
            _retyped("unique", False),
            _retyped("elapsed", "nan"),
            _retyped("elapsed", True),
        ],
        ids=["truncated", "garbage", "wrong_schema", "missing_keys", "graphs_string",
             "graphs_not_strings", "unique_not_bool", "forbidden_not_string", "other_n",
             "graph_of_other_order", "critical_edge_not_bool", "chi_not_int",
             "chi_of_another_graph", "max_cycles_float", "max_cycles_signed",
             "examined_bool", "n_float", "chi_float", "unique_contradicts_graphs",
             "elapsed_nan", "elapsed_bool"],
    )
    def test_unusable_cache_file_is_recomputed(self, capsys, tmp_path, damage):
        args = ("search", "--n", "5", "--forbid", "K3", "--cache-dir", str(tmp_path), "--format", "json")
        _, out, _ = run(capsys, *args)
        fresh = json.loads(out)
        (path,) = tmp_path.iterdir()
        path.write_bytes(damage(path.read_bytes()))
        code, out, err = run(capsys, *args)
        assert code == 0
        again = json.loads(out)
        assert again["from_cache"] is False
        assert {**again, "elapsed": 0} == {**fresh, "elapsed": 0}
        assert len(err.splitlines()) == 1 and err.startswith("warning:")
        assert list(tmp_path.iterdir()) == [path]
        assert json.loads(path.read_text())["schema"] == cli.search.CACHE_SCHEMA
        code, out, err = run(capsys, *args)
        assert (code, err) == (0, "")
        assert json.loads(out)["from_cache"] is True

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_warm_run_skips_the_critical_edge_test(self, capsys, tmp_path, monkeypatch, fmt):
        args = ("search", "--n", "5", "--forbid", "C5", "--cache-dir", str(tmp_path), "--format", fmt)
        _, cold, _ = run(capsys, *args)

        def refuse(_):
            raise AssertionError("has_critical_edge ran on a cache hit")

        monkeypatch.setattr(cli.search, "has_critical_edge", refuse)
        code, warm, err = run(capsys, *args)
        assert (code, err) == (0, "")

        # a hit serves the stored elapsed, so from_cache is the one difference
        if fmt == "json":
            assert json.loads(warm) == {**json.loads(cold), "from_cache": True}
        else:
            assert warm == cold.replace("from_cache: False", "from_cache: True")
        assert warm != cold

    def test_cache_hit_is_served_under_the_callers_label(self, capsys, tmp_path):
        # Bw is K3 in graph6, so both runs share one cache file
        run(capsys, "search", "--n", "5", "--forbid", "K3", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, "search", "--n", "5", "--forbid", "Bw", "--cache-dir", str(tmp_path), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["forbidden"], data["from_cache"]) == ("Bw", True)

    def test_cache_dir_env_is_ignored(self, capsys, tmp_path, monkeypatch):
        # CYCLEKIT_CACHE_DIR used to set the cache; only --cache-dir does
        monkeypatch.setenv("CYCLEKIT_CACHE_DIR", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "search", "--n", "4", "--forbid", "K3", "--format", "json")
        assert (code, json.loads(out)["from_cache"]) == (0, False)
        assert list(tmp_path.iterdir()) == []

    def test_empty_cache_dir_caches_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            code, out, _ = run(capsys, "search", "--n", "4", "--forbid", "K3", "--cache-dir", "", "--format", "json")
            assert (code, json.loads(out)["from_cache"]) == (0, False)
        assert list(tmp_path.iterdir()) == []

    def test_extremal_output_reparses_isomorphic(self, capsys):
        code, out, _ = run(
            capsys, "search", "--n", "5", "--forbid", "K3", "--format", "json"
        )
        data = json.loads(out)
        g = graph_from_graph6(data["extremal_graphs"][0])
        # reparse and re-encode: same class
        again = graph_from_graph6(graph_to_graph6(g))
        assert is_isomorphic(g, again)

    def test_bad_forbid_exit_2(self, capsys):
        code, _, err = run(capsys, "search", "--n", "4", "--forbid", "Z9")
        assert code == 2

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--n", "11", "--forbid", "K3")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "11"])
    def test_out_of_range_n_names_the_range(self, capsys, tmp_path, n):
        # a cache file for that n is not served either (Bw is K3's canonical graph6)
        fake = {"schema": cli.search.CACHE_SCHEMA, "n": int(n), "forbidden": "K3", "max_cycles": "0",
                "extremal_graphs": [], "unique": False, "graphs_examined": 0, "forbidden_chi": 3,
                "forbidden_has_critical_edge": True, "elapsed": 0.0}
        cli.search._cache_path(tmp_path, int(n), "Bw").write_text(json.dumps(fake))
        code, out, err = run(capsys, "search", "--n", n, "--forbid", "K3", "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: enumeration needs 1..10 vertices (n={n})\n"

    def test_forbidden_graph_over_chromatic_cap_fails_before_the_search(self, capsys, tmp_path):
        # used to run the whole search and write its cache file, then exit 2
        path17 = graph_to_graph6(make_graph(17, [(i, i + 1) for i in range(16)]))
        code, out, err = run(capsys, "search", "--n", "7", "--forbid", path17, "--cache-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert "chromatic_number capped at 16" in err
        assert list(tmp_path.iterdir()) == []


class TestEstimate:
    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "estimate", "--n", "4", "--k", "2", "--event", "Q",
            "--samples", "20000", "--seed", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["exact"] == "1/8"
        assert abs(data["estimate"] - 0.125) < 4 * data["stderr"]

    def test_content_with_q_is_rejected(self, capsys):
        # used to exit 0, though the content does not sum to n
        code, out, err = run(capsys, "estimate", "--n", "4", "--k", "3", "--event", "Q", "--content", "9,9")
        assert (code, out) == (2, "")
        assert err == "error: event Q takes no content vector\n"

    def test_content_with_more_parts_than_letters_is_rejected(self, capsys):
        # used to print an "exact" probability of 45/32
        code, out, err = run(
            capsys, "estimate", "--n", "6", "--k", "2", "--event", "P",
            "--content", "2,2,2", "--samples", "1000",
        )
        assert code == 2
        assert out == ""
        assert "k=2" in err

    @pytest.mark.parametrize("n, k", [("0", "3"), ("4", "0")])
    def test_empty_word_or_alphabet_exit_2(self, capsys, n, k):
        # --n 0 used to print "exact": "3/1", --k 0 numpy's bare "low >= high"
        code, out, err = run(capsys, "estimate", "--n", n, "--k", k, "--event", "Q", "--samples", "100")
        assert (code, out) == (2, "")
        assert "at least one letter" in err

    def test_negative_seed_names_the_seed(self, capsys):
        # used to exit 2 with numpy's bare "expected non-negative integer"
        code, out, err = run(capsys, "estimate", "--n", "4", "--k", "2", "--event", "Q", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: the seed must be a nonnegative integer, got seed=-1\n"

    def test_deterministic_output(self, capsys):
        args = (
            "estimate", "--n", "5", "--k", "3", "--event", "Q",
            "--samples", "10000", "--seed", "9", "--format", "json",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestConfigFile:
    """No command reads a config file: ``--config`` is an unknown flag, and
    ``--format`` and ``--seed`` take their values and defaults from argparse."""

    @pytest.mark.parametrize("argv", [
        ("count", "--turan", "4", "2"),
        ("analytic", "--parts", "2,2"),
        ("verify", "major", "--n-max", "3"),
        ("search", "--n", "4", "--forbid", "K3"),
        ("estimate", "--n", "4", "--k", "2", "--event", "Q"),
    ], ids=lambda argv: argv[0])
    def test_config_flag_exit_2(self, capsys, tmp_path, argv):
        conf = tmp_path / "ck.conf"
        conf.write_text(f"format=json\nseed=5\ncache_dir={tmp_path}\n")
        code, out, err = run(capsys, *argv, "--config", str(conf))
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: --config {conf}" in err
        assert list(tmp_path.iterdir()) == [conf]

    @pytest.mark.parametrize("argv", [("count", "--turan", "4", "2"), ("verify", "major", "--n-max", "3")])
    def test_unknown_format_value_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "xml")
        assert (code, out) == (2, "")
        assert "invalid choice: 'xml'" in err

    def test_seed_defaults_to_zero(self, capsys):
        argv = ("estimate", "--n", "6", "--k", "3", "--event", "Q", "--samples", "200", "--format", "json")
        unseeded = run(capsys, *argv)
        assert unseeded == run(capsys, *argv, "--seed", "0")
        assert unseeded != run(capsys, *argv, "--seed", "5")


class TestFormat:
    """``--format`` is ``table`` or ``json`` for every command and suite."""

    @pytest.mark.parametrize("argv", [
        ("count", "--turan", "4", "4"),
        ("analytic", "--parts", "2,2"),
        ("search", "--n", "4", "--forbid", "K3"),
        ("estimate", "--n", "4", "--k", "2", "--event", "Q"),
        *(("verify", name, "--n-max", "4") for name in cli.SUITES),
    ], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "verify" else argv[0])
    def test_csv_format_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, out) == (2, "")
        assert "invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv", [
    ("count", "--graph6=--"),
    ("count", "--edge-list=--"),
    ("analytic", "--parts=--"),
    ("analytic", "--parts", "2,2", "--rooted=--"),
    ("search", "--n", "4", "--forbid=--"),
    ("estimate", "--n", "4", "--k", "2", "--event", "P", "--content=--"),
], ids=" ".join)
def test_double_dash_value_exit_2(capsys, argv):
    # argparse hands ``--flag=--`` over as an empty list, which used to end
    # in a traceback (or, for --rooted, in no rooted count at all)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: '--' is not a flag value\n")


class TestFlagsPerCommand:
    """A command takes --seed or --cache-dir only if it reads it; any other
    use of those flags is a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--turan", "5", "2", "--seed", "1"),
            ("count", "--turan", "5", "2", "--cache-dir", "D"),
            ("count", "--turan", "5", "2", "--cycle-cap", "0"),
            ("analytic", "--parts", "2,2", "--seed", "1"),
            ("analytic", "--parts", "2,2", "--cache-dir", "D"),
            ("verify", "major", "--n-max", "3", "--cache-dir", "D"),
            ("search", "--n", "4", "--forbid", "K3", "--seed", "1"),
            ("estimate", "--n", "4", "--k", "2", "--event", "Q", "--cache-dir", "D"),
        ],
        ids=" ".join,
    )
    def test_unread_flag_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


# a small accepted value of each verify flag that only some suites read;
# --k and --k-max take the suite's least k
SUITE_FLAG_VALUES = {"--k": None, "--k-max": None, "--i-max": "1", "--n0": "4", "--samples": "2", "--seed": "1"}


class TestFlagsPerSuite:
    """Each ``verify`` suite takes --format, --n-max and only the flags its
    row of ``cli.SUITES`` reads; the cases come from the table, so a new row
    is covered as it is added."""

    @pytest.mark.parametrize("flag", list(SUITE_FLAG_VALUES))
    @pytest.mark.parametrize("name", list(cli.SUITES))
    def test_flag_is_read_or_refused(self, capsys, name, flag):
        suite = cli.SUITES[name]
        if flag in ("--k", "--k-max"):
            reads, value = suite.k_min is not None, str(suite.k_min or 3)
        else:
            reads, value = flag[2:].replace("-", "_") in suite.flags, SUITE_FLAG_VALUES[flag]
        code, out, err = run(capsys, "verify", name, "--n-max", "6", flag, value)
        if reads:
            assert (code, err) == (0, "") and out
        else:
            assert (code, out) == (2, "")
            assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("name", list(cli.SUITES))
    def test_row_declares_what_its_reports_read(self, name):
        suite = cli.SUITES[name]
        args = cli.build_parser().parse_args(["verify", name, "--n-max", "6"])
        read = set()

        class Recorder:
            def __getattr__(self, attr):
                read.add(attr)
                return getattr(args, attr)

        class Ks:
            iterated = False

            def __iter__(self):
                self.iterated = True
                return iter([suite.k_min or 3])

        ks = Ks()
        assert list(suite.reports(Recorder(), ks))
        assert read == {"n_max", *suite.flags}
        assert ks.iterated == (suite.k_min is not None)


def _readme_commands():
    """The ``cyclekit`` lines of README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cyclekit ")]


README_COMMANDS = _readme_commands()


def test_readme_block_covers_every_command():
    assert {shlex.split(line)[1] for line in README_COMMANDS} == {"count", "analytic", "verify", "search", "estimate"}


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_exits_0(capsys, tmp_path, monkeypatch, line):
    # run where the README's input files exist, and cache under tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    (tmp_path / "graphs.g6").write_text(graph_to_graph6(turan_graph(4, 4)) + "\n" + graph_to_graph6(turan_graph(5, 2)) + "\n")
    (tmp_path / "mygraph.txt").write_text("3\n0 1\n1 2\n2 0\n")
    argv = shlex.split(line, comments=True)[1:]
    if "--cache-dir" in argv:
        argv[argv.index("--cache-dir") + 1] = str(tmp_path / "cache")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("value", ["2,zero", "", ","], ids=["not-an-int", "empty", "comma-only"])
@pytest.mark.parametrize(
    "argv",
    [("count", "--parts"), ("analytic", "--parts"), ("estimate", "--n", "4", "--k", "2", "--event", "P", "--content")],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
def test_bad_class_sizes_name_the_flag(capsys, argv, value):
    code, out, err = run(capsys, *argv, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[-1]} needs ") and repr(value) in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(("count", "--parts", "2,0"), "class sizes must be positive", id="count-zero"),
    pytest.param(("analytic", "--parts", "3,-1"), "class sizes must be positive", id="analytic-negative"),
    pytest.param(("count", "--parts", "33,32"), "total size exceeds 64", id="count-65"),
    pytest.param(("analytic", "--parts", "33,32"), "total size exceeds 64", id="analytic-65"),
])
def test_invalid_class_sizes_exit_2(capsys, argv, message):
    # integers that parse, but are no class sizes
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def run_fresh(*argv):
    """main() in a new interpreter: (exit code, stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import sys; from cyclekit.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_reader_closing_stdout_early_exits_1_quietly():
    # about 470 kB of JSON lines, far more than a pipe buffers, so the
    # command is still writing when the reader closes after one line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["verify", "stepcount", "--n-max", "20", "--format", "json"]
    with subprocess.Popen([sys.executable, "-m", "cyclekit.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert json.loads(proc.stdout.readline())["name"] == "stepcount"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize(
        "bad",
        [("count", "--turan", "4"), ("bogus",), ("estimate", "--n", "3", "--k", "2", "--event", "Z")],
    )
    def test_usage_error_then_valid_command(self, capsys, bad):
        good = ("count", "--turan", "5", "2", "--format", "json")
        in_process = [run(capsys, *bad), run(capsys, *good)]
        assert in_process[0][0] == 2 and in_process[1][0] == 0
        assert in_process == [run_fresh(*bad), run_fresh(*good)]


class TestFuzz:
    """Malformed graph arguments exit 2 with one error message: no traceback
    and nothing on stdout."""

    @settings(max_examples=200, deadline=None)
    @given(graph_texts())
    def test_count_graph6(self, text):
        try:
            g = graph_from_graph6(text)
        except GraphFormatError:
            g = None
        if g is not None and g.n > 10:
            return  # well formed but too costly to count here
        code, out, err = run_quiet("count", f"--graph6={text}", "--format", "json")
        assert "Traceback" not in err
        if g is None:
            assert (code, out) == (2, "")
            assert err.startswith("error:")
        else:
            assert code == 0
            assert json.loads(out)["total"] == count_cycles(g)

    @settings(max_examples=200, deadline=None)
    @given(text=graph_texts())
    def test_search_forbid(self, text):
        try:
            h = parse_graph_argument(text)
        except GraphFormatError:
            h = None
        code, out, err = run_quiet("search", "--n", "4", f"--forbid={text}", "--format", "json")
        assert "Traceback" not in err
        if h is None or h.n < 2:
            assert (code, out) == (2, "")
            assert err
        elif code == 0:
            assert json.loads(out)["n"] == 4
        else:
            assert (code, out) == (2, "")
