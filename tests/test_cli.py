import ast
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coalstab import cli, games, srsg
from coalstab.errors import ContractWarning, InputError
from coalstab.tables import ResultTable
from conftest import BAD_DOCUMENTS, REPEAT, ROTATE, SPLIT

ROOT = Path(__file__).resolve().parents[1]


def bench_constant(name: str):
    """A literal constant of perfbench/cli_readme.py, read without importing
    the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "cli_readme.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(name)


README_INVOCATIONS = bench_constant("README_INVOCATIONS")


@pytest.fixture()
def example_game(tmp_path, small_instance):
    path = tmp_path / "example.json"
    games.save_game(path, srsg.game_document(small_instance, {"repeat": REPEAT}))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScoreCommand:
    def test_pair_counts_from_game_file(self, capsys, example_game):
        code, out, _ = run_cli(capsys, "score", "--game", example_game,
                               "--profile", "repeat", "--kind", "strict",
                               "--rmax", "2")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.rows == [("repeat", "strict", 1, 0), ("repeat", "strict", 2, 2)]

    def test_unknown_profile_fails_cleanly(self, capsys, example_game):
        code, _, err = run_cli(capsys, "score", "--game", example_game,
                               "--profile", "missing")
        assert code == 1
        assert "error" in json.loads(err.strip())

    @pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
    def test_malformed_game_file_is_bad_input(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        games.save_game(path, BAD_DOCUMENTS[name])
        code, out, err = run_cli(capsys, "score", "--game", str(path), "--profile",
                                 "p", "--kind", "weak", "--rmax", "2")
        assert (code, out) == (1, "")
        assert json.loads(err.strip())["error"] == "InputError"

    def test_budget_exhaustion_truncates_with_marker(self, capsys, example_game):
        code, out, err = run_cli(capsys, "score", "--game", example_game,
                                 "--profile", "repeat", "--rmax", "3",
                                 "--budget", "100")
        assert code == 3
        table = ResultTable.from_csv(out)
        assert "truncated" in table.provenance
        assert json.loads(err.strip())["error"] == "budget exceeded"

    def test_negative_budget_is_bad_input(self, capsys, monkeypatch, example_game):
        argv = ["score", "--game", example_game, "--profile", "repeat",
                "--kind", "strict", "--rmax", "2"]
        code, out, err = run_cli(capsys, *argv, "--budget", "-5")
        assert (code, out) == (1, "")
        assert json.loads(err.strip())["error"] == "InputError"
        monkeypatch.setenv("COALSTAB_BUDGET", "-1")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err.strip())["error"] == "InputError"

    def test_generator_document_with_16_million_actions(self, capsys, tmp_path):
        # srsg(4,6,12): loading encodes no action up front, r = 1 is scored
        # by the hook, and r = 2's (4^12)^2 joint actions pass the budget
        inst = srsg.SrsgInstance(4, 6, 12, srsg.CostFn.linear(6))
        path = tmp_path / "big.json"
        games.save_game(path, srsg.game_document(
            inst, {"repeat": srsg.build_repeat_ne(inst)}))
        code, out, err = run_cli(capsys, "score", "--game", str(path), "--profile",
                                 "repeat", "--kind", "weak", "--rmax", "2")
        assert code == 3
        assert out.splitlines()[2:] == ["repeat,weak,1,0"]
        assert json.loads(err.strip())["error"] == "budget exceeded"

    def test_budget_cut_keeps_finished_sizes(self, capsys, example_game):
        code, out, _ = run_cli(capsys, "score", "--game", example_game,
                               "--profile", "repeat", "--kind", "strict",
                               "--rmax", "3", "--budget", "300")
        assert code == 3
        assert out.splitlines()[2:] == ["repeat,strict,1,0", "repeat,strict,2,2"]
        table = ResultTable.from_csv(out)
        assert table.provenance["truncated"].startswith("size 3: ")


class TestSrsgCommand:
    def test_repeat_profile_counts(self, capsys):
        code, out, _ = run_cli(capsys, "srsg", "--m", "4", "--n", "6", "--k", "2",
                               "--profile", "repeat", "--method", "both")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert table.rows == [("repeat", 2, 2, "structural"),
                              ("repeat", 2, 2, "bruteforce")]

    def test_random_profile_rows(self, capsys):
        code, out, _ = run_cli(capsys, "srsg", "--m", "3", "--n", "5", "--k", "2",
                               "--profile", "random", "--samples", "5",
                               "--seed", "11")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert len(table.rows) == 5
        assert table.provenance["seed"] == "11"

    def test_random_profile_both_methods_agree(self, capsys):
        argv = ("srsg", "--m", "3", "--n", "5", "--k", "2", "--profile", "random",
                "--samples", "4", "--seed", "11", "--method")
        code, out, _ = run_cli(capsys, *argv, "both")
        assert code == 0
        rows = ResultTable.from_csv(out).rows
        code, out, _ = run_cli(capsys, *argv, "structural")
        assert code == 0
        structural = ResultTable.from_csv(out).rows
        assert [row[2] for row in structural] == [0, 0, 1, 1]
        assert rows[0::2] == structural
        assert rows[1::2] == [row[:3] + ("bruteforce",) for row in structural]

    def test_budget_cut_keeps_the_structural_row(self, capsys, monkeypatch):
        # the structural count searches nothing; a pair's bruteforce scan
        # covers (m^k)^2 = 256 joint actions
        monkeypatch.setenv("COALSTAB_BUDGET", "255")
        code, out, err = run_cli(capsys, "srsg", "--m", "4", "--n", "6", "--k", "2",
                                 "--method", "both")
        assert code == 3
        assert json.loads(err.strip())["error"] == "budget exceeded"
        table = ResultTable.from_csv(out)
        assert table.rows == [("repeat", 2, 2, "structural")]
        assert table.provenance["truncated"] == (
            "budget exceeded: search space of 256 joint actions exceeds budget 255")

    @pytest.mark.parametrize("method", ["structural", "bruteforce", "both"])
    def test_negative_samples_rejected(self, capsys, method):
        code, out, err = run_cli(capsys, "srsg", "--m", "2", "--n", "3", "--k", "2",
                                 "--profile", "random", "--samples", "-5",
                                 "--method", method)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": "samples must be nonnegative"}

    @pytest.mark.parametrize("method", ["structural", "bruteforce"])
    def test_negative_seed_rejected(self, capsys, method):
        # random.Random seeds with abs(seed): -1 would repeat seed 1's samples
        code, out, err = run_cli(capsys, "srsg", "--m", "10", "--n", "55", "--k", "3",
                                 "--profile", "random", "--seed", "-1",
                                 "--method", method)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": "seed must be nonnegative"}

    # CostFn takes any nondecreasing cost; the equilibrium builders and the
    # sampler are proven for convex ones only
    @pytest.mark.parametrize("args,detail", [
        (("--profile", "repeat"), "repeat construction is analysed for convex costs"),
        (("--profile", "random", "--samples", "3", "--seed", "1"),
         "random equilibrium sampling requires convex costs"),
        (("--profile", "scatter", "--method", "bruteforce"),
         "scatter construction is analysed for convex costs"),
    ], ids=["repeat", "random", "scatter-bruteforce"])
    def test_nonconvex_cost_is_a_contract_error_record(self, capsys, args, detail):
        code, out, err = run_cli(capsys, "srsg", "--m", "4", "--n", "6", "--k", "2",
                                 "--cost", "0,2,3,3,3,3", *args)
        assert (code, out) == (1, "")
        assert json.loads(err.strip()) == {"error": "ContractError", "detail": detail}


class TestAuctionCommand:
    def test_pair_count_row(self, capsys):
        code, out, _ = run_cli(capsys, "auction", "--s", "5", "--count-pairs")
        assert code == 0
        table = ResultTable.from_csv(out)
        eq, s, r, count, potential, ratio = table.rows[0]
        assert (eq, s, r, potential) == ("le", 5, 2, 15)
        assert 5 <= count <= 15

    def test_table1_grid(self, capsys):
        code, out, _ = run_cli(capsys, "auction", "--s", "4", "--table1")
        assert code == 0
        table = ResultTable.from_csv(out)
        assert len(table.rows) == 9
        counts = {(row[0], row[1]): row[3] for row in table.rows}
        assert counts[("beta-convex:2", "linear")] == 4
        assert counts[("beta-concave:2", "linear")] == 10

    def test_explicit_vectors(self, capsys):
        code, out, _ = run_cli(capsys, "auction", "--s", "2", "--n", "3",
                               "--v", "10,6,2", "--x", "2,1", "--count-pairs")
        assert code == 0
        assert ResultTable.from_csv(out).rows[0][3] == 2

    def test_one_entry_vectors(self, capsys):
        # '2' is a one-entry list, not a shape name: a single slot
        code, out, _ = run_cli(capsys, "auction", "--s", "1", "--n", "3",
                               "--v", "5,3,1", "--x", "2", "--count-pairs")
        assert code == 0
        assert ResultTable.from_csv(out).rows[0][2:5] == (2, 1, 1)

    def test_shape_endpoints(self, capsys):
        assert cli.parse_shape("linear:10..1", 4) == (10, 7, 4, 1)
        # a non-linear shape takes only the high endpoint and is rescaled to it
        assert cli.parse_shape("convex:10", 3) == \
            (10, Fraction(80, 11), Fraction(60, 11))
        for shape in ("linear:10..1", "convex:10"):
            assert run_cli(capsys, "auction", "--s", "3", "--v", shape,
                           "--count-pairs")[0] == 0
        code, out, err = run_cli(capsys, "auction", "--s", "3", "--v", "concave:5..1",
                                 "--count-pairs")
        assert (code, out) == (1, "")
        assert json.loads(err.strip()) == {
            "error": "InputError", "detail": "only linear shapes take a low endpoint"}

    @pytest.mark.parametrize("eq", ["le", "ue"])
    @pytest.mark.parametrize("flag", [("--count-pairs",), ("--count-coalitions", "2")],
                             ids=["pairs", "coalitions"])
    def test_counters_reject_n_at_most_s(self, capsys, eq, flag):
        # with no loser there is no equilibrium to judge
        code, out, err = run_cli(capsys, "auction", "--s", "3", "--n", "3",
                                 "--v", "6,4,2", "--x", "4,2,1", "--eq", eq, *flag)
        assert code == 1 and out == ""
        assert "more bidders than slots" in json.loads(err.strip())["detail"]

    @pytest.mark.parametrize("eq", ["le", "ue"])
    def test_budget_cut_keeps_the_pair_row(self, capsys, monkeypatch, eq):
        # M_2 = 78 fits the budget, M_4 = 793 does not
        monkeypatch.setenv("COALSTAB_BUDGET", "78")
        code, out, err = run_cli(capsys, "auction", "--s", "12", "--count-pairs",
                                 "--count-coalitions", "4", "--eq", eq)
        assert code == 3
        assert json.loads(err.strip())["error"] == "budget exceeded"
        table = ResultTable.from_csv(out)
        assert [row[:3] for row in table.rows] == [(eq, 12, 2)]
        assert table.provenance["truncated"] == (
            "r 4: budget exceeded: search space of 793 potential coalitions "
            "exceeds budget 78")

    def test_truthful_count_is_not_charged_to_the_budget(self, capsys, monkeypatch):
        # the VCG count is proven: M_20 at s = 40 is far past a budget of 1
        monkeypatch.setenv("COALSTAB_BUDGET", "1")
        code, out, _ = run_cli(capsys, "auction", "--s", "40", "--count-coalitions",
                               "20", "--eq", "vcg")
        assert code == 0
        [(eq, s, r, count, potential, ratio)] = ResultTable.from_csv(out).rows
        assert (eq, s, r, ratio) == ("vcg", 40, 20, 1.0)
        assert count == potential == sum(math.comb(40, t) for t in range(1, 21))

    @pytest.mark.parametrize("r, vcg, le", [
        (1, "vcg,3,1,0,3,0.0", "le,3,1,0,3,0.0"),
        (2, "vcg,3,2,6,6,1.0", "le,3,2,3,6,0.5"),
        (3, "vcg,3,3,4,4,1.0", "le,3,3,4,4,1.0"),
        (4, "vcg,3,4,1,1,1.0", "le,3,4,1,1,1.0"),
    ], ids=["r1", "r2", "r3", "r4"])
    def test_rows_count_only_coalitions_that_exist(self, capsys, r, vcg, le):
        # n = 4: one loser, so no loser block of two; single bidders never gain
        for eq, row in (("vcg", vcg), ("le", le)):
            code, out, _ = run_cli(capsys, "auction", "--s", "3", "--n", "4",
                                   "--v", "8,6,4,2", "--x", "4,2,1", "--eq", eq,
                                   "--count-coalitions", str(r))
            assert code == 0
            assert out.splitlines()[-1] == row

    def test_coalition_larger_than_the_bidders_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "auction", "--s", "3", "--n", "4",
                                 "--count-coalitions", "5", "--eq", "vcg")
        assert (code, out) == (1, "")
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": "coalition size 5 exceeds the 4 bidders"}

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_coalition_size_must_be_positive(self, capsys, size):
        # 0 is a size to reject, not "no --count-coalitions"
        code, out, err = run_cli(capsys, "auction", "--s", "3", "--count-pairs",
                                 "--count-coalitions", size)
        assert (code, out) == (1, "")
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": "coalition size must be positive"}

    def test_requires_an_action(self, capsys):
        code, _, err = run_cli(capsys, "auction", "--s", "3")
        assert code == 1 and "error" in json.loads(err.strip())

    def test_shape_names(self, capsys):
        names = ("linear", "convex", "concave", "beta-convex:2", "beta-concave:2",
                 "beta_convex:2", "beta-linear", "Linear")
        accepted = [name for name in names
                    if run_cli(capsys, "auction", "--s", "3", "--v", name,
                               "--count-pairs")[0] == 0]
        assert accepted == list(names[:5])
        code, _, err = run_cli(capsys, "auction", "--s", "3", "--v", "beta_convex:2",
                               "--count-pairs")
        assert code == 1
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": "unknown shape 'beta_convex'"}

    @pytest.mark.parametrize("action", [("--count-pairs",), ("--table1",)])
    def test_zero_bidders_is_not_the_default(self, capsys, action):
        # --n 0 is an input to reject, not a request for the default 2s
        code, out, err = run_cli(capsys, "auction", "--s", "3", "--n", "0", *action)
        assert code == 1 and out == ""
        assert json.loads(err.strip())["error"] == "InputError"


class TestReserveCommand:
    def test_fixed_mode_reports_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "reserve", "--s", "2", "--n", "3",
                               "--v", "10,6,2", "--x", "2,1",
                               "--mode", "fixed", "--c", "3")
        assert code == 0
        report = json.loads(out)
        assert report["modes_agree"] is True
        assert report["payments"] == ["9/2", "3/1"]

    def test_fixed_mode_single_slot(self, capsys):
        code, out, _ = run_cli(capsys, "reserve", "--s", "1", "--n", "2",
                               "--v", "5,3", "--x", "2", "--mode", "fixed", "--c", "1")
        assert code == 0
        report = json.loads(out)
        assert report["modes_agree"] is True
        assert (report["allocation"], report["payments"]) == ([0], ["3/1"])

    def test_fixed_mode_rejects_check_sse(self, capsys):
        code, out, err = run_cli(capsys, "reserve", "--s", "3", "--n", "3",
                                 "--v", "6,4,2", "--x", "4,2,1",
                                 "--mode", "fixed", "--c", "3", "--check-sse")
        assert code == 1 and out == ""
        assert "--check-sse" in json.loads(err.strip())["detail"]

    def test_star_mode_certifies(self, capsys):
        code, out, _ = run_cli(capsys, "reserve", "--s", "3", "--n", "3",
                               "--v", "6,4,2", "--x", "4,2,1",
                               "--check-sse", "--q-reserve", "1/2")
        assert code == 0
        report = json.loads(out)
        assert report["sse_verdict"] == "certified_no_deviation_on_grid"
        assert all("/" in u for u in report["expected_utilities"])

    def test_star_mode_reports_the_deviation(self, capsys):
        # a spare bidder: the slotless fourth bidder joins the top one
        with pytest.warns(ContractWarning):
            code, out, _ = run_cli(capsys, "reserve", "--s", "3", "--n", "4",
                                   "--v", "8,6,4,2", "--x", "4,2,1",
                                   "--check-sse", "--vmax", "16")
        assert code == 0
        report = json.loads(out)
        assert report["sse_verdict"] == "deviation_found"
        assert report["deviating_members"] == [0, 3]
        assert report["deviating_reports"] == ["7/1", "6/1", "4/1", "1/1"]

    def test_star_lambda_mode(self, capsys):
        code, out, _ = run_cli(capsys, "reserve", "--s", "2", "--n", "4",
                               "--v", "9,7,3,1", "--x", "8,4",
                               "--mode", "star-lambda", "--lambda", "1/8")
        assert code == 0
        report = json.loads(out)
        assert len(report["extended_ctrs"]) == 4

    def test_star_lambda_mode_needs_lambda(self, capsys):
        code, out, err = run_cli(capsys, "reserve", "--s", "2", "--n", "4",
                                 "--v", "9,7,3,1", "--x", "8,4",
                                 "--mode", "star-lambda")
        assert code == 1 and out == ""
        assert "--lambda" in json.loads(err.strip())["detail"]

    def test_star_lambda_mode_rejects_check_sse(self, capsys):
        # the certification judges the plain s-slot reserve, not the
        # slot-randomised auction this mode reports
        code, out, err = run_cli(capsys, "reserve", "--s", "2", "--n", "4",
                                 "--v", "9,7,3,1", "--x", "8,4",
                                 "--mode", "star-lambda", "--lambda", "1/8",
                                 "--check-sse")
        assert code == 1 and out == ""
        assert "--check-sse" in json.loads(err.strip())["detail"]

    def test_budget_env_caps_the_certification_search(self, monkeypatch, capsys):
        monkeypatch.setenv("COALSTAB_BUDGET", "10")
        code, out, err = run_cli(capsys, "reserve", "--s", "3", "--n", "3",
                                 "--v", "6,4,2", "--x", "4,2,1",
                                 "--check-sse", "--q-reserve", "1/2")
        assert code == 3
        assert json.loads(err.strip())["error"] == "budget exceeded"
        # the expected utilities were computed before the cut and are kept
        report = json.loads(out)
        assert report["expected_utilities"] == ["37/4", "43/12", "13/12"]
        assert "budget exceeded" in report["provenance"]["truncated"]
        assert "sse_verdict" not in report


class TestSweepCommand:
    def test_resource_game_sweep_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "srsg", "--m", "2:3",
                               "--n", "m+1:3m", "--k", "2")
        assert code == 0
        table = ResultTable.from_csv(out)
        import math
        for m, n, k, profile, r, count, method in table.rows:
            q, full = n % m, math.ceil(n / m)
            assert count == q * math.comb(full, 2)

    def test_budget_cut_keeps_finished_rows(self, monkeypatch, capsys):
        # m = 4, n = 5 is the first brute-force search past 1000 joint actions
        monkeypatch.setenv("COALSTAB_BUDGET", "1000")
        code, out, err = run_cli(capsys, "sweep", "srsg", "--m", "2:6",
                                 "--n", "m+1:m+2", "--k", "3",
                                 "--method", "bruteforce")
        assert code == 3
        assert json.loads(err.strip())["error"] == "budget exceeded"
        table = ResultTable.from_csv(out)
        assert [row[:2] for row in table.rows] == [(2, 3), (2, 4), (3, 4), (3, 5)]
        for m, n, k, _, _, count, _ in table.rows:
            inst = srsg.SrsgInstance(m, n, k, srsg.CostFn.linear(n))
            assert count == srsg.count_pair_deviations(
                inst, srsg.build_repeat_ne(inst), "structural")
        assert table.provenance["truncated"].startswith("m 4, n 5: budget exceeded")

    def test_auction_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "auction", "--s", "10:20:10")
        assert code == 0
        assert len(ResultTable.from_csv(out).rows) == 2

    # an empty range would print a header with no rows and exit 0
    @pytest.mark.parametrize("argv", [("auction", "--s", "20:10"),
                                      ("srsg", "--m", "5:3", "--n", "m+1", "--k", "2")],
                             ids=["auction", "srsg"])
    def test_empty_range_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, out) == (1, "")
        assert json.loads(err.strip()) == {"error": "InputError",
                                           "detail": f"range is empty, got {argv[2]!r}"}

    def test_range_validation(self, capsys):
        for bad in ("abc", "10:20:0"):
            code, out, err = run_cli(capsys, "sweep", "auction", "--s", bad)
            assert (code, out) == (1, "")
            assert json.loads(err.strip())["error"] == "InputError"

    def test_expression_parser(self):
        assert cli.eval_expr("4m", 3) == 12
        assert cli.eval_expr("m+1", 3) == 4
        assert cli.eval_expr("2m-1", 5) == 9
        assert cli.eval_expr("7", 2) == 7
        with pytest.raises(InputError):
            cli.eval_expr("m*m", 2)

    # a constant after the m term needs a sign; without one '2m3' would
    # read as 2m+3
    @pytest.mark.parametrize("text", ["2m3", "m 3", "m3", "2 m 1"])
    def test_unsigned_constant_after_m_is_refused(self, text):
        with pytest.raises(InputError, match="cannot parse expression"):
            cli.eval_expr(text, 4)


# One malformed or zero-denominator rational for each flag that takes one.
BAD_RATIONALS = {
    "srsg-cost-1/0": ["srsg", "--m", "3", "--n", "5", "--k", "2",
                      "--cost", "1/0,1,1,1,1"],
    "srsg-cost-abc": ["srsg", "--m", "3", "--n", "5", "--k", "2", "--cost", "abc"],
    "auction-v-list": ["auction", "--s", "2", "--v", "3,1/0,1,1", "--count-pairs"],
    "auction-v-linear": ["auction", "--s", "2", "--v", "linear:1/0", "--count-pairs"],
    "auction-v-beta": ["auction", "--s", "2", "--v", "beta-convex:1/0",
                       "--count-pairs"],
    "reserve-c-1/0": ["reserve", "--s", "2", "--mode", "fixed", "--c", "1/0"],
    "reserve-c-abc": ["reserve", "--s", "2", "--mode", "fixed", "--c", "abc"],
    "reserve-q-reserve": ["reserve", "--s", "2", "--q-reserve", "1/0"],
    "reserve-vmax": ["reserve", "--s", "2", "--vmax", "1/0"],
    "reserve-lambda": ["reserve", "--s", "2", "--mode", "star-lambda",
                       "--lambda", "1/0"],
}


@pytest.mark.parametrize("argv", BAD_RATIONALS.values(), ids=BAD_RATIONALS.keys())
def test_bad_rational_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["InputError"]


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert cli.main(["srsg", "--m", "3", "--n", "7", "--k", "2",
                             "--profile", "random", "--samples", "4",
                             "--seed", "5", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_is_always_recorded(self, tmp_path):
        path = tmp_path / "out.csv"
        cli.main(["srsg", "--m", "3", "--n", "7", "--k", "2", "--profile",
                  "random", "--samples", "2", "--seed", "9", "--out", str(path)])
        table = ResultTable.from_csv(path.read_text())
        assert table.provenance["seed"] == "9"

    def test_workers_env_does_not_change_output(self, tmp_path, monkeypatch):
        args = ["srsg", "--m", "3", "--n", "7", "--k", "2", "--profile",
                "random", "--samples", "6", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(args + ["--out", str(a)])
        monkeypatch.setenv("COALSTAB_WORKERS", "2")
        cli.main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name,argv", [
        ("COALSTAB_BUDGET", ["srsg", "--m", "2", "--n", "3", "--k", "2",
                             "--method", "bruteforce"]),
        ("COALSTAB_WORKERS", ["srsg", "--m", "2", "--n", "3", "--k", "2",
                              "--profile", "random", "--samples", "4"]),
    ])
    def test_non_integer_env_is_bad_input(self, monkeypatch, capsys, name, argv):
        monkeypatch.setenv(name, "abc")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        record = json.loads(err.strip())
        assert record["error"] == "InputError"
        assert name in record["detail"]

    def test_budget_env_respected(self, monkeypatch, capsys, example_game):
        monkeypatch.setenv("COALSTAB_BUDGET", "10")
        code, out, _ = run_cli(capsys, "score", "--game", example_game,
                               "--profile", "repeat", "--rmax", "2")
        assert code == 3

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "auction", "--s", "3", "--count-pairs",
                               "--format", "json")
        assert code == 0
        table = ResultTable.from_json(out)
        assert table.rows[0][1] == 3

    def test_decimal_columns_flag(self, capsys):
        code, out, _ = run_cli(capsys, "reserve", "--s", "2", "--n", "3",
                               "--v", "10,6,2", "--x", "2,1",
                               "--mode", "fixed", "--c", "0")
        assert code == 0  # reserve output is JSON; decimals apply to CSV tables


class TestReadmeOutputs:
    """Every README `coalstab` line, run in-process, against the stdout
    digest and exit code that perfbench/pins.json pins for it (pins.json is
    only read here)."""

    PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())

    @pytest.fixture()
    def readme_dir(self, tmp_path, monkeypatch, small_instance):
        """The benchmark's example.json in the working directory, and the
        default budget."""
        games.save_game(tmp_path / "example.json", srsg.game_document(
            small_instance, {"repeat": REPEAT, "split": SPLIT, "rotate": ROTATE}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("COALSTAB_BUDGET", raising=False)

    def test_readme_lines_are_the_pinned_invocations(self):
        lines = [line.partition("#")[0].split(None, 1)[1].strip()
                 for line in (ROOT / "README.md").read_text().splitlines()
                 if line.startswith("coalstab ")]
        assert lines == [args for _, args in README_INVOCATIONS]

    @pytest.mark.parametrize("name, args", README_INVOCATIONS,
                             ids=[name for name, _ in README_INVOCATIONS])
    def test_output_matches_the_pin(self, capsys, readme_dir, name, args):
        code, out, _ = run_cli(capsys, *args.split())
        pin = self.PINS["cli"][name]
        assert code == pin["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]

    def test_budget_cut_keeps_the_pinned_rows(self, capsys, readme_dir):
        _, args = bench_constant("BUDGET_CUT")
        code, out, _ = run_cli(capsys, *args.split())
        assert code == 3
        assert out.splitlines()[2:] == self.PINS["cli_budget_cut_rows"]


class TestImportFootprint:
    """A `coalstab` process imports only the layer its subcommand runs, and
    the library never loads `dataclasses` or `inspect`.  Each case runs in a
    fresh interpreter and lists the modules it loaded past start-up."""

    @staticmethod
    def loaded_by(code: str) -> set:
        script = (f"import json, os, sys\nbefore = set(sys.modules)\n{code}\n"
                  "print(json.dumps(sorted(set(sys.modules) - before)))")
        src = ROOT / "src"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        return set(json.loads(proc.stdout.splitlines()[-1]))

    @pytest.mark.parametrize("code, loaded, unloaded", [
        ("import coalstab.cli", {"coalstab.games", "coalstab.tables"},
         {"dataclasses", "inspect", "coalstab.auction", "coalstab.reserve",
          "coalstab.srsg"}),
        ("import coalstab.auction, coalstab.reserve, coalstab.srsg, coalstab.tables",
         {"coalstab.reserve"}, {"dataclasses", "inspect"}),
        ("from coalstab import cli\nassert cli.main(['srsg', '--m', '4', '--n', '6', "
         "'--k', '2', '--out', os.devnull]) == 0",
         {"coalstab.srsg"}, {"coalstab.auction", "coalstab.reserve"}),
        ("from coalstab import cli\nassert cli.main(['auction', '--s', '5', "
         "'--count-pairs', '--out', os.devnull]) == 0",
         {"coalstab.auction"}, {"coalstab.srsg", "coalstab.reserve"}),
    ], ids=["import-cli", "import-library", "srsg-command", "auction-command"])
    def test_modules_loaded(self, code, loaded, unloaded):
        modules = self.loaded_by(code)
        assert loaded <= modules
        assert not unloaded & modules


class TestBenchmarkSurface:
    """perfbench/ lies outside the test paths, so this is what notices when
    the library drops or renames a name the benchmark uses."""

    def test_every_library_name_perfbench_uses_resolves(self):
        layers = ("auction", "games", "reserve", "srsg", "tables")
        used = set()
        for path in sorted((ROOT / "perfbench").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                chain, root = [], node
                while isinstance(root, ast.Attribute):
                    chain.append(root.attr)
                    root = root.value
                if chain and isinstance(root, ast.Name) and root.id in layers:
                    used.add((root.id, *reversed(chain)))
        assert used
        for module, *attrs in sorted(used):
            obj = importlib.import_module(f"coalstab.{module}")
            for attr in attrs:
                assert hasattr(obj, attr), f"perfbench uses {module}.{'.'.join(attrs)}"
                obj = getattr(obj, attr)
