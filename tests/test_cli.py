import csv
import io
import json
import math
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_digits_by_decimal
from ruleorder import cli, complexity, harness, scientific
from ruleorder.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no csv rows in {text!r}"
    return rows


def normalize(value):
    """Fold a csv cell and a json value into one comparable shape."""
    if value is None or value == "":
        return None
    if value is True or value == "true":
        return True
    if value is False or value == "false":
        return False
    return str(value)


def assert_csv_json_agree(capsys, *argv):
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    code_json, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert code_csv == code_json == 0
    csv_rows = parse_csv(out_csv)
    payload = json.loads(out_json)
    json_rows = payload if isinstance(payload, list) else [payload]
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        assert list(crow.keys()) == list(jrow.keys())
        for key in crow:
            assert normalize(crow[key]) == normalize(jrow[key]), key


class TestPredict:
    def test_values_at_27(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "27", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_n"] == 377
        assert payload["b_n"] == 104
        assert payload["b_f_n"] == 94
        assert payload["naive"] == "10888869450418352160768000000"

    def test_degenerate_n1(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["s_n"], payload["b_n"], payload["b_f_n"]) == (0, 0, 0)
        assert payload["naive"] == "1"
        assert payload["speedup"] is None

    def test_b_n_at_1000(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["b_n"] == 8977

    def test_human_shows_scientific_naive(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", "27")
        assert code == 0
        assert "naive: 1.08889e+28" in out

    def test_zero_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--n", "0")
        assert code == 1
        assert err == "error: --n must be a positive integer, got 0\n"

    def test_non_numeric_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--n", "abc")
        assert code == 1
        assert "error" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize(
        "argv,err",
        [
            (("predict", "--n", "-" + "9" * 4000),
             "--n must be a positive integer, got an int of 13288 bits"),
            # Past the interpreter's digit limit (4300), int() itself fails.
            (("predict", "--n", "-" + "9" * 5000),
             "argument --n: invalid int value: '-999999999999999..."),
            (("learn", "--n", "3", "--strategy", "block", "--seed", "9" * 5000),
             "argument --seed: invalid int value: '9999999999999999..."),
        ],
        ids=["n-4000-digits", "n-5000-digits", "seed-5000-digits"],
    )
    def test_huge_values_are_quoted_short(self, capsys, argv, err):
        assert run_cli(capsys, *argv) == (1, "", f"error: {err}\n")

    def test_csv_json_round_trip(self, capsys):
        assert_csv_json_agree(capsys, "predict", "--n", "27")
        assert_csv_json_agree(capsys, "predict", "--n", "1")
        # The report's block_years and binary_years are properties, and only
        # the table prints them.
        _, out, _ = run_cli(capsys, "predict", "--n", "27", "--format", "csv")
        assert out.splitlines()[0] == "n,s_n,b_n,b_f_n,log_factorial,speedup,naive"

    def test_human_naive_past_decimal_exponent_limit(self, capsys):
        # n! has 1,026,468 digits here, past the 10**999999 a default
        # Decimal context can hold.
        code, out, err = run_cli(capsys, "predict", "--n", "210000")
        assert (code, err) == (0, "")
        assert "naive: 1.86593e+1026467" in out

    def test_broken_predictor_is_invariant_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(complexity, "binary_steps", lambda n: n * n)
        tables = [["table", "--format", fmt] for fmt in cli.FORMATS]
        for argv in [["predict", "--n", "27"], *tables]:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "b_n < n log2" in err

    def test_broken_naive_is_invariant_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(complexity, "naive_steps", lambda n: 7)
        for fmt in cli.FORMATS:
            for argv in (["predict", "--n", "27"], ["table"]):
                code, out, err = run_cli(capsys, *argv, "--format", fmt)
                assert (code, out) == (2, ""), (argv, fmt)
                assert "bit_length(naive)" in err

    @pytest.mark.parametrize("n", [1559, 2000])
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_naive_past_int_str_digit_limit(self, capsys, n, fmt):
        # n! has more than 4300 digits from n = 1559 on, the interpreter's
        # default limit for int-to-str conversion.
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run_cli(capsys, "predict", "--n", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "human":
            naive = dict(line.split(": ", 1) for line in out.splitlines())["naive"]
            assert naive == scientific(math.factorial(n))
        else:
            naive = json.loads(out)["naive"] if fmt == "json" else parse_csv(out)[0]["naive"]
            assert naive.isdigit()
            assert Decimal(naive) == Decimal(math.factorial(n))
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit


class TestExactDigits:
    @pytest.mark.parametrize("n", [1558, 1559, 2000, 20000])
    def test_factorials_match_one_decimal_conversion(self, n):
        value = math.factorial(n)
        assert cli._decimal_digits(value) == exact_digits_by_decimal(value)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=20000).flatmap(
            lambda bits: st.integers(min_value=-(2**bits), max_value=2**bits)
        )
    )
    @example(0)
    @example(-1)
    @example(2**cli._DIRECT_BITS)
    @example(-(2**cli._DIRECT_BITS) - 1)
    @example(2**20000 - 1)
    def test_ints_match_one_decimal_conversion(self, value):
        assert cli._decimal_digits(value) == exact_digits_by_decimal(value)


class TestLearn:
    def test_adversarial_binary_27(self, capsys):
        code, out, _ = run_cli(
            capsys, "learn", "--n", "27", "--strategy", "binary",
            "--adversarial", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["queries"] == 104
        assert payload["correct"] is True

    def test_single_rule(self, capsys):
        code, out, _ = run_cli(
            capsys, "learn", "--n", "1", "--strategy", "block",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["queries"] == 0

    def test_inline_permutation(self, capsys):
        code, out, _ = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--permutation", "0,1,2", "--cost-model", "comparisons",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["queries"] == 3

    def test_permutation_file(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("2,0,1\n")
        code, out, _ = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "binary",
            "--permutation", str(path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["correct"] is True

    def test_malformed_file_names_offending_line(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("0,one,2\n")
        code, _, err = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--permutation", str(path),
        )
        assert code == 1
        assert "line 1" in err
        assert "'one'" in err

    def test_multi_line_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("0,1,2\n2,1,0\n")
        code, _, err = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--permutation", str(path),
        )
        assert code == 1
        assert "line 2" in err

    def test_missing_file_rejected(self, capsys):
        for value in ("no-such-file.txt", "x" * 300):
            code, _, err = run_cli(
                capsys, "learn", "--n", "3", "--strategy", "block",
                "--permutation", value,
            )
            assert code == 1
            assert "not found" in err
            assert len(err) < 80  # quotes at most 20 characters of the value

    def test_non_permutation_ranks_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--permutation", "0,0,1",
        )
        assert code == 1
        assert "permutation" in err

    def test_wrong_length_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "learn", "--n", "4", "--strategy", "block",
            "--permutation", "0,1,2",
        )
        assert code == 1
        assert "expected 4" in err

    @pytest.mark.parametrize(
        "ranks,queries", [(range(100), 480), (range(999, -1, -1), 8977)], ids=["100", "1000"]
    )
    def test_inline_permutation_longer_than_a_file_name(self, capsys, ranks, queries):
        # Above 255 bytes, so probing it as a path raises ENAMETOOLONG.
        code, out, _ = run_cli(
            capsys, "learn", "--n", str(len(ranks)), "--strategy", "binary",
            "--permutation", ",".join(map(str, ranks)), "--format", "json",
        )
        assert code == 0
        row = json.loads(out)
        assert (row["queries"], row["correct"]) == (queries, True)

    def test_token_above_the_digit_limit_is_quoted_short(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text("0," + "9" * 5000 + "\n")
        code, _, err = run_cli(
            capsys, "learn", "--n", "2", "--strategy", "block", "--permutation", str(path),
        )
        assert code == 1
        assert "too long to be a rank" in err
        assert len(err) < 200 + len(str(path))

    def test_bad_large_file_gets_a_short_error(self, capsys, tmp_path):
        path = tmp_path / "perm.txt"
        path.write_text(",".join(map(str, [*range(99_999), 0])) + "\n")
        code, _, err = run_cli(
            capsys, "learn", "--n", "100000", "--strategy", "block", "--permutation", str(path),
        )
        assert code == 1
        assert "permutation" in err and len(err) < 200

    def test_requires_exactly_one_instance_source(self, capsys):
        code, _, _ = run_cli(capsys, "learn", "--n", "3", "--strategy", "block")
        assert code == 1
        code, _, _ = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--seed", "1", "--adversarial",
        )
        assert code == 1

    def test_seeded_run_is_deterministic(self, capsys):
        argv = ("learn", "--n", "40", "--strategy", "binary",
                "--seed", "99", "--format", "csv")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_csv_json_round_trip(self, capsys):
        assert_csv_json_agree(
            capsys, "learn", "--n", "12", "--strategy", "block", "--seed", "3",
        )

    def test_wrong_learned_order_prints_row_then_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "learn_order", lambda rules, *args: list(rules))
        code, out, err = run_cli(
            capsys, "learn", "--n", "3", "--strategy", "block",
            "--permutation", "2,0,1", "--format", "json",
        )
        assert code == 2
        assert json.loads(out)["correct"] is False
        assert err == "error: learned order does not match the ground truth\n"


class TestSizesTooLargeToBuild:
    # 10**20 rules pass --n's check but not range(n), which once leaked a
    # traceback; the ground truth is built first and rejects them.
    N = str(10**20)
    TOO_LARGE = f"error: n must be at most {sys.maxsize}, got an int of 67 bits\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("learn", "--strategy", "block", "--adversarial"),
            ("learn", "--strategy", "binary", "--seed", "1"),
            ("worst-case", "--strategy", "binary", "--mode", "adversarial"),
        ],
        ids=["learn-adversarial", "learn-seed", "worst-case-adversarial"],
    )
    def test_short_error(self, capsys, argv):
        assert run_cli(capsys, *argv, "--n", self.N) == (1, "", self.TOO_LARGE)

    OUT_OF_MEMORY = "error: out of memory; try a smaller --n\n"

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("_cmd_learn", ("learn", "--strategy", "binary", "--seed", "1")),
            ("_cmd_worst_case", ("worst-case", "--strategy", "block", "--mode", "adversarial")),
            ("_cmd_predict", ("predict",)),
        ],
        ids=["learn", "worst-case", "predict"],
    )
    def test_out_of_memory_is_one_short_error(self, capsys, monkeypatch, command, argv):
        # main's backstop: no command may leak a MemoryError traceback.
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, command, exhausted)
        assert run_cli(capsys, *argv, "--n", "1000") == (1, "", self.OUT_OF_MEMORY)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as Linux has it")
    def test_out_of_memory_in_a_child_with_little_address_space(self):
        # 10**9 rules fit no 1 GB address space; the limit is the child's own.
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        result = subprocess.run(
            [sys.executable, "-m", "ruleorder", "learn", "--seed", "1", "--n", str(10**9),
             "--strategy", "binary"],
            capture_output=True, preexec_fn=limit, timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr.decode() == self.OUT_OF_MEMORY

    @pytest.mark.parametrize(
        "n, shown", [(N, "an int of 67 bits"), ("9" * 4000, "an int of 13288 bits")],
        ids=["10**20", "4000-digits"],
    )
    def test_permutation_length_quotes_n_short(self, capsys, n, shown):
        argv = ("learn", "--strategy", "block", "--permutation", "1,0", "--n", n)
        err = f"error: permutation has 2 ranks, expected {shown}\n"
        assert run_cli(capsys, *argv) == (1, "", err)


class TestWorstCase:
    def test_exhaustive_binary_5(self, capsys):
        code, out, _ = run_cli(
            capsys, "worst-case", "--n", "5", "--strategy", "binary",
            "--mode", "exhaustive", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["max_steps"] == 8

    def test_exhaustive_block_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "worst-case", "--n", "2", "--strategy", "block",
            "--mode", "exhaustive", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["max_steps"] == 1

    def test_adversarial_block_27_with_placement(self, capsys):
        code, out, _ = run_cli(
            capsys, "worst-case", "--n", "27", "--strategy", "block",
            "--mode", "adversarial", "--cost-model", "comparisons-plus-placement",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["max_steps"] == 377

    def test_exhaustive_above_cap_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "worst-case", "--n", "20", "--strategy", "block",
            "--mode", "exhaustive",
        )
        assert code == 1
        assert "capped" in err

    def test_achieving_permutation_is_printed(self, capsys):
        code, out, _ = run_cli(
            capsys, "worst-case", "--n", "3", "--strategy", "block",
            "--mode", "adversarial",
        )
        assert code == 0
        assert "ground_truth: 0-1-2" in out

    def test_csv_json_round_trip(self, capsys):
        assert_csv_json_agree(
            capsys, "worst-case", "--n", "4", "--strategy", "binary",
            "--mode", "exhaustive",
        )

    def test_mode_choices_match_harness(self):
        assert cli.WORST_CASE_MODES == (harness.MODE_EXHAUSTIVE, harness.MODE_ADVERSARIAL)

    def test_wrong_adversarial_order_is_invariant_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "learn_order", lambda rules, *args: list(rules))
        code, _, err = run_cli(
            capsys, "worst-case", "--n", "3", "--strategy", "binary",
            "--mode", "adversarial",
        )
        assert code == 2
        assert "wrong order" in err


class TestTable:
    def test_csv_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / "table.csv").read_text()

    def test_csv_header(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--format", "csv")
        header = out.splitlines()[0]
        assert header == "n,naive,s_n,b_n,speedup,block_years,binary_years"

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [27, 1000]
        assert rows[0]["s_n"] == 377
        assert rows[1]["b_n"] == 8977

    def test_human_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert "1.08889e+28" in out
        assert "4.02387e+2567" in out
        assert "685.15" in out

    def test_csv_json_round_trip(self, capsys):
        assert_csv_json_agree(capsys, "table")


def _golden_cases():
    cases = json.loads((GOLDEN / "cli_cases.json").read_text())
    return [pytest.param(case, id=" ".join(case["argv"])) for case in cases]


@pytest.mark.parametrize("case", _golden_cases())
def test_output_matches_golden_case(capsys, case):
    # Each case is argv -> exit code, stdout and stderr, recorded from the CLI.
    assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


class TestEndToEnd:
    def test_module_invocation_byte_identical_csv(self):
        argv = [sys.executable, "-m", "ruleorder", "learn", "--n", "30",
                "--strategy", "block", "--seed", "7", "--format", "csv"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"strategy,n,queries,steps,correct")

    def test_table_golden_bytes_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "ruleorder", "table", "--format", "csv"],
            capture_output=True, check=True,
        )
        assert result.stdout == (GOLDEN / "table.csv").read_bytes()

    def test_usage_error_exit_code_via_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "ruleorder", "predict", "--n", "nope"],
            capture_output=True,
        )
        assert result.returncode == 1
