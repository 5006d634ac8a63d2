import json
import re
import resource
import subprocess
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import revfree
from revfree import cli, construct
from revfree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")


def write_code(path, n, k, words, repetition_free=True):
    write_json(
        path,
        {"n": n, "k": k, "repetition_free": repetition_free, "words": words},
    )


class TestPlaneCommands:
    def test_build_fano(self, capsys):
        code, out, _ = run_cli(capsys, "plane", "build", "--q", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 2
        assert len(doc["points"]) == len(doc["lines"]) == 7

    def test_build_rejects_non_prime_power(self, capsys):
        code, _, err = run_cli(capsys, "plane", "build", "--q", "6")
        assert code == 2
        assert "prime power" in err

    def test_build_verify_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "plane.json"
        code, _, _ = run_cli(capsys, "plane", "build", "--q", "3", "--out", str(out_path))
        assert code == 0
        # canonical re-serialization is bit-identical
        doc = json.loads(out_path.read_text())
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out_path.read_text()
        code, out, _ = run_cli(capsys, "plane", "verify", "--in", str(out_path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_verify_detects_damage(self, capsys, tmp_path):
        out_path = tmp_path / "plane.json"
        run_cli(capsys, "plane", "build", "--q", "2", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        doc["lines"][0] = doc["lines"][0][:-1]
        write_json(out_path, doc)
        code, out, _ = run_cli(capsys, "plane", "verify", "--in", str(out_path))
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        failed = [c["axiom"] for c in report["checks"] if not c["ok"]]
        assert "P3" in failed

    def test_verify_refuses_a_point_outside_the_document(self, capsys, tmp_path):
        out_path = tmp_path / "plane.json"
        run_cli(capsys, "plane", "build", "--q", "2", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        doc["lines"][3] = doc["lines"][3][:-1] + [7]
        write_json(out_path, doc)
        code, out, err = run_cli(capsys, "plane", "verify", "--in", str(out_path))
        assert code == 2
        assert out == ""
        assert "lines[3] names point 7, outside 0..6" in err

    def test_build_refuses_field_over_order_guard(self, capsys):
        code, out, err = run_cli(capsys, "plane", "build", "--q", "103")
        assert code == 2
        assert out == ""
        assert err == "error: field order 103 is over the limit 101\n"

    def test_build_refuses_plane_over_order_guard(self, capsys, monkeypatch):
        from revfree import plane

        def no_tables(spec):
            raise AssertionError("field tables built for a refused plane")

        # one guard for fields and planes: 11^2 and 2^7 stop before any table
        monkeypatch.setattr(plane, "GF", no_tables)
        for q in (121, 128, 1021):
            code, out, err = run_cli(capsys, "plane", "build", "--q", str(q))
            assert code == 2
            assert out == ""
            assert err == f"error: field order {q} is over the limit 101\n"

    @pytest.mark.parametrize("q", [32, 64])
    def test_build_and_verify_planes_of_order_32_and_64(self, capsys, tmp_path, q):
        out_path = tmp_path / "plane.json"
        code, out, err = run_cli(capsys, "plane", "build", "--q", str(q), "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        code, out, _ = run_cli(capsys, "plane", "verify", "--in", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert [c["axiom"] for c in report["checks"] if c["ok"]] == [f"P{i}" for i in range(6)]
        assert json.loads(out_path.read_text())["order"] == q

    @pytest.mark.parametrize("command", [["plane", "build"], ["construct", "plane-code"]])
    @pytest.mark.parametrize("q", [2305843009213693951, 1030])
    def test_order_over_field_guard_is_never_factored(self, capsys, monkeypatch, command, q):
        from revfree import cli

        def no_factoring(order):
            raise AssertionError(f"factored {order}, over the field guard")

        # 2^61 - 1 is prime: trial division would run for hours
        monkeypatch.setattr(cli, "factor_prime_power", no_factoring)
        code, out, err = run_cli(capsys, *command, "--q", str(q))
        assert code == 2
        assert out == ""
        assert err == f"error: field order {q} is over the limit 101\n"

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2,', encoding="utf-8")
        code, _, err = run_cli(capsys, "plane", "verify", "--in", str(bad))
        assert code == 2
        assert "line" in err and "column" in err


class TestConstructCommands:
    def test_plane_code_pipeline(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        code, _, _ = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--out", str(code_path)
        )
        assert code == 0
        doc = json.loads(code_path.read_text())
        assert doc["n"] == doc["k"] == 7
        assert len(doc["words"]) == 24
        # written artifacts re-serialize bit-identically after canonicalization
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == code_path.read_text()
        code, out, _ = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_plane_code_limit(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "plane-code", "--q", "2", "--limit", "5")
        assert code == 0
        assert len(json.loads(out)["words"]) == 5

    def test_plane_code_sample_determinism(self, capsys):
        _, out1, _ = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--sample", "6", "--seed", "3"
        )
        _, out2, _ = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--sample", "6", "--seed", "3"
        )
        assert out1 == out2
        assert len(json.loads(out1)["words"]) == 6

    def test_plane_code_sample_defaults_to_seed_zero(self, capsys):
        _, unseeded, _ = run_cli(capsys, "construct", "plane-code", "--q", "2", "--sample", "6")
        _, seeded, _ = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--sample", "6", "--seed", "0"
        )
        assert unseeded == seeded

    @pytest.mark.parametrize("extra", [(), ("--limit", "5")], ids=["enumerate", "limit"])
    def test_plane_code_refuses_seed_without_sample(self, capsys, extra):
        code, out, err = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--seed", "3", *extra
        )
        assert (code, out) == (2, "")
        assert err == "error: --seed applies only with --sample\n"

    def test_plane_code_sample_over_the_side_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(construct, "SAMPLE_MAX_SIDE", 6)
        code, out, err = run_cli(capsys, "construct", "plane-code", "--q", "2", "--sample", "1")
        assert (code, out) == (2, "")
        assert err == "error: side 7 exceeds sampling limit 6\n"

    def test_sample_shortfall_warns_but_succeeds(self, capsys):
        code, out, err = run_cli(
            capsys, "construct", "plane-code", "--q", "2", "--sample", "25"
        )
        assert code == 0
        assert len(json.loads(out)["words"]) == 24
        assert "warning" in err

    def test_pad(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 3, [[2, 3, 1], [3, 1, 2]])
        code, out, _ = run_cli(
            capsys, "construct", "pad", "--in", str(code_path), "--n", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["words"] == [[2, 3, 1, 4, 5], [3, 1, 2, 4, 5]]

    def test_lift(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 2, 2, [[1, 2]])
        code, out, _ = run_cli(
            capsys, "construct", "lift", "--in", str(code_path), "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["words"] == [[1, 2], [1, 4], [3, 2], [3, 4]]

    def test_lift_limit(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 2, 2, [[1, 2]])
        code, out, _ = run_cli(
            capsys, "construct", "lift", "--in", str(code_path), "--n", "4", "--limit", "2"
        )
        assert json.loads(out)["words"] == [[1, 2], [1, 4]]

    def test_pad_precondition_error(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2]])
        code, _, err = run_cli(
            capsys, "construct", "pad", "--in", str(code_path), "--n", "5"
        )
        assert code == 2
        assert "permutation" in err

    def test_limit_zero_and_negative(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 2, 2, [[1, 2]])
        commands = (
            ("construct", "plane-code", "--q", "2"),
            ("construct", "lift", "--in", str(code_path), "--n", "4"),
        )
        for argv in commands:
            code, out, _ = run_cli(capsys, *argv, "--limit", "0")
            assert code == 0
            assert json.loads(out)["words"] == []
            code, _, err = run_cli(capsys, *argv, "--limit", "-1")
            assert code == 2
            assert "limit" in err


class TestVerifyCommands:
    def test_reverse_free_failure_prints_witness(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 3, [[1, 2, 3], [2, 1, 3]])
        code, out, _ = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["witness"]["positions"] == [1, 2]
        assert doc["witness"]["word_indices"] == [0, 1]

    @pytest.mark.parametrize("method", ["pairwise", "signature", "both"])
    def test_reverse_free_methods(self, capsys, tmp_path, method):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
        code, out, _ = run_cli(
            capsys, "verify", "reverse-free", "--in", str(code_path), "--method", method
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_disagreeing_verifiers_raise_invariant_error(
        self, capsys, tmp_path, monkeypatch
    ):
        real = revfree.cli.verify_reverse_free

        def signature_disagrees(code, method="pairwise"):
            if method == "signature":
                return False, (0, 1, 0, 1)
            return real(code, method=method)

        monkeypatch.setattr(revfree.cli, "verify_reverse_free", signature_disagrees)
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
        with pytest.raises(revfree.InvariantError, match="verification algorithms disagree"):
            main(["verify", "reverse-free", "--in", str(code_path), "--method", "both"])

    def test_default_both_reports_first_reverse_in_a_lift(
        self, capsys, tmp_path, lifted_fano_code
    ):
        # the lift is reverse-free, so every reverse involves the injected
        # word: a copy of word 40 with positions 2 and 5 swapped, at index 1500
        words = list(lifted_fano_code.words)
        injected = list(words[40])
        injected[2], injected[5] = injected[5], injected[2]
        p = 1500
        words.insert(p, tuple(injected))
        expected = min(
            (min(a, p), max(a, p), i, j)
            for a, w in enumerate(words)
            for i, j in combinations(range(len(w)), 2)
            if w[i] != w[j] and w[i] == injected[j] and w[j] == injected[i]
        )
        assert len(words) > 2 * lifted_fano_code.k
        code_path = tmp_path / "lift.json"
        write_code(code_path, 14, 7, [[c + 1 for c in w] for w in words])
        code, out, _ = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 1
        witness = json.loads(out)["witness"]
        a, b, i, j = expected
        assert witness["word_indices"] == [a, b]
        assert witness["positions"] == [i + 1, j + 1]

    def test_full_of_flips(self, capsys, tmp_path):
        flips = tmp_path / "flips.json"
        write_code(flips, 2, 2, [[1, 2], [2, 1]])
        assert run_cli(capsys, "verify", "full-of-flips", "--in", str(flips))[0] == 0
        not_flips = tmp_path / "nf.json"
        write_code(not_flips, 3, 3, [[1, 2, 3], [2, 3, 1]])
        code, out, _ = run_cli(capsys, "verify", "full-of-flips", "--in", str(not_flips))
        assert code == 1
        assert json.loads(out)["witness"]["word_indices"] == [0, 1]


@pytest.mark.parametrize("argv", [("verify", "reverse-free", "--method", "both"),
                                  ("shrink", "run", "--threshold", "0")], ids=["verify", "shrink"])
def test_each_command_transposes_its_code_once(capsys, tmp_path, monkeypatch,
                                               lifted_fano_code, argv):
    # both verifiers, or the signature precondition and the shrink state, read
    # the one ``Code.columns``
    built = []
    columns = revfree.Code.__dict__["columns"]
    transpose = columns.func
    monkeypatch.setattr(columns, "func", lambda code: built.append(len(code)) or transpose(code))
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(revfree.code_to_json_dict(lifted_fano_code)), encoding="utf-8")
    assert run_cli(capsys, *argv, "--in", str(path))[0] == 0
    assert built == [len(lifted_fano_code)]


class TestMatrixCommands:
    def test_count_s(self, capsys, tmp_path, fano_incidence):
        path = tmp_path / "m.json"
        write_json(path, fano_incidence.to_json_dict())
        code, out, _ = run_cli(capsys, "matrix", "count-s", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["exact_count"] == 0
        assert doc["row_pair_count"] == 21

    def test_permanent(self, capsys, tmp_path, fano_incidence):
        path = tmp_path / "m.json"
        write_json(path, fano_incidence.to_json_dict())
        code, out, _ = run_cli(capsys, "matrix", "permanent", "--in", str(path))
        assert code == 0
        assert json.loads(out)["permanent"] == 24

    def test_permanent_rejects_rectangular(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        write_json(path, {"rows": 2, "cols": 3, "ones": [[1, 1], [2, 2]]})
        code, _, err = run_cli(capsys, "matrix", "permanent", "--in", str(path))
        assert code == 2
        assert "square" in err

    @pytest.mark.parametrize("command, exit_code", [("count-s", 0), ("permanent", 2)])
    def test_huge_column_count(self, tmp_path, command, exit_code):
        # the row masks are checked by bit length, never against 2^cols
        path = tmp_path / "wide.json"
        write_json(path, {"rows": 1, "cols": 10**12, "ones": [[1, 1]]})
        result, _ = run_capped_cli("matrix", command, "--in", str(path))
        assert result.returncode == exit_code, result.stderr
        if exit_code:
            assert result.stderr == ("error: permanent requires a square matrix, "
                                     "got 1x1000000000000\n")
        else:
            assert json.loads(result.stdout)["exact_count"] == 0

    @pytest.mark.parametrize("command", ["count-s", "permanent"])
    def test_far_column_is_refused_before_its_mask(self, tmp_path, command):
        # one entry at column 10^12 needs a 125 GB row mask
        path = tmp_path / "far.json"
        write_json(path, {"rows": 1, "cols": 10**12, "ones": [[1, 10**12]]})
        result, elapsed = run_capped_cli("matrix", command, "--in", str(path))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == ("error: row masks of a 1x1000000000000 matrix take "
                                 "125000000000 bytes, over the limit of 600000000 bytes\n")
        assert elapsed < 2.0

    def test_column_masks_are_as_wide_as_their_highest_row(self, tmp_path):
        # 2000 columns, each 1 only in row 1 of 8,000,000: one byte of mask
        # each, where masks as wide as the matrix is tall would take 2 GB
        path = tmp_path / "tall.json"
        write_json(path, {"rows": 8_000_000, "cols": 2000,
                          "ones": [[1, c] for c in range(1, 2001)]})
        result, _ = run_capped_cli("matrix", "count-s", "--in", str(path))
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert (doc["exact_count"], doc["row_pair_count"]) == (0, 1999000)

    def test_column_masks_are_refused_over_the_mask_limit(self, tmp_path):
        # 2000 columns, each 1 only in the last of 8,000,000 rows: 1 MB of
        # mask each, 2 GB in all
        path = tmp_path / "tall.json"
        write_json(path, {"rows": 8_000_000, "cols": 2000,
                          "ones": [[8_000_000, c] for c in range(1, 2001)]})
        result, _ = run_capped_cli("matrix", "count-s", "--in", str(path))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == ("error: column masks of a 8000000x2000 matrix take "
                                 "2000000000 bytes, over the limit of 600000000 bytes\n")

    @pytest.mark.parametrize("command", ["count-s", "permanent"])
    def test_huge_row_count(self, tmp_path, command):
        # refused before a row mask is allocated
        path = tmp_path / "tall.json"
        write_json(path, {"rows": 10**12, "cols": 1, "ones": [[1, 1]]})
        result, elapsed = run_capped_cli("matrix", command, "--in", str(path))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert result.stderr == ("error: matrix of 1000000000000 rows is over the "
                                 "limit of 8000000 rows\n")
        assert elapsed < 2.0


class TestExactCommand:
    def test_f33(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--n", "3", "--k", "3", "--mode", "F")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 3
        assert len(doc["witness"]) == 3

    def test_all_modes(self, capsys):
        expected = {"F": 1, "Fbar": 3, "G": 2, "Gbar": 2}
        for mode, value in expected.items():
            code, out, _ = run_cli(
                capsys, "exact", "--n", "2", "--k", "2", "--mode", mode
            )
            assert code == 0
            assert json.loads(out)["value"] == value, mode

    def test_empty_alphabet(self, capsys):
        assert run_cli(capsys, "exact", "--n", "0", "--k", "3", "--mode", "F") == (
            2, "", "error: need n >= 1 and k >= 1\n")

    def test_capacity_guard(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--n", "10", "--k", "5", "--mode", "Fbar")
        assert code == 2
        assert "100000" in err

    @pytest.mark.parametrize(
        "n, k, mode, value",
        [
            (10, 3_000_000, "Gbar", None),
            (2, 1_000_000_000, "Fbar", None),
            (3_000_000, 3_000_000, "F", None),
            (2, 100_000, "F", 0),
            (1, 100_000, "Fbar", 1),
        ],
        ids=["huge-k-refused", "huger-k-refused", "huge-n-refused", "no-word", "one-word"],
    )
    def test_huge_sizes_finish_quickly(self, n, k, mode, value):
        # a fresh interpreter, so the timeout stops a size count or a pair
        # loop that runs on; both measured well under 1 s
        result = subprocess.run(
            [sys.executable, "-m", "revfree", "exact", "--n", str(n), "--k", str(k),
             "--mode", mode],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if value is None:
            assert result.returncode == 2
            assert result.stdout == ""
            assert re.fullmatch(r"error: conflict graph would have at least \d+ "
                                r"vertices, over the 10000 limit\n", result.stderr)
        else:
            assert result.returncode == 0, result.stderr
            doc = json.loads(result.stdout)
            assert doc["value"] == value
            assert doc["witness"] == [[1] * k] * value

    @pytest.mark.parametrize("n, k, value", [(100, 2, 2), (10_000, 1, 1)])
    def test_gbar_at_the_vertex_limit(self, n, k, value):
        # 10000 vertices: each search's ordered adjacency is rebuilt from the
        # reordered words, where a bit permutation of every mask took 2-3 s
        result, elapsed = run_capped_cli("exact", "--n", str(n), "--k", str(k), "--mode", "Gbar")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["value"] == value
        assert elapsed < 1.5

    def test_f63_within_its_budget(self):
        # each omega sub-search branches once per orbit of its representative
        # word's stabiliser: about 0.7 s fresh, where every image of a clique
        # under the stabiliser took 2.4 s
        from test_exact import F63_REFERENCE_WITNESS

        result, elapsed = run_capped_cli("exact", "--n", "6", "--k", "3", "--mode", "F")
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["value"] == 28
        assert doc["witness"] == [[c + 1 for c in w] for w in F63_REFERENCE_WITNESS]
        assert elapsed < 1.6


class TestShrinkCommand:
    def test_trace_to_file(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2], [2, 3], [3, 1]])
        trace_path = tmp_path / "trace.json"
        code, out, _ = run_cli(
            capsys,
            "shrink",
            "run",
            "--in",
            str(code_path),
            "--threshold",
            "0",
            "--trace",
            str(trace_path),
        )
        assert code == 0
        summary = json.loads(out)
        trace = json.loads(trace_path.read_text())
        assert summary["steps"] == len(trace["steps"]) == 2
        assert trace["heavy_count"] == 1

    def test_trace_to_stdout(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2], [1, 3]])
        code, out, _ = run_cli(capsys, "shrink", "run", "--in", str(code_path))
        assert code == 0
        assert json.loads(out)["steps"] == []

    def test_rejects_non_reverse_free(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 3, [[1, 2, 3], [2, 1, 3]])
        code, _, err = run_cli(capsys, "shrink", "run", "--in", str(code_path))
        assert code == 2
        assert "reverse" in err

    def test_empty_code_has_no_trivial_bound(self, capsys, tmp_path):
        # density 0 at threshold 0: no log of 0 is taken
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [])
        code, out, _ = run_cli(capsys, "shrink", "run", "--in", str(code_path),
                               "--threshold", "0")
        assert code == 0
        doc = json.loads(out)
        assert (doc["final_size"], doc["final_density"]) == (0, 0.0)
        assert doc["log2_size_bound_trivial"] is None

    @pytest.mark.parametrize("threshold", ["inf", "nan"])
    def test_rejects_non_finite_threshold(self, capsys, tmp_path, threshold):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2], [2, 3], [3, 1]])
        code, out, err = run_cli(
            capsys, "shrink", "run", "--in", str(code_path), "--threshold", threshold
        )
        assert code == 2
        assert out == ""
        assert "finite" in err


class TestBoundsCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "table", "--n", "7", "--k", "7", "--size", "24"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exponent_achieved"] == pytest.approx(1.633, abs=1e-3)

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bounds",
            "table",
            "--n",
            "14",
            "--k",
            "7",
            "--size",
            "3072",
            "--fkk",
            "24",
            "--csv",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "n"
        fields = row.split(",")
        assert fields[:3] == ["14", "7", "3072"]
        assert len(fields) == 8

    def test_alphabet_of_one(self, capsys):
        # log_n is undefined at n = 1: the exponents are set directly
        code, out, _ = run_cli(capsys, "bounds", "table", "--n", "1", "--k", "1", "--size", "1")
        assert code == 0
        doc = json.loads(out)
        assert (doc["exponent_achieved"], doc["reference_exponent"]) == (0.0, 1.0)

    def test_rejects_fkk_below_one(self, capsys):
        assert run_cli(capsys, "bounds", "table", "--n", "7", "--k", "7", "--size", "24",
                       "--fkk", "0") == (2, "", "error: f_kk must be at least 1\n")


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys, "plane")[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "exact", "--n", "3", "--frobnicate")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "reverse-free", "--in", "/no/such.json")
        assert code == 2

    def test_non_integer_letter(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2], [2, 1.9]])
        code, _, err = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 2
        assert "words[1][1]" in err

    def test_document_that_is_not_an_object(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_json(code_path, [1, 2])
        code, _, err = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 2
        assert "malformed code document: expected a JSON object, got list" in err

    def test_letter_outside_alphabet_in_wire_terms(self, capsys, tmp_path):
        code_path = tmp_path / "code.json"
        write_code(code_path, 3, 2, [[1, 2], [3, 4]])
        code, _, err = run_cli(capsys, "verify", "reverse-free", "--in", str(code_path))
        assert code == 2
        assert "words[1][1] = 4 is not a letter in 1..3" in err


ADDRESS_SPACE_CAP = 1_500_000_000


def run_capped_cli(*argv, cap=ADDRESS_SPACE_CAP):
    """The CLI in a fresh interpreter whose own address space is capped at
    ``cap`` bytes, so a list of [n] or of a huge code fails fast instead of
    filling memory; returns the process and its wall time."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "revfree", *argv], capture_output=True,
                            text=True, timeout=60, preexec_fn=limit)
    return result, time.perf_counter() - start


@pytest.fixture
def fano24(capsys, tmp_path):
    path = tmp_path / "fano24.json"
    assert run_cli(capsys, "construct", "plane-code", "--q", "2", "--out", str(path))[0] == 0
    return str(path)


class TestLettersGuard:
    def test_limited_lift_of_a_huge_alphabet(self, fano24):
        # the first 5 words use the first 5 members of each residue class,
        # all of which lie below 35
        huge, _ = run_capped_cli("construct", "lift", "--in", fano24,
                                 "--n", "100000000", "--limit", "5")
        small, _ = run_capped_cli("construct", "lift", "--in", fano24, "--n", "35", "--limit", "5")
        assert huge.returncode == small.returncode == 0, huge.stderr
        huge_doc, small_doc = json.loads(huge.stdout), json.loads(small.stdout)
        assert (huge_doc["n"], small_doc["n"]) == (100_000_000, 35)
        assert huge_doc["words"] == small_doc["words"]
        assert len(huge_doc["words"]) == 5

    def test_enumeration_refused_at_the_word_over_the_limit(self, capsys, monkeypatch):
        # the 24 Fano matchings hold 168 letters; 14 words of 7 fit under 100
        _, fitting, _ = run_cli(capsys, "construct", "plane-code", "--q", "2", "--limit", "14")
        monkeypatch.setattr(revfree.words, "MAX_CODE_LETTERS", 100)
        assert run_cli(capsys, "construct", "plane-code", "--q", "2", "--limit", "14") == (
            0, fitting, "")
        assert run_cli(capsys, "construct", "plane-code", "--q", "2") == (
            2, "", "error: code of 15 x 7 letters is over the limit of 100 letters\n")

    @pytest.mark.parametrize(
        "argv, letters",
        [
            (["exact", "--n", "1", "--k", "100000000", "--mode", "Fbar"], "1 x 100000000"),
            (["construct", "pad", "--in", "{fano24}", "--n", "100000000"], "24 x 100000000"),
            (["construct", "lift", "--in", "{fano24}", "--n", "100000000"], r"\d+ x 7"),
        ],
        ids=["exact", "pad", "lift"],
    )
    def test_refused_before_allocating(self, fano24, argv, letters):
        result, elapsed = run_capped_cli(*(a.format(fano24=fano24) for a in argv))
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert re.fullmatch(rf"error: code of {letters} letters is over the limit of "
                            rf"\d+ letters\n", result.stderr)
        assert elapsed < 1.0


REVERSE_FREE = ["verify", "reverse-free", "--method"]


class TestHugeAlphabet:
    """Verify and shrink cost by the code's own letters, not by n = 10^8,
    so each command fits in 400 MB and finishes within 2 s."""

    @pytest.fixture
    def lift5(self, capsys, tmp_path, fano24):
        path = tmp_path / "lift5.json"
        assert run_cli(capsys, "construct", "lift", "--in", fano24, "--n", "100000000",
                       "--limit", "5", "--out", str(path))[0] == 0
        return str(path)

    @pytest.fixture
    def two_words(self, tmp_path):
        path = tmp_path / "two.json"
        write_code(path, 100_000_000, 2, [[1, 100_000_000], [100_000_000, 1]])
        return str(path)

    def run_all(self, path, expected):
        for argv, (exit_code, check) in expected.items():
            result, elapsed = run_capped_cli(*argv, "--in", path, cap=400_000_000)
            assert "Traceback" not in result.stderr, (argv, result.stderr)
            assert result.returncode == exit_code, argv
            check(result)
            assert elapsed < 2.0, argv

    def test_lifted_code(self, lift5):
        def reverse_free(result):
            assert json.loads(result.stdout)["ok"] is True

        def first_pair_plain(result):
            assert json.loads(result.stdout)["witness"]["word_indices"] == [0, 1]

        def untouched(result):
            assert json.loads(result.stdout)["final_size"] == 5

        self.run_all(lift5, {
            (*REVERSE_FREE, "pairwise"): (0, reverse_free),
            (*REVERSE_FREE, "signature"): (0, reverse_free),
            (*REVERSE_FREE, "both"): (0, reverse_free),
            ("verify", "full-of-flips"): (1, first_pair_plain),
            ("shrink", "run", "--threshold", "0"): (0, untouched),
        })

    @pytest.fixture(scope="module")
    def lift150k(self, tmp_path_factory, fano_code24):
        # the first 150000 lifted words hold 150000 letters at their last
        # position: 2.8 GB of word masks; built once for the tests reading it
        folder = tmp_path_factory.mktemp("lift150k")
        source, path = folder / "fano24.json", folder / "lift150k.json"
        source.write_text(json.dumps(revfree.code_to_json_dict(fano_code24)), encoding="utf-8")
        assert main(["construct", "lift", "--in", str(source), "--n", "100000000",
                     "--limit", "150000", "--out", str(path)]) == 0
        return str(path)

    def test_word_masks_over_the_limit(self, lift150k):
        # refused before any mask is built
        result, _ = run_capped_cli("shrink", "run", "--in", lift150k)
        assert result.returncode == 2, result.stderr
        assert result.stdout == ""
        assert re.fullmatch(r"error: word masks of 150000 words take \d+ bytes, "
                            r"over the limit of \d+ bytes\n", result.stderr)

    def test_full_of_flips_past_the_mask_limit(self, lift150k):
        # the pair loop builds no word masks and stops at the first pair
        result, elapsed = run_capped_cli("verify", "full-of-flips", "--in", lift150k)
        assert result.returncode == 1, result.stderr
        assert json.loads(result.stdout)["witness"]["word_indices"] == [0, 1]
        assert elapsed < 5.0

    def test_empty_code_of_a_huge_length(self, tmp_path):
        path = tmp_path / "empty.json"
        write_code(path, 1, 100_000_000, [], repetition_free=False)

        def untouched(result):
            doc = json.loads(result.stdout)
            assert (doc["final_size"], doc["steps"]) == (0, [])

        self.run_all(str(path), {("shrink", "run"): (0, untouched)})

    def test_two_reversed_words(self, two_words):
        def reversed_at_1_2(result):
            witness = json.loads(result.stdout)["witness"]
            assert (witness["word_indices"], witness["positions"]) == ([0, 1], [1, 2])

        def full_of_flips(result):
            assert json.loads(result.stdout)["ok"] is True

        def refused(result):
            assert "input code is not reverse-free" in result.stderr

        self.run_all(two_words, {
            (*REVERSE_FREE, "pairwise"): (1, reversed_at_1_2),
            (*REVERSE_FREE, "signature"): (1, reversed_at_1_2),
            (*REVERSE_FREE, "both"): (1, reversed_at_1_2),
            ("verify", "full-of-flips"): (0, full_of_flips),
            ("shrink", "run", "--threshold", "0"): (2, refused),
        })


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "revfree", "plane", "build", "--q", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["order"] == 2


def test_cli_import_leaves_numpy_out():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, revfree.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "False"


def test_every_export_resolves_once():
    names = revfree.__all__
    assert sorted(set(names)) == sorted(names), "a name is exported twice"
    assert [name for name in names if not hasattr(revfree, name)] == []


@pytest.mark.parametrize(
    "argv",
    [["--q", "31", "--limit", "1"], ["--q", "37", "--sample", "1"]],
    ids=["enumerate-side-993", "sample-side-1407"],
)
def test_plane_code_deeper_than_default_recursion_limit(argv):
    # a fresh interpreter keeps the default recursion limit of 1000, which a
    # recursive search over a side-993 or side-1407 matrix would exceed
    result = subprocess.run(
        [sys.executable, "-m", "revfree", "construct", "plane-code", *argv],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert len(doc["words"]) == 1
    assert sorted(doc["words"][0]) == list(range(1, doc["n"] + 1))


# -- the emitter against its oracle -----------------------------------------------


def oracle_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


int_rows = st.lists(st.lists(st.integers(-(10**20), 10**20), max_size=4), max_size=4)
odd_rows = st.lists(st.lists(st.integers() | st.booleans() | st.floats(), max_size=4),
                    max_size=4)
leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text() | int_rows \
    | odd_rows
payloads = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(payloads)
def test_emitter_matches_json_dumps(payload):
    assert cli._dumps(payload) == oracle_text(payload)


def test_emitter_on_documents(fano_plane, fano_code24, lifted_fano_code):
    empty = revfree.Code(n=3, k=2, repetition_free=True, words=())
    k1 = revfree.Code(n=5, k=1, repetition_free=True, words=[(c,) for c in range(5)])
    trace = revfree.run_shrink(lifted_fano_code, 0)
    for payload in (revfree.code_to_json_dict(empty), revfree.code_to_json_dict(k1),
                    revfree.code_to_json_dict(fano_code24), revfree.plane_to_json_dict(fano_plane),
                    trace.to_json_dict(), {"outer": {"words": [[1, 2], [3, -4]], "rows": []}},
                    {"rows": [[], [1, 2]], "flags": [[1, True]], "mixed": [[1], [2.5]]}):
        assert cli._dumps(payload) == oracle_text(payload)


@pytest.fixture(scope="module")
def emit_inputs(tmp_path_factory, fano_code24, fano_incidence, fano_plane):
    root = tmp_path_factory.mktemp("emit")
    write_json(root / "fano24.json", revfree.code_to_json_dict(fano_code24))
    write_json(root / "plane2.json", revfree.plane_to_json_dict(fano_plane))
    write_json(root / "fano_matrix.json", fano_incidence.to_json_dict())
    write_code(root / "swap.json", 3, 3, [[1, 2, 3], [2, 1, 3]])
    return root


# every call site of cli._emit, to --out where the command has it
EMIT_SITES = {
    "plane-build": ["plane", "build", "--q", "3", "--out", "{out}"],
    "plane-verify": ["plane", "verify", "--in", "{plane2.json}"],
    "plane-code": ["construct", "plane-code", "--q", "2", "--out", "{out}"],
    "pad": ["construct", "pad", "--in", "{fano24.json}", "--n", "10", "--out", "{out}"],
    "lift": ["construct", "lift", "--in", "{fano24.json}", "--n", "14", "--out", "{out}"],
    "verify-reverse-free": ["verify", "reverse-free", "--in", "{fano24.json}"],
    "verify-reverse-free-witness": ["verify", "reverse-free", "--in", "{swap.json}"],
    "verify-full-of-flips": ["verify", "full-of-flips", "--in", "{fano24.json}"],
    "count-s": ["matrix", "count-s", "--in", "{fano_matrix.json}"],
    "permanent": ["matrix", "permanent", "--in", "{fano_matrix.json}"],
    "exact": ["exact", "--n", "3", "--k", "3", "--mode", "F"],
    "shrink": ["shrink", "run", "--in", "{fano24.json}", "--threshold", "0"],
    "shrink-trace": ["shrink", "run", "--in", "{fano24.json}", "--threshold", "0",
                     "--trace", "{out}"],
    "bounds-table": ["bounds", "table", "--n", "14", "--k", "7", "--size", "3072",
                     "--fkk", "24"],
}


@pytest.mark.parametrize("argv", EMIT_SITES.values(), ids=EMIT_SITES.keys())
def test_every_emit_site_writes_the_oracle_bytes(capsys, monkeypatch, tmp_path, emit_inputs,
                                                 argv):
    emitted = []
    emit = cli._emit

    def recording_emit(payload, out):
        emitted.append((payload, out))
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    out_path = tmp_path / "out.json"
    argv = [str(out_path) if a == "{out}" else str(emit_inputs / a[1:-1]) if a[0] == "{"
            else a for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 1) and emitted
    assert out == "".join(oracle_text(p) + "\n" for p, path in emitted if not path)
    for payload, path in emitted:
        if path:
            assert out_path.read_text(encoding="utf-8") == oracle_text(payload) + "\n"
