import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opial import cli
from opial import functionals as fn
from opial.cli import main


def write_uniform_n(path, n):
    spec = {"atoms": [[float(i), 1.0 / n] for i in range(1, n + 1)], "pieces": []}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def write_uniform_interval(path, a=0.0, b=1.0):
    spec = {"atoms": [], "pieces": [{"lo": a, "hi": b, "mass": 1.0}]}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


class TestVerify:
    def test_thm1_constant_equality(self, tmp_path, capsys):
        dist = write_uniform_n(tmp_path / "uniformN10.json", 10)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm1-lower",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["functional"] == "thm1-lower"
        assert doc["equality"] is True
        assert doc["exact"] is True
        assert doc["terms"]["rhs"] == pytest.approx(0.5, abs=1e-14)

    def test_golden_report(self, tmp_path):
        dist = write_uniform_n(tmp_path / "two.json", 2)
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm1-lower",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        golden = "\n".join(
            [
                "{",
                '  "equality": true,',
                '  "exact": true,',
                '  "functional": "thm1-lower",',
                '  "m": 512,',
                '  "ratio": 1.0,',
                '  "slack": 0.0,',
                '  "terms": {',
                '    "lhs": 0.5,',
                '    "middle": 0.5,',
                '    "rhs": 0.5',
                "  },",
                '  "tol": 1e-10,',
                '  "version": "0.1.0"',
                "}",
                "",
            ]
        )
        assert out.read_text() == golden

    def test_report_bytes_deterministic(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 7)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                [
                    "verify",
                    "--dist",
                    str(dist),
                    "--psi",
                    '{"kind": "identity"}',
                    "--functional",
                    "thm3",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_corollary_requires_c(self, tmp_path, capsys):
        dist = write_uniform_n(tmp_path / "d.json", 4)
        code = main(
            ["verify", "--dist", str(dist), "--psi", "constant", "--functional", "corollary"]
        )
        assert code == 1
        assert "--c" in capsys.readouterr().err

    def test_discrete_identity_via_values(self, tmp_path):
        out = tmp_path / "o92.json"
        code = main(
            [
                "verify",
                "--psi",
                '{"kind": "values", "values": [1, 2, 3]}',
                "--functional",
                "o9-2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["terms"]["lhs"] == pytest.approx(25.0)
        assert doc["terms"]["rhs"] == pytest.approx(28.0)

    def test_troy(self, tmp_path):
        out = tmp_path / "troy.json"
        code = main(
            [
                "verify",
                "--functional",
                "troy",
                "--psi",
                "identity",
                "--p-exp",
                "1.0",
                "--m",
                "512",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["our_lhs"] == pytest.approx(0.1, abs=2e-3)
        assert doc["troy_rhs"] == pytest.approx(0.11785, abs=2e-3)

    def test_wirtinger_needs_projection_flag(self, tmp_path, capsys):
        dist = write_uniform_interval(tmp_path / "u.json")
        args = [
            "verify",
            "--dist",
            str(dist),
            "--psi",
            "identity",
            "--functional",
            "wirtinger",
            "--m",
            "64",
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "zero-mean" in err and "(--project)" in err
        assert main(args + ["--project"]) == 0

    def test_unknown_functional(self, capsys):
        code = main(["verify", "--psi", "constant", "--functional", "thm9"])
        assert code == 1
        assert "unknown functional" in capsys.readouterr().err

    def test_heuristic_violation_exits_two(self, tmp_path):
        # the Wirtinger bound can fail on genuinely atomic inputs
        dist = write_uniform_n(tmp_path / "two.json", 2)
        code = main(
            [
                "verify",
                "--dist",
                str(dist),
                "--psi",
                '{"kind": "values", "values": [1, -1]}',
                "--functional",
                "wirtinger",
            ]
        )
        assert code == 2


#: A small atomic law and psi values for the golden reports.
GOLDEN_LAW = {"atoms": [[0.0, 0.125], [1.0, 0.25], [2.5, 0.375], [4.0, 0.25]], "pieces": []}
GOLDEN_PSI = '{"kind": "values", "values": [0.5, -1.25, 2.0, 0.75]}'
GOLDEN_CHI = '{"kind": "values", "values": [1.0, 0.5, 2.0, 1.5]}'
GOLDEN_DIR = Path(__file__).parent / "golden"

#: --dist and --psi for the golden law; "{dist}" stands for the law's file.
ON_LAW = ["--dist", "{dist}", "--psi", GOLDEN_PSI]

#: name -> (argv before --out, exit code).
GOLDEN_CASES = {
    "verify-thm2-n2.json": (["verify", "--functional", "thm2", "--n", "2", *ON_LAW], 0),
    "verify-thm3.json": (["verify", "--functional", "thm3", *ON_LAW], 0),
    "verify-weighted-upper.json": (
        ["verify", "--functional", "weighted-upper", "--chi", GOLDEN_CHI, *ON_LAW],
        0,
    ),
    "verify-corollary.json": (["verify", "--functional", "corollary", "--c", "1.5", *ON_LAW], 0),
    "oracle-diff-thm2.json": (["oracle-diff", "--functional", "thm2", "--n", "2", *ON_LAW], 0),
    "sharpness-thm1-lower.json": (["sharpness", "--functional", "thm1-lower", "--dist", "{dist}"], 0),
    "sharpness-wirtinger.json": (["sharpness", "--functional", "wirtinger", "--m", "16"], 0),
    "converge-thm2.csv": (
        ["converge", "--functional", "thm2", "--n", "1", "--grids", "16,64,256", "--format", "csv"],
        0,
    ),
    "search-wirtinger.json": (
        ["search", "--functional", "wirtinger", "--trials", "500", "--seed", "1", "--m", "4"],
        2,
    ),
    "search-o15.json": (
        ["search", "--functional", "o15", "--trials", "400", "--seed", "9", "--m", "10"],
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(tmp_path, name):
    """Report bytes of each command, pinned; refactors must keep them."""
    argv, code = GOLDEN_CASES[name]
    dist = tmp_path / "law.json"
    dist.write_text(json.dumps(GOLDEN_LAW), encoding="utf-8")
    argv = [arg.replace("{dist}", str(dist)) for arg in argv]
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_every_command_has_a_golden_report():
    assert {argv[0] for argv, _ in GOLDEN_CASES.values()} == set(cli._COMMANDS)


def reference_json_text(doc) -> str:
    """The report format that ``cli._json_text`` must reproduce byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


#: JSON documents: every scalar type, non-ASCII strings and keys, empty
#: containers, and lists that mix scalars with containers.
JSON_DOCS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=6) | st.dictionaries(st.text(), children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCS)
@example({"psi_star": [0.5, -1.25, 1e300, 5e-324], "trace": [[1, 0.25], [2, 0.5]], "ok": True})
@example({"é": {"ß": "ü\n\"", "a": None}, "x": [[], {}, [[]], 3, "s"]})
@example({2: {"b": [1]}, 1.5: [[]], -1: 0})  # number keys of a walked dict
@example({None: [{}]})
@example({"k": ({"t": (1, 2.0)}, ())})  # tuples are arrays
@example([True, False, None, 0, -7, 12345678901234567890])
def test_json_text_is_the_json_dumps_format(doc):
    assert cli._json_text(doc) == reference_json_text(doc)


class TestHostileInput:
    """Inputs that cannot give a verdict exit 1 and write no report."""

    def three_atoms(self, tmp_path):
        path = tmp_path / "three.json"
        spec = {"atoms": [[0, 0.25], [1, 0.25], [2, 0.5]], "pieces": []}
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def verify(self, tmp_path, psi, *extra):
        out = tmp_path / "report.json"
        argv = ["verify", "--dist", self.three_atoms(tmp_path), "--psi", psi]
        code = main(argv + ["--functional", "thm1-lower", "--out", str(out), *extra])
        return code, out

    def test_nan_in_psi_values(self, tmp_path, capsys):
        code, out = self.verify(tmp_path, '{"kind": "values", "values": [1.0, NaN, 2.0]}')
        assert code == 1 and not out.exists()
        assert "finite" in capsys.readouterr().err

    def test_overflowing_psi_values(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = self.verify(tmp_path, '{"kind": "values", "values": [1e200, -2e200, 3e200]}')
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("opial: error: thm1-lower: non-finite terms") and err.count("\n") == 1

    def test_overflowing_masses(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"atoms": [[0, 1e308], [1, 1e308]], "pieces": []}), encoding="utf-8")
        argv = ["verify", "--dist", str(path), "--psi", "constant", "--functional", "thm1-lower"]
        assert main(argv) == 1
        assert "opial: error:" in capsys.readouterr().err

    def test_nan_tolerance(self, tmp_path, capsys):
        code, out = self.verify(tmp_path, "constant", "--tol", "nan")
        assert code == 1 and not out.exists()
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "0", "-1e-9"])
    def test_other_bad_tolerances(self, tmp_path, tol):
        assert self.verify(tmp_path, "constant", f"--tol={tol}")[0] == 1

    def test_non_finite_family_parameters(self, tmp_path):
        for psi in ('{"kind": "constant", "level": Infinity}', '{"kind": "step", "threshold": 1, "low": NaN, "high": 0}'):
            assert self.verify(tmp_path, psi)[0] == 1

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_search_needs_positive_trials(self, tmp_path, capsys, trials):
        out = tmp_path / "search.json"
        argv = ["search", "--functional", "thm1-lower", "--trials", trials, "--out", str(out)]
        assert main(argv) == 1 and not out.exists()
        assert "trials must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dist, psi, extra, env",
        [
            (None, "constant", [], {"OPIAL_BUDGET": "abc"}),
            ({"atoms": [[0, None], [1, 0.5]]}, "constant", [], {}),
            ({"atoms": [[0, 10**400], [1, 0.5]]}, "constant", [], {}),
            ({"atoms": [], "pieces": [{"lo": None, "hi": 1, "mass": 1}]}, "constant", [], {}),
            (None, '{"kind": "values", "values": 5}', [], {}),
            (None, '{"kind": "values", "values": "123"}', [], {}),
            (None, '{"kind": "values", "values": {"1": 1, "2": 2, "3": 3}}', [], {}),
            (None, '{"kind": "values", "values": [null, 1, 2]}', [], {}),
            (None, '{"kind": "constant", "level": null}', [], {}),
            (None, '{"kind": "step", "threshold": 0, "low": null, "high": 1}', [], {}),
            (None, "constant", ["--out", "MISSING/r.json"], {}),
            (None, '{"kind": "values", "values": ["1", "2", "3"]}', [], {}),
            (None, '{"kind": "constant", "level": "2.5"}', [], {}),
            (None, '{"kind": "constant", "level": true}', [], {}),
            (None, '{"kind": "constant", "level": "2.5", "bogus": 1}', [], {}),
            (None, '{"kind": "step", "threshold": 0, "low": 1, "high": 2, "level": 7}', [], {}),
            ({"atoms": [[0, "0.5"], [1, 0.5]]}, "constant", [], {}),
            ({"atoms": [[0, 0.5], [1, 0.5]], "extra": 3}, "constant", [], {}),
            ({"atoms": [[0, "0.5"], [1, 0.5]], "extra": 3}, "constant", [], {}),
            ({"atoms": [], "pieces": [{"lo": 0, "hi": 1, "mass": 1, "width": 1}]}, "constant", [], {}),
        ],
        ids=[
            "budget-env",
            "null-atom-mass",
            "huge-int-atom-mass",
            "null-piece-lo",
            "values-not-a-list",
            "values-a-string",
            "values-an-object",
            "null-value",
            "null-level",
            "null-step-field",
            "out-dir-missing",
            "numeric-string-values",
            "numeric-string-level",
            "boolean-level",
            "numeric-string-level-and-unknown-field",
            "unknown-step-field",
            "numeric-string-atom-mass",
            "unknown-dist-field",
            "numeric-string-atom-mass-and-unknown-field",
            "unknown-piece-field",
        ],
    )
    def test_malformed_input(self, tmp_path, capsys, monkeypatch, dist, psi, extra, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if dist is None:
            path = self.three_atoms(tmp_path)
        else:
            path = tmp_path / "law.json"
            path.write_text(json.dumps(dist), encoding="utf-8")
        extra = [arg.replace("MISSING", str(tmp_path / "missing")) for arg in extra]
        argv = ["verify", "--dist", str(path), "--psi", psi, "--functional", "thm1-lower", *extra]
        assert main(argv) == 1
        assert "opial: error:" in capsys.readouterr().err

    def test_search_node_count_limit(self, capsys):
        argv = ["search", "--functional", "thm1-lower", "--m", "2000001", "--trials", "1"]
        assert main(argv) == 1
        assert "opial: error: m_max must be at most 2000000" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: {"terms": {"lhs": v, "rhs": 1.0}},
            lambda v: {"psi_star": [1.0, v, 2.0]},
            lambda v: {"trace": [[1, 0.5], [2, v]]},
            lambda v: {"top": v, "psi_star": [1.0]},
        ],
        ids=["leaf-dict", "leaf-list", "nested-list", "scalar"],
    )
    def test_json_reports_reject_nan(self, value, place):
        with pytest.raises(ValueError):
            cli._json_text(place(value))

    def test_non_finite_split_point(self, tmp_path, capsys):
        code, out = self.verify(tmp_path, "constant", "--functional", "corollary", "--c", "nan")
        assert code == 1 and not out.exists()
        assert "--c must be finite" in capsys.readouterr().err

    def test_non_finite_weight_exponent(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--functional", "troy", "--psi", "constant", "--p-exp", "inf"]
        assert main(argv + ["--out", str(out)]) == 1 and not out.exists()
        assert "--p-exp must be finite" in capsys.readouterr().err


class TestSpecLoading:
    def test_mass_off_tolerance_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [[1.0, 0.5], [2.0, 0.4]], "pieces": []}))
        code = main(
            ["verify", "--dist", str(bad), "--psi", "constant", "--functional", "thm1-lower"]
        )
        assert code == 1
        assert "total mass" in capsys.readouterr().err

    def test_mass_within_tolerance_accepted(self, tmp_path):
        ok = tmp_path / "ok.json"
        ok.write_text(
            json.dumps({"atoms": [[1.0, 0.5], [2.0, 0.499999999999]], "pieces": []})
        )
        code = main(
            ["verify", "--dist", str(ok), "--psi", "constant", "--functional", "thm1-lower"]
        )
        assert code == 0

    def test_overlapping_pieces_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "atoms": [],
                    "pieces": [
                        {"lo": 0.0, "hi": 1.0, "mass": 0.5},
                        {"lo": 0.5, "hi": 2.0, "mass": 0.5},
                    ],
                }
            )
        )
        code = main(
            ["verify", "--dist", str(bad), "--psi", "constant", "--functional", "thm1-lower"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "(0.0, 1.0)" in err and "(0.5, 2.0)" in err

    def test_values_length_mismatch_named(self, tmp_path, capsys):
        dist = write_uniform_n(tmp_path / "d.json", 3)
        code = main(
            [
                "verify",
                "--dist",
                str(dist),
                "--psi",
                '{"kind": "values", "values": [1, 2]}',
                "--functional",
                "thm1-lower",
            ]
        )
        assert code == 1
        assert "3 nodes" in capsys.readouterr().err

    def test_malformed_json_line_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"atoms": [[1.0, 1.0]\n')
        code = main(
            ["verify", "--dist", str(bad), "--psi", "constant", "--functional", "thm1-lower"]
        )
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_piece_field_pointer(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [], "pieces": [{"lo": 0.0, "hi": 1.0}]}))
        code = main(
            ["verify", "--dist", str(bad), "--psi", "constant", "--functional", "thm1-lower"]
        )
        assert code == 1
        assert "/pieces/0" in capsys.readouterr().err

    @staticmethod
    def mass_two(tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [[1.0, 1.0], [2.0, 1.0]], "pieces": []}))
        return str(bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--functional", "troy", "--psi", "constant", "--p-exp", "1"],
            ["--functional", "o9-1", "--psi", '{"kind": "values", "values": [1, -2, 3]}'],
        ],
        ids=["troy", "o9-1"],
    )
    def test_dist_not_loaded_where_unread(self, tmp_path, argv):
        plain, ignored = tmp_path / "plain.json", tmp_path / "ignored.json"
        assert main(["verify", *argv, "--out", str(plain)]) == 0
        assert main(["verify", *argv, "--dist", self.mass_two(tmp_path), "--out", str(ignored)]) == 0
        assert ignored.read_bytes() == plain.read_bytes()

    def test_oracle_diff_loads_dist(self, tmp_path, capsys):
        argv = ["oracle-diff", "--dist", self.mass_two(tmp_path), "--psi", "constant"]
        assert main(argv + ["--functional", "thm1-lower"]) == 1
        assert "total mass 2.0" in capsys.readouterr().err


class TestOracleDiff:
    def test_thm2_matches(self, tmp_path):
        dist = write_uniform_n(tmp_path / "rand8.json", 8)
        out = tmp_path / "diff.json"
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                '{"kind": "values", "values": [0.3, -1.2, 0.7, 2.0, -0.5, 0.1, 1.1, -0.9]}',
                "--functional",
                "thm2",
                "--n",
                "2",
                "--tol",
                "1e-12",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rel_err"] <= 1e-12
        assert set(doc["fast"]) == {"lhs", "rhs"}

    def test_psi_loaded_from_file(self, tmp_path):
        dist = write_uniform_n(tmp_path / "rand8.json", 8)
        psi_file = tmp_path / "values.json"
        psi_file.write_text(
            json.dumps({"kind": "values", "values": [1, -1, 2, 0.5, -2, 3, 0.1, -0.7]})
        )
        out = tmp_path / "diff.json"
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                str(psi_file),
                "--functional",
                "thm2",
                "--n",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["rel_err"] <= 1e-12

    def test_budget_exceeded_is_usage_error(self, tmp_path, capsys):
        dist = write_uniform_n(tmp_path / "d.json", 8)
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm2",
                "--n",
                "3",
                "--budget",
                "10",
            ]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err

    def test_discrete_identities_have_no_oracle(self, capsys):
        code = main(
            ["oracle-diff", "--psi", "constant", "--functional", "o9-2"]
        )
        assert code == 1
        assert "literal" in capsys.readouterr().err

    def test_csv_restricted_to_converge(self, tmp_path, capsys):
        dist = write_uniform_n(tmp_path / "d.json", 3)
        code = main(
            [
                "verify",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm1-lower",
                "--format",
                "csv",
            ]
        )
        assert code == 1
        assert "converge" in capsys.readouterr().err

    #: The flags each oracle-backed functional needs besides --dist and --psi.
    PARAMS = {
        "thm2": ["--n", "2"],
        "corollary": ["--c", "1.5"],
        "weighted-lower": ["--chi", GOLDEN_CHI],
        "weighted-upper": ["--chi", GOLDEN_CHI],
        "wirtinger": ["--project"],
    }

    @pytest.mark.parametrize(
        "psi",
        [
            GOLDEN_PSI,
            '{"kind": "constant", "level": 1.5}',
            "identity",
            "cos_pi_F",
            '{"kind": "step", "threshold": 1.5, "low": -1.0, "high": 2.0}',
        ],
    )
    @pytest.mark.parametrize("functional", [k for k, f in fn.FUNCTIONALS.items() if f.oracle_backed])
    def test_fast_terms_are_the_verify_terms(self, tmp_path, functional, psi):
        dist = tmp_path / "law.json"
        dist.write_text(json.dumps(GOLDEN_LAW), encoding="utf-8")
        flags = ["--functional", functional, "--dist", str(dist), "--psi", psi, *self.PARAMS.get(functional, [])]
        verified, diffed = tmp_path / "verify.json", tmp_path / "diff.json"
        assert main(["verify", *flags, "--out", str(verified)]) in (0, 2)
        assert main(["oracle-diff", *flags, "--out", str(diffed)]) == 0
        terms = json.loads(verified.read_text())["terms"]
        fast = json.loads(diffed.read_text())["fast"]
        assert fast and fast == {key: terms[key] for key in fast}

    def test_wirtinger_oracle_diff_with_projection(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 6)
        out = tmp_path / "diff.json"
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                "identity",
                "--functional",
                "wirtinger",
                "--project",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["rel_err"] <= 1e-12

    def test_corollary_on_continuous_rejected(self, tmp_path, capsys):
        dist = write_uniform_interval(tmp_path / "u.json")
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "corollary",
                "--c",
                "0.5",
            ]
        )
        assert code == 1
        assert "atomic" in capsys.readouterr().err

    def test_budget_env_override(self, tmp_path, monkeypatch, capsys):
        dist = write_uniform_n(tmp_path / "d.json", 8)
        monkeypatch.setenv("OPIAL_BUDGET", "10")
        code = main(
            [
                "oracle-diff",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm2",
                "--n",
                "3",
            ]
        )
        assert code == 1
        assert "budget" in capsys.readouterr().err


class TestConverge:
    def test_wirtinger_csv(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            [
                "converge",
                "--functional",
                "wirtinger",
                "--grids",
                "100,400,1600",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,value,error,fitted_order"
        errors = [float(line.split(",")[2]) for line in lines[1:]]
        assert errors[0] > errors[1] > errors[2]

    def test_thm2_json(self, tmp_path):
        out = tmp_path / "study.json"
        code = main(
            [
                "converge",
                "--functional",
                "thm2",
                "--n",
                "1",
                "--grids",
                "16,64,256",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.8 <= doc["fitted_order"] <= 1.2

    def test_grids_required(self, capsys):
        assert main(["converge", "--functional", "thm2", "--n", "1"]) == 1


class TestSharpnessCommand:
    def test_wirtinger(self, tmp_path):
        out = tmp_path / "sharp.json"
        code = main(
            ["sharpness", "--functional", "wirtinger", "--m", "200", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["c_m"] == pytest.approx(0.10132, abs=1e-3)

    def test_opial_ratio(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 6)
        out = tmp_path / "sharp.json"
        code = main(
            [
                "sharpness",
                "--functional",
                "thm1-lower",
                "--dist",
                str(dist),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ratio_star"] >= 1.0 - 1e-8
        ratios = [r for _, r in doc["trace"]]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_one_document_for_every_solved_functional(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 6)
        solved = [k for k, f in fn.FUNCTIONALS.items() if f.form is not None]
        keys = {}
        for functional in solved:
            out = tmp_path / f"{functional}.json"
            argv = ["sharpness", "--functional", functional, "--m", "16", "--out", str(out)]
            assert main(argv + ["--dist", str(dist)]) == 0
            doc = json.loads(out.read_text())
            assert doc["functional"] == functional
            assert doc["ratio_star"] == doc["c_m"] / fn.FUNCTIONALS[functional].form.bound
            keys[functional] = set(doc)
        assert len(solved) == 3
        assert all(k == keys["wirtinger"] for k in keys.values()), keys
        assert keys["wirtinger"] == {
            "c_m", "converged", "functional", "iterations", "psi_star", "ratio_star",
            "residual", "trace", "tol", "version",
        }

    def test_report_mode_follows_the_umask(self, tmp_path):
        out = tmp_path / "sharp.json"
        old = os.umask(0o022)
        try:
            assert main(["sharpness", "--functional", "wirtinger", "--m", "16", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["sharp.json"]


class TestSearchCommand:
    def test_sound_functional_exits_zero(self, tmp_path):
        out = tmp_path / "search.json"
        code = main(
            [
                "search",
                "--functional",
                "o15",
                "--trials",
                "400",
                "--seed",
                "9",
                "--m",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["violation"] is None

    def test_heuristic_violation_exits_two(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        code = main(
            [
                "search",
                "--functional",
                "wirtinger",
                "--trials",
                "500",
                "--seed",
                "1",
                "--m",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["violation"]["heuristic"] is True
        assert "heuristic-class" in capsys.readouterr().err

    def test_tol_sets_the_violation_threshold(self, tmp_path):
        # The atomic Wirtinger excess is below 1/8 - 1/pi^2 of E psi^2, far
        # inside a relative tolerance of 1.
        argv = ["search", "--functional", "wirtinger", "--trials", "500", "--seed", "1", "--m", "4"]
        assert main(argv) == 2
        out = tmp_path / "search.json"
        assert main(argv + ["--tol", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["violation"] is None and doc["tol"] == 1.0


class TestUsage:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (_, help_text) in cli._COMMANDS.items():
            assert f"  {name}" in out and help_text in out

    @pytest.mark.parametrize("command", ["verify", "oracle-diff", "sharpness", "converge", "search"])
    def test_command_help(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["verify", "oracle-diff", "sharpness", "converge", "search"])
    def test_functional_required(self, command, capsys):
        assert main([command, "--grids", "4,8"]) == 1
        assert capsys.readouterr().err == "opial: error: --functional is required\n"

    def test_flags_may_precede_the_command(self, capsys):
        assert main(["--functional", "thm1-lower", "search", "--trials", "-5"]) == 1
        assert capsys.readouterr().err == "opial: error: trials must be at least 1, got -5\n"

    def test_verify_ignores_trials(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 3)
        argv = ["verify", "--dist", str(dist), "--psi", "constant", "--functional", "thm1-lower"]
        assert main([*argv, "--trials", "0"]) == 0

    def test_missing_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--frobnicate"])
        assert exc.value.code == 1

    def test_console_entry_point(self, tmp_path):
        dist = write_uniform_n(tmp_path / "d.json", 5)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "opial.cli",
                "verify",
                "--dist",
                str(dist),
                "--psi",
                "constant",
                "--functional",
                "thm1-upper",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "equality=true" in proc.stdout
