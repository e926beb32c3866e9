import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opial import cli
from opial import functionals as fn
from opial import oracle
from opial import sharpness as sharp
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
                '  "m": 2,',
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

    @pytest.mark.parametrize("c, side", [(0.5, "<="), (3.0, ">")])
    def test_corollary_names_the_empty_side(self, tmp_path, capsys, c, side):
        dist = write_uniform_n(tmp_path / "d.json", 3)
        flags = ["--dist", str(dist), "--functional", "corollary", "--c", repr(c), "--psi", "constant"]
        assert main(["verify", *flags]) == 1
        assert capsys.readouterr().err == f"opial: error: conditioning on X {side} {c} leaves probability 0.0\n"

    @pytest.mark.parametrize("functional, extra", [("thm1-lower", []), ("corollary", ["--c", "2.0"])])
    def test_an_atomic_law_takes_any_resolution(self, tmp_path, capsys, functional, extra):
        # --m sets the run length of a piece; an atomic law has none, so a
        # resolution far past the node limit gives the --m 1 report.
        dist = write_uniform_n(tmp_path / "d.json", 3)
        flags = ["verify", "--dist", str(dist), "--functional", functional, "--psi", "identity", *extra]
        assert main([*flags, "--m", "1"]) == 0
        want = capsys.readouterr()
        assert main([*flags, "--m", "99999999999"]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("c", [0.3, 1.0, 1.25, 1.6])
    def test_corollary_reads_the_cdf_of_the_cut_law(self, tmp_path, c):
        # cos_pi_F on the corollary is cos(pi * Ftilde) of the whole law on
        # its cut model, one value vector aligned with that model's nodes.
        law = {"atoms": [[1.25, 0.2], [2.0, 0.3]], "pieces": [{"lo": 0.0, "hi": 1.0, "mass": 0.5}]}
        dist = tmp_path / "mix.json"
        dist.write_text(json.dumps(law), encoding="utf-8")
        model = fn.quantize(fn.Distribution.from_spec_dict(law), 32, cut=c)
        values = json.dumps({"kind": "values", "values": np.cos(math.pi * model.midpoint_cdf()).tolist()})
        reports = []
        for psi in ("cos_pi_F", values):
            out = tmp_path / "out.json"
            flags = ["--dist", str(dist), "--functional", "corollary", "--c", repr(c), "--m", "32"]
            assert main(["verify", *flags, "--psi", psi, "--out", str(out)]) in (0, 2)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["m"] == model.node_count

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

    @pytest.mark.parametrize("functional", ["o15", "o18"])
    def test_project_leaves_a_sequence_as_given(self, capsys, functional):
        # --project removes psi's mean under a law; a sequence id takes a zero-sum --psi.
        psi = '{"kind":"values","values":[1.0,2.0]}'
        assert main(["verify", "--functional", functional, "--psi", psi, "--project"]) == 1
        err = capsys.readouterr().err
        assert f"opial: error: {functional} requires sum(a) = 0; got 3.0" in err
        zero_sum = '{"kind":"values","values":[1.0,-1.0]}'
        assert main(["verify", "--functional", functional, "--psi", zero_sum]) == 0

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
    """The report format that ``cli._json_text`` must reproduce byte for byte:
    json.dumps of `doc` with each array written as its ``tolist()``."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)

#: JSON documents: every scalar type, non-ASCII strings and keys, empty
#: containers, lists that mix scalars with containers, and 1-D float64
#: arrays, constant (every entry one bit pattern) or not.
JSON_DOCS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | FINITE_FLOATS
    | st.text()
    | hnp.arrays(np.float64, st.integers(0, 6), elements=FINITE_FLOATS)
    | st.builds(np.full, st.integers(0, 6), FINITE_FLOATS),
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
@example({"psi_star": np.ones(5), "trace": []})  # constant
@example({"psi_star": np.array([0.5, -1.25, 1e300, 5e-324])})  # distinct
@example({"psi_star": np.full(3, -0.0)})  # constant -0.0 is not 0.0
@example({"a": np.array([0.0, -0.0, 0.0]), "b": np.array([-0.0, 0.0])})  # mixed signed zeros
@example({"a": np.full(4, 5e-324), "b": np.array([5e-324, 2.2250738585072014e-308 / 3, -5e-324])})  # subnormals
@example({"one": np.array([2.5]), "empty": np.empty(0), "zero": np.array([-0.0])})
@example({"a": {"b": [np.ones(3), {"c": np.array([1.0, 2.0])}, [np.empty(0)]]}})  # arrays at depth 2-4
@example({"strided": np.arange(10.0)[::3], "constant": np.ones(10)[::2]})  # not contiguous
@example(np.array([3.0, 3.0]))
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

    def test_oracle_diff_refuses_overflowing_terms_before_the_oracle(self, tmp_path, capsys, monkeypatch):
        psi = '{"kind": "values", "values": [1e200, -2e200, 3e200]}'
        code, _ = self.verify(tmp_path, psi)
        verify_err = capsys.readouterr().err

        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle ran on non-finite terms")

        monkeypatch.setattr(cli.oracle_mod, "enumerate_functional", no_oracle)
        out = tmp_path / "diff.json"
        argv = ["oracle-diff", "--dist", self.three_atoms(tmp_path), "--psi", psi]
        assert main(argv + ["--functional", "thm1-lower", "--out", str(out)]) == code == 1
        assert not out.exists()
        assert capsys.readouterr().err == verify_err == (
            "opial: error: thm1-lower: non-finite terms lhs, middle, rhs; "
            "the input overflows double precision or is not finite\n"
        )

    def test_oracle_diff_refuses_non_finite_oracle_terms(self, tmp_path, capsys):
        # The fast terms are finite; the oracle's middle term is inf - inf.
        path = tmp_path / "light.json"
        spec = {"atoms": [[0, 1e-10], [1, 1e-10], [2, 1 - 2e-10]], "pieces": []}
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "diff.json"
        argv = ["oracle-diff", "--dist", str(path), "--psi", '{"kind": "values", "values": [1e155, 1e155, 1]}']
        assert main(argv + ["--functional", "thm1-lower", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "opial: error: thm1-lower oracle: non-finite terms middle; "
            "the input overflows double precision or is not finite\n"
        )

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

    def test_search_needs_non_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        argv = ["search", "--functional", "thm1-lower", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 1 and not out.exists()
        assert capsys.readouterr().err == "opial: error: seed must be >= 0, got -1\n"

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

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_negative_budget(self, tmp_path, capsys, monkeypatch, via):
        out = tmp_path / "diff.json"
        argv = ["oracle-diff", "--dist", self.three_atoms(tmp_path), "--psi", "constant", "--functional", "thm2"]
        argv += ["--n", "2", "--out", str(out)]
        if via == "flag":
            argv += ["--budget", "-1"]
        else:
            monkeypatch.setenv("OPIAL_BUDGET", "-1")
        assert main(argv) == 1 and not out.exists()
        assert capsys.readouterr().err == "opial: error: budget must be >= 0, got -1\n"

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
            lambda v: {"psi_star": np.array([1.0, v, 2.0])},
            lambda v: {"psi_star": np.full(4, v)},
        ],
        ids=["leaf-dict", "leaf-list", "nested-list", "scalar", "array", "constant-array"],
    )
    def test_json_reports_reject_nan(self, value, place):
        with pytest.raises(ValueError):
            cli._json_text(place(value))

    @pytest.mark.parametrize(
        "array",
        [np.arange(3), np.ones((2, 2)), np.ones(3, dtype=np.float32), np.empty((0, 2))],
        ids=["int", "2-d", "float32", "empty-2-d"],
    )
    def test_json_reports_reject_other_arrays(self, array):
        # Only 1-D float64 arrays are written; any other raises as json.dumps does.
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_text({"psi_star": array})

    def test_non_finite_split_point(self, tmp_path, capsys):
        code, out = self.verify(tmp_path, "constant", "--functional", "corollary", "--c", "nan")
        assert code == 1 and not out.exists()
        assert "--c must be finite" in capsys.readouterr().err

    def test_non_finite_weight_exponent(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["verify", "--functional", "troy", "--psi", "constant", "--p-exp", "inf"]
        assert main(argv + ["--out", str(out)]) == 1 and not out.exists()
        assert "--p-exp must be finite" in capsys.readouterr().err


class TestParserReuse:
    """`main` builds its parser once per process, and every call through it
    gives what the same call gives through a parser built for it alone."""

    #: (argv, environment changes) in call order; None unsets a variable.
    #: Every command, an argparse usage error, help at two widths, the
    #: version, and oracle-diff with $OPIAL_BUDGET too small and then unset.
    CALLS = [
        *((argv, {}) for argv, _ in GOLDEN_CASES.values()),
        (["verify", "--frobnicate"], {}),
        (["--help"], {"COLUMNS": "60"}),
        (["--help"], {"COLUMNS": "120"}),
        (["--version"], {}),
        (GOLDEN_CASES["oracle-diff-thm2.json"][0], {"OPIAL_BUDGET": "10"}),
        (GOLDEN_CASES["oracle-diff-thm2.json"][0], {"OPIAL_BUDGET": None}),
    ]

    @staticmethod
    def outcome(entry, argv, out, capsys):
        """Exit code, stdout, stderr and report bytes (None if none) of one call."""
        out.unlink(missing_ok=True)
        try:
            code = entry([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

    def test_same_outcome_as_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        dist = tmp_path / "law.json"
        dist.write_text(json.dumps(GOLDEN_LAW), encoding="utf-8")
        out = tmp_path / "report"
        built = []
        init = cli._Parser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def fresh(argv):
            return cli.run(cli.build_parser.__wrapped__().parse_args(argv))

        monkeypatch.setattr(cli._Parser, "__init__", counted_init)
        cli.build_parser.cache_clear()
        builds_in_main = 0
        outcomes = []
        for argv, env in self.CALLS:
            for name, value in env.items():
                if value is None:
                    monkeypatch.delenv(name)
                else:
                    monkeypatch.setenv(name, value)
            argv = [arg.replace("{dist}", str(dist)) for arg in argv]
            before = len(built)
            reused = self.outcome(main, argv, out, capsys)
            builds_in_main += len(built) - before
            assert reused == self.outcome(fresh, argv, out, capsys), argv
            outcomes.append(reused)
        assert builds_in_main == 1
        assert cli.build_parser() is cli.build_parser()
        codes = [code for code, *_ in outcomes]
        assert codes == [code for _, code in GOLDEN_CASES.values()] + [1, 0, 0, 0, 1, 0]
        narrow, wide = outcomes[len(GOLDEN_CASES) + 1][1], outcomes[len(GOLDEN_CASES) + 2][1]
        assert narrow != wide  # the width is read when help prints, not when it is built
        assert "budget" in outcomes[-2][2] and outcomes[-1][3] is not None


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

    SUPPORTED = (
        "oracle-diff supports thm1-lower, thm1-upper, corollary, thm2, thm3, "
        "weighted-lower, weighted-upper, wirtinger"
    )

    def test_discrete_identities_have_no_oracle(self, capsys):
        code = main(
            ["oracle-diff", "--psi", "constant", "--functional", "o9-2"]
        )
        assert code == 1
        assert self.SUPPORTED in capsys.readouterr().err

    @pytest.mark.parametrize("functional", ["troy", "o9-2"])
    def test_refusal_names_the_supported_ids(self, tmp_path, capsys, functional):
        dist = write_uniform_n(tmp_path / "d.json", 3)
        flags = ["--dist", str(dist), "--psi", "constant", "--p-exp", "1"]
        assert main(["oracle-diff", "--functional", functional, *flags]) == 1
        err = capsys.readouterr().err
        assert err == f"opial: error: no enumeration oracle for {functional}; {self.SUPPORTED}\n"

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
    @pytest.mark.parametrize("functional", oracle.ORACLE_IDS)
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

    @pytest.mark.parametrize("c", ["0.25", "1.5"])
    def test_corollary_on_a_law_with_pieces(self, tmp_path, c):
        # uniform (0, 1) plus two atoms, cut inside the piece and in a gap:
        # the oracle enumerates the same cut model.
        dist = tmp_path / "mix.json"
        spec = {"atoms": [[2.0, 0.25], [3.0, 0.25]], "pieces": [{"lo": 0.0, "hi": 1.0, "mass": 0.5}]}
        dist.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "diff.json"
        flags = ["--dist", str(dist), "--functional", "corollary", "--c", c, "--m", "16", "--out", str(out)]
        for psi in ("cos_pi_F", "identity", '{"kind": "step", "threshold": 0.5, "low": -1.0, "high": 2.0}'):
            assert main(["oracle-diff", "--psi", psi, *flags]) == 0
            assert json.loads(out.read_text())["rel_err"] <= 1e-12

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

    def test_flat_study_writes_positive_zero(self, tmp_path):
        out = tmp_path / "study.json"
        argv = ["converge", "--functional", "thm2", "--n", "2", "--grids", "1,2", "--out", str(out)]
        assert main(argv) == 0
        text = out.read_text()
        assert '"fitted_order": 0.0' in text
        assert math.copysign(1.0, json.loads(text)["fitted_order"]) == 1.0

    def test_grids_required(self, capsys):
        assert main(["converge", "--functional", "thm2", "--n", "1"]) == 1

    @pytest.mark.parametrize(
        "functional, recorded", [("wirtinger", None), ("thm1-lower", None), ("thm2", 2)]
    )
    def test_order_recorded_only_where_read(self, tmp_path, functional, recorded):
        out = tmp_path / "study.json"
        argv = ["converge", "--functional", functional, "--grids", "4,8", "--n", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == recorded


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

    def test_wirtinger_on_the_given_law(self, tmp_path):
        # Six equal atoms: c_m = 1/(4 m^2 sin^2(pi/(2m))), above 1/pi^2.
        dist = write_uniform_n(tmp_path / "d.json", 6)
        out = tmp_path / "sharp.json"
        assert main(["sharpness", "--functional", "wirtinger", "--dist", str(dist), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["c_m"] - 1.0 / (4 * 36 * math.sin(math.pi / 12) ** 2)) <= 1e-13
        assert doc["ratio_star"] > 1.0

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


class TestReportWrite:
    ARGV = ["sharpness", "--functional", "wirtinger", "--m", "16", "--out"]

    def reference_bytes(self, tmp_path):
        ref = tmp_path / "ref" / "sharp.json"
        ref.parent.mkdir()
        assert main(self.ARGV + [str(ref)]) == 0
        return ref.read_bytes()

    def test_failed_fsync_keeps_the_old_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sharp.json"
        out.write_bytes(b'{"old": "report"}\n')

        def fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "fsync", fsync)
        assert main(self.ARGV + [str(out)]) == 1
        assert capsys.readouterr().err == f"opial: error: cannot write {out}: Input/output error\n"
        assert out.read_bytes() == b'{"old": "report"}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["sharp.json"]

    def test_write_fsync_close_replace_in_order(self, tmp_path, monkeypatch):
        out = tmp_path / "sharp.json"
        calls, temps = [], {}
        real = {name: getattr(os, name) for name in ("open", "write", "fsync", "close", "replace")}

        def spy_open(path, *args):
            fd = real["open"](path, *args)
            if str(path).endswith(".tmp"):
                temps[fd] = str(path)
            return fd

        def spy(name):
            def call(target, *args):
                if name == "replace" or target in temps:
                    calls.append((name, temps.get(target, target)))
                return real[name](target, *args)

            return call

        monkeypatch.setattr(os, "open", spy_open)
        for name in ("write", "fsync", "close", "replace"):
            monkeypatch.setattr(os, name, spy(name))
        assert main(self.ARGV + [str(out)]) == 0
        monkeypatch.undo()
        [tmp] = temps.values()
        assert os.path.dirname(tmp) == str(tmp_path)
        assert calls == [("write", tmp), ("fsync", tmp), ("close", tmp), ("replace", tmp)]
        assert [p.name for p in tmp_path.iterdir()] == ["sharp.json"]

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        want = self.reference_bytes(tmp_path)
        out = tmp_path / "sharp.json"
        real_write, sizes = os.write, []

        def one_byte(fd, data):
            sizes.append(len(data))
            return real_write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", one_byte)
        assert main(self.ARGV + [str(out)]) == 0
        monkeypatch.undo()
        assert out.read_bytes() == want
        assert sizes == list(range(len(want), 0, -1))


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

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("functional", fn.SEARCHABLE_IDS)
    def test_every_instance_replays_through_verify(self, tmp_path, functional, seed):
        # At rel_tol -1 every trial is listed, so the search returns trial 0.
        # Its instance, written as verify flags, gives the same slack bit for
        # bit: the instance holds psi for every id, and the law ids' atoms.
        violation = sharp.search_counterexample(functional, 50, seed, 8, rel_tol=-1.0)
        assert violation is not None and violation.trial == 0
        instance = violation.instance
        argv = ["verify", "--functional", functional]
        argv += ["--psi", json.dumps({"kind": "values", "values": instance["psi"]})]
        if "mass" in instance:
            atoms = [list(atom) for atom in zip(instance["support"], instance["mass"])]
            dist = tmp_path / "law.json"
            dist.write_text(json.dumps({"atoms": atoms, "pieces": []}), encoding="utf-8")
            argv += ["--dist", str(dist)]
        if "n" in instance:
            argv += ["--n", str(instance["n"])]
        if "c" in instance:
            argv += ["--c", repr(instance["c"])]
        if "chi" in instance:
            argv += ["--chi", json.dumps({"kind": "values", "values": instance["chi"]})]
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) in (0, 2)
        slack = json.loads(out.read_text())["slack"]
        assert np.float64(slack).view(np.int64) == np.float64(violation.slack).view(np.int64)


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
        # The child imports the package this test imported, installed or not.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
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
            env=env,
        )
        assert proc.returncode == 0
        assert "equality=true" in proc.stdout

    def test_import_adds_only_the_known_modules(self):
        # Importing opial.cli is the benchmark's set-up time; a new import
        # (such as one of secrets, random or hashlib) would add to it unseen.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        script = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import opial.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        added = set(proc.stdout.split())
        known = {
            "__future__", "_csv", "_json", "argparse", "copy", "csv", "dataclasses", "gettext",
            "json", "json.decoder", "json.encoder", "json.scanner",
        }
        assert "opial.cli" in added
        assert {name for name in added if name != "opial" and not name.startswith("opial.")} <= known
