"""README.md lists the functional ids, node-function kinds, verify and sharpness keys, search constants, oracle ids and long options the code defines."""
import json
import re
from pathlib import Path

import pytest

from opial.cli import build_parser
from opial.distributions import NODE_FUNCTION_KINDS, NodeFunction, make_uniform_interval, quantize
from opial.functionals import FUNCTIONAL_IDS, theorem3_terms, troy_comparison
from opial.oracle import ORACLE_IDS
from opial.sharpness import BLOCK_TRIALS, CHUNK_ELEMENTS, rayleigh_best_constant

README = Path(__file__).resolve().parents[1] / "README.md"


def paragraph(start: str) -> str:
    """The README paragraph that begins with `start`, on one line."""
    found = [p for p in README.read_text(encoding="utf-8").split("\n\n") if p.startswith(start)]
    assert len(found) == 1, f"README needs one paragraph starting {start!r}"
    return " ".join(found[0].split())


def bullet(start: str) -> str:
    """The README list item that begins with `start`, on one line."""
    items = README.read_text(encoding="utf-8").split("\n- ")
    found = [item for item in items if item.startswith(start)]
    assert len(found) == 1, f"README needs one list item starting {start!r}"
    return " ".join(found[0].split())


def is_bare_name(kind: str) -> bool:
    try:
        NodeFunction.from_spec(kind)
    except ValueError:
        return False
    return True


def test_functional_ids_listed_in_table_order():
    ids = paragraph("Functional ids:").split(". ")[0]
    assert tuple(re.findall(r"`([^`]+)`", ids)) == FUNCTIONAL_IDS


def test_node_function_kinds_listed_in_table_order():
    specs = paragraph("Node-function specs:")
    assert tuple(re.findall(r'"kind": "([^"]+)"', specs)) == NODE_FUNCTION_KINDS


def test_bare_names_listed():
    names = paragraph("Node-function specs:").split("bare names")[1]
    listed = tuple(re.findall(r"`([^`]+)`", names))
    assert listed == tuple(k for k in NODE_FUNCTION_KINDS if is_bare_name(k))


@pytest.mark.parametrize("kind", NODE_FUNCTION_KINDS)
def test_spec_examples_parse(kind):
    specs = paragraph("Node-function specs:")
    example = re.search(r'`(\{"kind": "' + kind + r'"[^`]*\})`', specs).group(1)
    example = example.replace("[...]", "[1.0]")
    assert NodeFunction.from_spec(json.loads(example)).kind == kind


def test_sharpness_keys_listed():
    keys = bullet("`sharpness` --").split(" keys ")[1].split(" (")[0]
    result = rayleigh_best_constant(quantize(make_uniform_interval(0.0, 1.0), 4))
    assert re.findall(r"`([^`]+)`", keys) == sorted(result.to_json_dict())


def test_verify_keys_listed():
    keys = bullet("`verify` --").split(" keys ")[1].split(" (")[0]
    report = theorem3_terms(quantize(make_uniform_interval(0.0, 1.0), 4), NodeFunction.constant())
    assert not report.extras
    assert re.findall(r"`([^`]+)`", keys) == sorted(report.to_json_dict())
    troy_keys = bullet("`verify` --").split("`troy` reports ")[1].split(")")[0]
    troy = troy_comparison(1.0, NodeFunction.constant(), 4)
    assert re.findall(r"`([^`]+)`", troy_keys) == sorted(troy.to_json_dict())


def test_search_block_stream_stated():
    text = paragraph("Trials are drawn in blocks of")
    number = r"(\d[\d ]*)"
    sizes = re.search(rf"blocks of {number}, or of {number} / M when M exceeds {number}\.", text)
    assert sizes, text
    stated = [int(g.replace(" ", "")) for g in sizes.groups()]
    assert stated == [BLOCK_TRIALS, CHUNK_ELEMENTS, CHUNK_ELEMENTS // BLOCK_TRIALS]
    rows = re.search(rf"Trial t is row t mod {number} of block b = t // {number},", text)
    assert rows and [int(g) for g in rows.groups()] == [BLOCK_TRIALS, BLOCK_TRIALS]
    assert f"zero-padded ({BLOCK_TRIALS} x M) arrays" in text
    assert "block b comes from its own generator `default_rng([S, b])`" in text


def test_every_long_option_named():
    text = README.read_text(encoding="utf-8")
    options = [opt for action in build_parser()._actions for opt in action.option_strings if opt.startswith("--")]
    missing = [opt for opt in options if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text)]
    assert options and not missing, missing


def test_oracle_diff_ids_listed_in_table_order():
    ids = bullet("`oracle-diff` --").split(":")[0]
    assert tuple(re.findall(r"`([^`]+)`", ids))[1:] == ORACLE_IDS
