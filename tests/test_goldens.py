"""The golden store itself: its check, its audit, its regenerate command.

The toy owner is this module: ``toy_store`` points the store at a
temporary directory holding ``MEASURED``.
"""

from __future__ import annotations

import pytest

from tests import goldens

PIN_KEYS = ("cycles", "counters", "report")
MEASURED = {"cycles": 100, "counters": {"tie": [1, 2]}, "report": "a\nb\n"}


def measure_pins() -> dict:
    return MEASURED


@pytest.fixture
def toy_store(tmp_path, monkeypatch):
    monkeypatch.setattr(goldens, "STORE", tmp_path)
    monkeypatch.setattr(goldens, "OWNERS", {"toy": __name__})
    goldens.write("toy", MEASURED)
    return tmp_path


def test_the_store_and_its_owners_agree():
    """Every committed key is declared, every declared key committed and
    every file claimed, found without simulating."""
    assert goldens.audit() == []


@pytest.mark.parametrize("owner", sorted(goldens.OWNERS))
def test_rewriting_the_committed_values_changes_no_byte(owner):
    """``--regen`` on an unchanged tree leaves ``git status`` clean."""
    for path, text in goldens._files(owner, goldens.load(owner)).items():
        assert path.read_text(encoding="utf-8") == text, path


def test_drift_names_owner_key_pinned_and_measured(toy_store):
    goldens.check("toy", MEASURED)
    with pytest.raises(AssertionError) as drift:
        goldens.check("toy", {"cycles": 101, "counters": {"tie": [1, 3]},
                              "report": "a\nc\n", "new": 7})
    assert str(drift.value).splitlines()[:4] == [
        "toy cycles: pinned 100, measured 101",
        "toy counters.tie[1]: pinned 2, measured 3",
        "toy report line 2: pinned 'b\\n', measured 'c\\n'",
        "toy new: pinned missing, measured 7",
    ]
    assert "--regen toy" in str(drift.value)


def test_audit_names_a_committed_key_no_owner_declares(toy_store):
    goldens.write("toy", {**MEASURED, "bogus": 1})
    assert goldens.audit() == [
        f"toy bogus: committed, but {__name__} does not declare it",
    ]


def test_audit_names_a_file_no_owner_claims(toy_store):
    (toy_store / "stray.json").touch()
    (toy_store / "toy" / "notes.md").touch()
    assert goldens.audit() == [
        "stray.json: no owner claims this file",
        "toy/notes.md: no owner claims this file",
    ]


def test_regen_on_an_unchanged_tree_rewrites_no_byte(toy_store):
    before = {path: path.read_bytes() for path in toy_store.rglob("*.*")}
    assert goldens.regen("toy") == ["toy: 0 changed, 3 unchanged"]
    assert {path: path.read_bytes() for path in toy_store.rglob("*.*")} == before


def test_regen_prints_what_moved(toy_store, monkeypatch):
    monkeypatch.setitem(MEASURED, "cycles", 104)
    assert goldens.regen("toy") == [
        "toy cycles: 100 → 104", "toy: 1 changed, 2 unchanged",
    ]
    assert goldens.load("toy")["cycles"] == 104
