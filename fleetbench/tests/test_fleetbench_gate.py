"""The correctness gate fires on wrong outputs, and a run that trips it
exits non-zero without printing metrics."""

import json

import pytest

from fleetbench import gate, run
from fleetbench.common import GateError
from fleetbench.traffic import Upload

GOOD = Upload("u-1", "unique-0", b"blob-1", "d" * 64)
CORRUPT = Upload("u-2", "corrupt-1", b"blob-2", None)


def test_matching_verdicts_pass():
    ledger = gate.Ledger()
    ledger.settle(GOOD, {"status": "accepted", "signature": "d" * 64})
    ledger.settle(CORRUPT, {"status": "rejected", "reason": "decode"})
    ledger.check_stored([{"u-1": "d" * 64}])
    ledger.enforce()
    assert ledger.acked == {"u-1": "d" * 64}
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_tampered_digest_fires():
    ledger = gate.Ledger()
    ledger.settle(GOOD, {"status": "accepted", "signature": "e" * 64})
    with pytest.raises(GateError, match="differs from the oracle"):
        ledger.enforce()


def test_accepted_corrupt_blob_fires():
    ledger = gate.Ledger()
    ledger.settle(CORRUPT, {"status": "accepted", "signature": "d" * 64})
    with pytest.raises(GateError, match="not rejected"):
        ledger.enforce()


def test_rejected_good_blob_fires():
    ledger = gate.Ledger()
    ledger.settle(GOOD, {"status": "rejected", "reason": "replay"})
    with pytest.raises(GateError, match="oracle accepts it"):
        ledger.enforce()


def test_dropped_upload_fires():
    ledger = gate.Ledger()
    ledger.settle(GOOD, {"status": "accepted", "signature": "d" * 64})
    ledger.check_stored([{}])
    with pytest.raises(GateError, match="0 of 1 node store"):
        ledger.enforce()


def test_upload_on_too_few_replicas_fires():
    ledger = gate.Ledger()
    ledger.settle(GOOD, {"status": "accepted", "signature": "d" * 64})
    held = {"u-1": "d" * 64}
    ledger.check_stored([held, held, {}], copies=2)
    ledger.enforce()
    ledger.check_stored([held, {}, {"u-1": "e" * 64}], copies=2)
    with pytest.raises(GateError, match="1 of 3 node store"):
        ledger.enforce()


def test_upload_with_no_outcome_fires():
    ledger = gate.Ledger()
    ledger.settle(GOOD, None)
    assert (ledger.attempted, ledger.failed, ledger.acked) == (1, 1, {})
    with pytest.raises(GateError, match="no terminal outcome"):
        ledger.enforce()


def test_wrong_autopsy_verdict_fires():
    oracle = [{"name": "bc-1.06", "sha256": "a"}]
    expected = {"bc-1.06": {"verdict": "null-pointer-store",
                            "culprit_line": 26}}
    outcome = {"reports": [["bc-1.06", "a"]], "diagnoses": [
        {"program": "bc-1.06", "verdict": "wild-address-arithmetic",
         "culprit_line": 26}]}
    problems = gate.autopsy_mismatches(oracle, outcome, expected)
    assert len(problems) == 1 and "expected null-pointer-store" in problems[0]
    outcome["diagnoses"][0]["verdict"] = "null-pointer-store"
    assert gate.autopsy_mismatches(oracle, outcome, expected) == []
    outcome["diagnoses"][0]["culprit_line"] = 25
    assert "at line 26" in gate.autopsy_mismatches(
        oracle, outcome, expected)[0]
    outcome["diagnoses"][0]["culprit_line"] = 26
    outcome["reports"].append(["bc-1.06", "b"])
    assert "differs from the oracle" in gate.autopsy_mismatches(
        oracle, outcome, expected)[0]


def test_expected_verdicts_cover_the_bug_suite():
    """The committed table names every Table-1 bug, uses only real
    verdicts, and agrees with what the autopsy tests pin: the verdict
    of each bug they name, and the annotated root-cause line as the
    culprit of each bug they check it for."""
    from repro.forensics.autopsy import (
        ALL_VERDICTS,
        VERDICT_CODE_POINTER,
        VERDICT_NULL_POINTER,
        VERDICT_RACE_REMOTE,
        VERDICT_WILD_ARITHMETIC,
    )
    from repro.workloads.bugs import BUG_SUITE, BUGS_BY_NAME

    table = gate.expected_verdicts()
    assert set(table) == {bug.name for bug in BUG_SUITE}
    assert all(entry["verdict"] in ALL_VERDICTS for entry in table.values())
    pinned = {"bc-1.06": VERDICT_NULL_POINTER,
              "ncompress-4.2.4": VERDICT_CODE_POINTER,
              "python-2.1.1-1": VERDICT_WILD_ARITHMETIC,
              "gaim-0.82.1": VERDICT_RACE_REMOTE}
    for name, verdict in pinned.items():
        assert table[name]["verdict"] == verdict, name
    for name in ("bc-1.06", "ncompress-4.2.4", "gaim-0.82.1", "tar-1.13.25",
                 "gnuplot-3.7.1-1", "tidy-34132-2", "tidy-34132-3",
                 "python-2.1.1-2"):
        program = BUGS_BY_NAME[name].program()
        root = program.source_line_of(program.pc_of("root_cause"))
        assert table[name]["culprit_line"] == root, name


def test_run_reports_no_metrics_on_mismatch(monkeypatch, capsys):
    def tampered(args, tracer, run_dir):
        ledger = gate.Ledger()
        ledger.settle(GOOD, {"status": "accepted", "signature": "f" * 64})
        ledger.enforce()

    monkeypatch.setattr(run, "measure", tampered)
    code = run.main(["--workload", "st-warm", "--seed", "1",
                     "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "metrics" not in out and "correct" not in out


def test_run_prints_metrics_when_outputs_match(monkeypatch, capsys):
    def fine(args, tracer, run_dir):
        return {"attempted": 3, "failed": 0, "notes": {},
                "e2e": {"setup_s": (0.5, "s")}}

    monkeypatch.setattr(run, "measure", fine)
    assert run.main(["--workload", "st-warm", "--seed", "1",
                     "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": True, "attempted": 3, "failed": 0,
                    "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
