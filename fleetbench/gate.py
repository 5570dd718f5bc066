"""The correctness gate: every output checked against the oracle.

A run that fails any check raises :class:`~fleetbench.common.GateError`
and reports no metrics.
"""

from __future__ import annotations

import json
from pathlib import Path

from fleetbench.common import GateError

#: The autopsy verdict and culprit line each Table-1 bug must get.  It
#: is a committed table, not an output of the code under test, so a
#: regression in triage or autopsy cannot move the oracle with it.
EXPECTED_VERDICTS = Path(__file__).with_name("expected_verdicts.json")


class Ledger:
    """Server verdicts against the oracle, and the acks to look for."""

    def __init__(self) -> None:
        self.acked: "dict[str, str]" = {}       # upload_id -> digest
        self.mismatches: "list[str]" = []
        self.attempted = 0
        self.failed = 0

    def settle(self, upload, response: "dict | None") -> bool:
        """Check one terminal response; ``None`` means the upload got
        no terminal outcome, which a healthy run never has, so it is a
        mismatch too.  Returns whether it matched."""
        self.attempted += 1
        if response is None:
            self.failed += 1
            self.mismatches.append(f"{upload.upload_id}: no terminal outcome")
            return False
        problem = verdict_mismatch(upload, response)
        if problem:
            self.mismatches.append(f"{upload.upload_id}: {problem}")
            return False
        if upload.digest is not None:
            self.acked[upload.upload_id] = upload.digest
        return True

    def check_stored(self, stores: "list[dict[str, str]]",
                     copies: int = 1) -> None:
        """Every acked upload is committed, under its acked digest, in
        at least *copies* of the node *stores* (each maps upload_id to
        digest)."""
        for upload_id, digest in self.acked.items():
            held = sum(store.get(upload_id) == digest for store in stores)
            if held < copies:
                self.mismatches.append(
                    f"{upload_id}: acked, but {held} of {len(stores)} node "
                    f"store(s) hold it under that digest, not {copies}")

    def enforce(self) -> None:
        enforce(self.mismatches)


def verdict_mismatch(upload, response: dict) -> str:
    """Why *response* disagrees with the oracle verdict, or ``""``."""
    status = response.get("status")
    if upload.digest is None:
        if status != "rejected":
            return f"corrupt blob was {status!r}, not rejected"
        return ""
    if status != "accepted":
        return (f"oracle accepts it, server said {status!r} "
                f"({response.get('reason', '')})")
    if response.get("signature") != upload.digest:
        return (f"digest {response.get('signature')} differs from the "
                f"oracle's {upload.digest}")
    return ""


def store_uploads(root) -> "dict[str, str]":
    """upload_id -> digest of every report in a store on disk."""
    from repro.fleet.store import ReportStore

    return {entry.upload_id: entry.digest
            for entry in ReportStore(root).entries() if entry.upload_id}


def expected_verdicts() -> "dict[str, dict]":
    return json.loads(EXPECTED_VERDICTS.read_text(encoding="utf-8"))


def autopsy_mismatches(oracle: "list[dict]", outcome: dict,
                       expected: "dict[str, dict] | None" = None
                       ) -> "list[str]":
    """Recording pass: each recorded report must be byte-identical to
    the oracle's, and each bucket's autopsy must reach the verdict and
    culprit line that *expected* (default: the committed table) gives
    its program."""
    expected = expected_verdicts() if expected is None else expected
    hashes = {entry["name"]: entry["sha256"] for entry in oracle}
    problems = []
    for name, sha in outcome["reports"]:
        if sha != hashes.get(name):
            problems.append(f"{name}: recorded report differs from the "
                            f"oracle's")
    if {name for name, _sha in outcome["reports"]} != set(hashes):
        problems.append("recorded programs differ from the oracle's")
    for diagnosis in outcome["diagnoses"]:
        want = expected.get(diagnosis["program"])
        if want is None:
            problems.append(f"bucket of unknown program "
                            f"{diagnosis['program']}")
        elif (diagnosis["verdict"], diagnosis["culprit_line"]) != (
                want["verdict"], want["culprit_line"]):
            problems.append(
                f"{diagnosis['program']}: autopsy says "
                f"{diagnosis['verdict']} at line {diagnosis['culprit_line']},"
                f" expected {want['verdict']} at line "
                f"{want['culprit_line']}")
    return problems


def enforce(mismatches: "list[str]") -> None:
    if mismatches:
        shown = "\n  ".join(mismatches[:20])
        more = len(mismatches) - 20
        raise GateError(
            f"{len(mismatches)} output(s) disagree with the oracle:\n  {shown}"
            + (f"\n  ... and {more} more" if more > 0 else ""))
