"""The library's records: named tuples that check their fields however they
are built, survive pickling, print as they always have, and keep the
library from importing `dataclasses`."""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pursuitwidth
from pursuitwidth.arena import (CopTurn, InvisibleResult, RobberTurn, SearchConfig,
                                SolveResult)
from pursuitwidth.cli import Check, Report
from pursuitwidth.errors import ConfigError, InputError
from pursuitwidth.families import TreeCoords
from pursuitwidth.multiply import AdversarialReport, HistoryEntry, MemoryZeta
from pursuitwidth.parity import (ImperfectResult, ParityGame, ParityResult,
                                 distinguisher_game, powerset_construct)
from pursuitwidth.strategy import History, ValidationReport


def test_the_library_imports_without_dataclasses():
    src = str(Path(pursuitwidth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pursuitwidth, pursuitwidth.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


GAME = ParityGame(2, (0, 1), (0, 1), ("a", "b"), ((frozenset({1}), frozenset({0})),) * 2, 0)

# (good record, field, bad value, error, message): the message of the
# record's check, which every construction path must raise
BAD_FIELDS = [
    (CopTurn(0, 1), "U", -1, TypeError, "U must be a vertex mask (a nonnegative int), not -1"),
    (CopTurn(0, 1), "U", 1, ConfigError, "cop and robber sets overlap: [0]"),
    (RobberTurn(0, 0, 1), "Uprime", frozenset(), TypeError,
     "Uprime must be a vertex mask (a nonnegative int), not frozenset()"),
    (RobberTurn(0, 0, 1), "R", True, TypeError,
     "R must be a vertex mask (a nonnegative int), not True"),
    (SearchConfig(1), "k", -1, ConfigError, "k must be nonnegative"),
    (SearchConfig(1), "r", 0, ConfigError, "r must be at least 1"),
    (SearchConfig(1, restrict_to_scc=True), "r", 2, ConfigError,
     "the SCC-restricted game is defined for a single robber"),
    (GAME, "init", 2, InputError, "initial position 2 out of range"),
    (GAME, "owner", (0,), InputError, "owner and color must cover every position"),
    (GAME, "color", (0, -1), InputError, "colors must be nonnegative"),
    (GAME, "actions", ("a", "a"), InputError, "repeated action label in ['a', 'a']"),
]
PATHS = {
    "constructor": lambda rec, changes: type(rec)(**{**rec._asdict(), **changes}),
    "_make": lambda rec, changes: type(rec)._make({**rec._asdict(), **changes}.values()),
    "_replace": lambda rec, changes: rec._replace(**changes),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("rec, field, value, error, message", BAD_FIELDS,
                         ids=[f"{type(c[0]).__name__}-{c[1]}-{c[2]!r}" for c in BAD_FIELDS])
def test_checked_records_reject_a_bad_field_on_every_path(path, rec, field, value, error,
                                                          message):
    assert PATHS[path](rec, {}) == rec
    with pytest.raises(error) as got:
        PATHS[path](rec, {field: value})
    assert str(got.value) == message


RHO = History((CopTurn(0, 0b10), RobberTurn(0, 0b100, 0b10)))
ENTRY = HistoryEntry(RHO, 0b10, 0b1010)
PG, EQ = distinguisher_game()
REPORT = Report(["verify", "thm25"], {"n": 2})
REPORT.checks.append(Check("fine", True))

# (record, its repr where the text is pinned): the reprs the reports print
RECORDS = [
    (CopTurn(0b110, 0b1), "CopTurn(U=[1, 2], R=[0])"),
    (RobberTurn(0b10, 0b110, 0b1), "RobberTurn(U=[1], U'=[1, 2], R=[0])"),
    (SearchConfig(2, r=3), "SearchConfig(k=2, r=3, restrict_to_scc=False)"),
    (ENTRY, "HistoryEntry(rho=History(3 positions, last=RobberTurn(U=[], U'=[2], R=[1])), "
            "Rset=2, Oset=10)"),
    (MemoryZeta((ENTRY,), RHO.append(CopTurn(0b100, 0b1))),
     "MemoryZeta(entries=(HistoryEntry(rho=History(3 positions, last=RobberTurn(U=[], "
     "U'=[2], R=[1])), Rset=2, Oset=10),), rho_s=History(4 positions, "
     "last=CopTurn(U=[2], R=[0])))"),
    (SolveResult("cops", None, None, 3), None),
    (InvisibleResult(True, [0, 1], 2), None),
    (ValidationReport(False, ("captured",), 4, 1), None),
    (AdversarialReport(True, None, 5, 2, 1, {"Won": 1}, 3), None),
    (PG, None),
    (powerset_construct(PG, EQ), None),
    (ParityResult(frozenset({0}), frozenset({1}), {0: "a"}), None),
    (ImperfectResult(True, {frozenset({0}): "a"}), None),
    (TreeCoords.build(2, 1, True), None),
    (Check("witnessed", False, {"n": 3}), None),
    (REPORT, None),
]


@pytest.mark.parametrize("rec, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_survive_pickling_and_print_as_before(rec, text):
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    if isinstance(rec, Report):
        assert back.as_json() == rec.as_json()
    else:
        assert back == rec and repr(back) == repr(rec)
    if text is not None:
        assert repr(rec) == text
