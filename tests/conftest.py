"""Shared test plumbing: acceptance-criterion result recording, the
payload oracle of the lamp codes, and the fresh-ball check of a grown
Cayley ball.

Acceptance tests call ``record_criterion`` so a single PASS/FAIL line per
criterion is printed in the terminal summary regardless of output capture.
"""
from typing import Dict, Tuple

from halolab.groups import ball

_RESULTS: Dict[int, Tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _RESULTS[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        ok, detail = _RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"CRITERION {number:2d}: {status} — {detail}")


def search_payloads(halo):
    """Take the halo's lamp code away (its _lamp_codes returns None), so
    its lamp rows step each payload by _step_lamp and its lamp searches
    step payloads by lamp_compose: the oracle for the codes."""
    halo._lamp_codes = lambda moves, lamps=(): None
    return halo


def assert_ball_is_fresh(b):
    """A grown ball equals a fresh ball of its radius: lengths in the same
    order, same parents."""
    fresh = ball(b.group, b.radius)
    assert list(b.lengths.items()) == list(fresh.lengths.items())
    assert b.parents == fresh.parents
