"""Shared test plumbing: acceptance-criterion result recording, the
payload oracle of the lamp codes, and the fresh-ball check of a grown
Cayley ball.

Acceptance tests call ``record_criterion`` so a single PASS/FAIL line per
criterion is printed in the terminal summary regardless of output capture.
"""
import functools
from typing import Dict, Tuple

from halolab.groups import ball
from halolab.halo import HaloGroup

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
    """Give the halo the payload code (HaloGroup._lamp_codes), so its lamp
    rows, lamp searches and commutation checks step each payload by
    lamp_compose, the general product: the oracle for the codes."""
    halo._lamp_codes = functools.partial(HaloGroup._lamp_codes, halo)
    return halo


def is_payload_code(halo, codes) -> bool:
    """Whether codes, a _lamp_codes result of the halo, is the payload code,
    which steps by lamp_compose."""
    return codes[2] == halo.lamp_compose


def assert_ball_is_fresh(b):
    """A grown ball equals a fresh ball of its radius: lengths in the same
    order, same parents."""
    fresh = ball(b.group, b.radius)
    assert list(b.lengths.items()) == list(fresh.lengths.items())
    assert b.parents == fresh.parents
