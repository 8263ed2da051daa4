"""Reference-instance gate: one test per named criterion, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines;
the CLI `polylevel verify` drives the same checks.
"""

import pytest

from polylevel.acceptance import CRITERIA


@pytest.mark.parametrize("ident,description,fn", CRITERIA,
                         ids=[cid for cid, _, _ in CRITERIA])
def test_criterion(ident, description, fn):
    passed, detail = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] {ident} {description}: {detail}")
    assert passed, f"{ident} {description}: {detail}"
