"""Every test starts from cold tables: the package's caches (the action,
graded-block and abelian-block tables of fcrystals.blocks among them) are
emptied before each test, so no count or output rests on what an earlier
test left in a table."""

import pytest

from helpers import clear_caches


@pytest.fixture(autouse=True)
def _cold_tables():
    clear_caches()
