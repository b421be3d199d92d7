"""Public export lists: every advertised name resolves."""

import pytest

import kgsemcom
import kgsemcom.phy


@pytest.mark.parametrize("module", [kgsemcom, kgsemcom.phy], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
