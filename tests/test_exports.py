import coopsat


def test_all_names_resolve():
    # ``from coopsat import *`` fails on any name that no longer exists
    missing = [name for name in coopsat.__all__ if not hasattr(coopsat, name)]
    assert missing == []
