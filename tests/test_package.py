"""The package's lazy export table: every public name resolves."""

import polarlab


def test_every_export_resolves():
    for name in polarlab.__all__:
        assert getattr(polarlab, name) is not None, name
    assert sorted(dir(polarlab)) == sorted(polarlab.__all__)
