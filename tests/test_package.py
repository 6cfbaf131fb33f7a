import mfchaos


def test_every_public_name_resolves():
    # a stale __all__ entry imports fine but breaks `from mfchaos import *`
    missing = [name for name in mfchaos.__all__ if not hasattr(mfchaos, name)]
    assert missing == []
    assert len(set(mfchaos.__all__)) == len(mfchaos.__all__)
