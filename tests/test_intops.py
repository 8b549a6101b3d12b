from digitpow import _intops


def test_backend_flag():
    # benchmark records read the flag to name the backend
    assert _intops.USING_GMPY2 is False
