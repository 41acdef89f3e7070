import sys

import pytest


@pytest.fixture(params=["default", "unlimited"])
def int_digit_limit(request):
    """Run a test under the interpreter's int digit limit, and again with
    that limit removed where the interpreter has one (Python 3.11 on)."""
    if request.param == "default":
        yield
        return
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)
