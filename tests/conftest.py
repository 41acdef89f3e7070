import io
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


@pytest.fixture
def stdin(monkeypatch):
    """A function that puts text, or raw bytes, on sys.stdin as a stream
    with a byte buffer underneath, as a terminal or a pipe gives it."""
    def feed(data):
        if isinstance(data, str):
            data = data.encode("utf-8")
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(data), "utf-8"))
    return feed
