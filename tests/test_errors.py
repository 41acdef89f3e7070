"""Every error the package raises on bad input derives from FermatmfError,
which the command line maps to exit status 2 in one place."""

import importlib
import inspect
import pkgutil

import fermatmf
from fermatmf.field import FermatmfError, NotInvertibleError

# a reducible tower modulus is an internal fault, not bad input
_NOT_INPUT_ERRORS = {NotInvertibleError}


def _package_modules():
    for info in pkgutil.iter_modules(fermatmf.__path__):
        yield importlib.import_module("fermatmf." + info.name)


def test_every_package_exception_derives_from_fermatmf_error():
    modules = list(_package_modules())
    assert {m.__name__ for m in modules} >= {
        "fermatmf.cli", "fermatmf.equiv", "fermatmf.families",
        "fermatmf.field", "fermatmf.matrix", "fermatmf.moduli6",
        "fermatmf.poly"}
    defined = {cls for module in modules
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__
               and issubclass(cls, BaseException)}
    assert len(defined) >= 10
    stray = {cls.__qualname__ for cls in defined - _NOT_INPUT_ERRORS
             if not issubclass(cls, FermatmfError)}
    assert stray == set()
    assert issubclass(FermatmfError, ValueError)
    assert not issubclass(NotInvertibleError, FermatmfError)
