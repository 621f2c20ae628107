import os
import subprocess
import sys
from pathlib import Path

import pytest

import primecover


def test_every_exported_name_resolves_once():
    names = primecover.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(primecover, name)]
    assert missing == []


def _fresh(code: str, *flags: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter, started with
    ``flags``, that imports this ``primecover``."""
    src = str(Path(primecover.__file__).resolve().parent.parent)
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["primecover", "primecover.cli"])
def test_import_loads_neither_dataclasses_nor_the_oracle(module):
    # the names a bare interpreter has already loaded do not count; -S
    # keeps site (and the .pth hooks it runs) from loading typing first
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'inspect', 'typing', 'primecover.oracle'}))\n"
    )
    assert _fresh(code, "-S") == "[]"


def test_star_import_binds_every_exported_name():
    code = (
        "import primecover\n"
        "names = {}\n"
        "exec('from primecover import *', names)\n"
        "print([n for n in primecover.__all__ if names.get(n) is not getattr(primecover, n)])\n"
    )
    assert _fresh(code) == "[]"


def test_first_use_of_an_oracle_name_loads_the_oracle():
    code = (
        "import sys, primecover\n"
        "print('primecover.oracle' in sys.modules)\n"
        "equivalent = primecover.equivalent\n"
        "print('primecover.oracle' in sys.modules)\n"
        "print(equivalent is sys.modules['primecover.oracle'].equivalent)\n"
    )
    assert _fresh(code).split() == ["False", "True", "True"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        primecover.no_such_name
    assert not hasattr(primecover, "no_such_name")
