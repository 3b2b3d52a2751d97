import pathlib
import warnings

import qlattice

SRC = pathlib.Path(qlattice.__file__).parent


def test_modules_compile_without_warnings():
    # invalid escape sequences warn on 3.11 and are SyntaxWarnings on 3.12
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")
