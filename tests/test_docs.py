"""The documentation runs as written: the README quick tour executes, and
the docstring examples of every fcrystals module pass doctest."""

import doctest
import importlib
import os
import pkgutil
import re

import pytest

import fcrystals

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
MODULES = sorted(info.name for info in pkgutil.iter_modules(fcrystals.__path__, "fcrystals."))


def test_readme_quick_tour_runs():
    with open(README, encoding="utf-8") as fh:
        tour = fh.read().split("## Quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md quick tour", "exec"), namespace)
    assert namespace["pairing"].ok


@pytest.mark.parametrize("name", ["fcrystals"] + MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
