"""The package namespace: public names load their submodules on first access."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import diatomic_dp


def test_every_public_name_is_its_submodules_object():
    for name, module in diatomic_dp._EXPORTS.items():
        owner = importlib.import_module(f"diatomic_dp.{module}")
        assert getattr(diatomic_dp, name) is getattr(owner, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from diatomic_dp import *", namespace)
    assert len(diatomic_dp.__all__) == 51
    assert {name: namespace[name] for name in diatomic_dp.__all__} == {
        name: getattr(diatomic_dp, name) for name in diatomic_dp.__all__
    }


def test_submodules_import_by_name():
    from diatomic_dp import corpus, spe

    assert corpus is importlib.import_module("diatomic_dp.corpus")
    assert spe is importlib.import_module("diatomic_dp.diatomic").spe


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'diatomic_dp' has no attribute 'no_such_name'"):
        diatomic_dp.no_such_name


def test_import_alone_loads_no_numpy():
    src = pathlib.Path(diatomic_dp.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, diatomic_dp\n"
        "assert set(diatomic_dp.__all__) <= set(dir(diatomic_dp))\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith('diatomic_dp')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["diatomic_dp"]
