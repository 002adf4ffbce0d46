"""The build configuration ships the package and its stored references."""

import pathlib

import pytest
from setuptools.config.expand import find_packages

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def setuptools_config() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["setuptools"]


def test_discovery_finds_the_package():
    find = setuptools_config()["packages"]["find"]
    packages = find_packages(**find, root_dir=str(ROOT))
    assert {"repro", "repro.hardware"} <= set(packages)


def test_package_data_ships_every_stored_file():
    config = setuptools_config()
    package = ROOT / config["package-dir"][""] / "repro"
    shipped = {path for pattern in config["package-data"]["repro"]
               for path in package.glob(pattern)}
    stored = set((package / "stored").rglob("*.npz"))
    assert stored and shipped == stored
