"""Package metadata for the ``repro`` library under ``src/``.

``pip install -e .`` installs it; on offline hosts without the
``wheel`` package pip falls back to ``setup.py develop``
(``--no-use-pep517``)."""

import pathlib

from setuptools import find_packages, setup

VERSION: dict = {}
exec((pathlib.Path(__file__).parent / "src/repro/_version.py").read_text(), VERSION)

setup(
    name="repro",
    version=VERSION["__version__"],
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
