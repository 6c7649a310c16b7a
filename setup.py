"""Setuptools project metadata.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  Being a plain ``setup.py``, it also lets the package be
installed editable (``pip install -e . --no-use-pep517``) in offline
environments that lack the ``wheel`` package required by PEP 660 editable
installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'Generating Configurable Hardware from Parallel Patterns'"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
