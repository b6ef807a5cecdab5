"""Setuptools entry point: the package metadata and ``pip install -e .``.

The library is pure Python with no third-party runtime dependency.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DBLAB/LB-style multi-level DSL-stack query compiler "
        "(reproduction of 'How to Architect a Query Compiler', SIGMOD 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={
        "test": ["pytest", "pytest-benchmark", "pytest-timeout", "hypothesis"],
    },
)
