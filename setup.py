"""Packaging for the PPA reproduction.

``pip install -e .`` works on any normal machine.  This machine has no
network access and no ``wheel`` distribution, so PEP 660 editable wheels
cannot be built here; the legacy editable path works instead:

    python setup.py develop        # then: pyenv rehash (pyenv setups)

Installing (editable or not) provides the ``repro-experiments`` console
script, the CLI behind ``python -m repro.experiments`` (paper figures plus
the ``scenario``/``grid`` subcommands of the declarative scenario API).
"""

from pathlib import Path

from setuptools import find_packages, setup

_ROOT = Path(__file__).resolve().parent
_README = _ROOT / "README.md"

setup(
    name="repro-ppa",
    version="1.1.0",
    description=(
        "Reproduction of 'Tolerating Correlated Failures in Massively "
        "Parallel Stream Processing Engines' (ICDE 2016): Output Fidelity, "
        "PPA replication planners, and a deterministic simulated MPSPE "
        "behind a declarative scenario API."
    ),
    long_description=_README.read_text(encoding="utf-8") if _README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Distributed Computing",
    ],
)
