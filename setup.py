"""Packaging metadata: the one place the distribution is declared.

The package lives under ``src/`` and needs only ``numpy`` at run time.
``scipy`` is needed only for Bayesian-optimisation tuning
(``repro.ml.bayesopt``), so it is the ``tune`` extra::

    pip install -e .                    # serving, training, evaluation
    pip install -e ".[tune]"            # plus hyper-parameter tuning

``pip install -e .`` requires the ``wheel`` package to build an editable
wheel (PEP 660); on offline machines without ``wheel`` installed,
``python setup.py develop --no-deps`` provides the same editable install
through the legacy path.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'Red is Sus': automated identification of "
        "low-quality service availability claims in the US National "
        "Broadband Map"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"tune": ["scipy"]},
)
