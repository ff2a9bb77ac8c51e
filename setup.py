"""Legacy setup shim.

Kept so ``pip install -e .`` works in offline environments whose setuptools
predates PEP 660 editable wheels; all metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0"],
)
