"""Packaging for the SODA reproduction (``repro``, sources under ``src/``).

A classic ``setup.py`` holding all project metadata: it needs no
``wheel`` package to build metadata, so ``pip install -e .`` works
offline through the legacy ``setup.py develop`` path, and
``python setup.py --name --version`` reports the real name and version.
Keep ``version`` in step with ``repro.__version__``.
"""

from setuptools import find_packages, setup

setup(
    name="soda-repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
)
