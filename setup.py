"""Setup script.

Installs the ``repro`` package from ``src/``; ``pip install -e .
--no-use-pep517`` works on offline machines that lack the ``wheel``
package required by PEP 660 editable installs.  NumPy is the only
runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
