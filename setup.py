"""Setup shim.

The environment this project targets is offline and has no ``wheel``
package, so PEP-660 editable installs are unavailable; shipping a
``setup.py`` (and no pyproject.toml) lets ``pip install -e .`` fall
back to the legacy develop install.
All metadata lives in setup.cfg.
"""

from setuptools import setup

setup()
