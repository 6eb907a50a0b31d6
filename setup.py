"""Build script: compiles the optional C kernel ``src/wellcovered/_mis_core.c``.

The package works without the extension (a pure-Python mirror of the kernel
is selected at import time), so a failed compile is not fatal.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("wellcovered._mis_core", ["src/wellcovered/_mis_core.c"], optional=True)
    ]
)
