"""Build script: compiles the optional C BDD kernel.

The package works without the extension (pure-Python kernel fallback), so a
failed compilation only prints a warning instead of aborting the install.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - no usable toolchain
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - compiler error
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(f"warning: skipping compiled kernel ({exc}); "
              "falling back to the pure-Python kernel", file=sys.stderr)


setup(
    ext_modules=[Extension("basinscope.dd._kernel_c",
                           ["src/basinscope/dd/_kernel_c.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
