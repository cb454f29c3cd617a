"""Setup shim for environments without the `wheel` package.

`pip install -e .` needs bdist_wheel; on offline machines without the wheel
package, `python setup.py develop` provides the same editable install using
only setuptools. All metadata lives in pyproject.toml.

The optional native set-flow tier (src/repro/kernels/_native.c) is
compiled here when a C toolchain is present, and skipped — never failed —
when it is not: `pip install -e .` on a compiler-less host yields a
pure-python install with the native tier off (every caller degrades to
the interpreted set-flow loop, see DESIGN.md §17).
"""

import sys
from pathlib import Path

from setuptools import setup
from setuptools.command.build_py import build_py


def _try_build_native(target_dir):
    """Compile the native library into target_dir; never raises."""
    try:
        sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
        from repro.kernels.native import build_native, source_digest

        target = Path(target_dir) / f"_native_cse-{source_digest()}.so"
        built = build_native(target)
        print(f"built native set-flow library: {built}")
    except Exception as exc:  # noqa: BLE001 - any failure = pure-python
        print(f"native set-flow library skipped ({exc}); "
              "pure-python install, native tier off")


class build_py_with_native(build_py):
    """build_py + a tolerant compile of the optional native library."""

    def run(self):
        super().run()
        if self.build_lib:
            kernels = Path(self.build_lib) / "repro" / "kernels"
            if kernels.is_dir():
                _try_build_native(kernels)


setup(cmdclass={"build_py": build_py_with_native})
