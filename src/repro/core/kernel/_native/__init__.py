"""Loader for the compiled rank-kernel extension.

``load()`` imports the built ``_kernel`` extension, building it first
when it is absent and no earlier build of the same source failed (see
:mod:`.build`).  The selection policy -- who may build,
who must fall back -- lives in :mod:`repro.core.kernel`; this module
only knows how to produce the extension module object.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType

from .build import (  # noqa: F401  (re-exported for the kernel package)
    EXTENSION_PATH,
    KernelBuildError,
    SOURCE_PATH,
    build,
    is_built,
)

_MODULE_NAME = __name__ + "._kernel"


def load() -> ModuleType:
    """Import the compiled kernel, building it first when needed.

    Raises :class:`KernelBuildError` when the extension is absent and
    cannot be built, or when an earlier build already failed (an explicit
    ``python -m repro.core.kernel._native.build`` retries).
    """
    cached = sys.modules.get(_MODULE_NAME)
    if cached is not None:
        return cached
    if not is_built():
        build(retry_failed=False)
    spec = importlib.util.spec_from_file_location(_MODULE_NAME, EXTENSION_PATH)
    if spec is None or spec.loader is None:
        raise KernelBuildError(f"cannot load extension at {EXTENSION_PATH}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_MODULE_NAME] = module
    return module
