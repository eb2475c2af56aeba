"""Swappable rank-kernel: one dispatch seam, two backends.

The candidate-selection sweep is the hottest loop of the whole tracer --
every activity passes through it at least once.  This package provides
it in two interchangeable forms behind a single factory:

* :mod:`repro.core.kernel.reference` -- pure Python, the semantic
  definition.  The golden digest matrices are generated from this
  implementation, always.
* :mod:`repro.core.kernel._native` -- the same decision function as a
  hand-written CPython extension, compiled lazily with the system C
  compiler (the target container has cc but neither Cython nor mypyc).
  Proven byte-identical to the reference on the golden matrices and the
  fuzz harness (``tests/test_kernel.py``).

Both read the same plain lists, so the ranker keeps one column layout
whichever is active.  Selection is driven by ``REPRO_KERNEL``:

* ``auto`` (default) -- use the native kernel when its extension is
  already built, or when a toolchain is present and a quiet build
  succeeds; otherwise fall back to the reference kernel silently.
  ``python -m repro.core.kernel._native.build`` builds it loudly.
* ``python`` -- always the reference kernel.

The resolved choice is cached per requested mode; :func:`kernel_info`
exposes name + reason for provenance stamping (the store's ``runs``
row and ``BackendSpec.describe`` report it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from . import reference
from .reference import BLOCKED, DISCARD, EMPTY, RULE1, RULE2, STALL

__all__ = [
    "RULE1",
    "RULE2",
    "EMPTY",
    "DISCARD",
    "BLOCKED",
    "STALL",
    "KernelInfo",
    "kernel_info",
    "kernel_provenance",
]

#: Environment variable controlling kernel selection.
ENV_VAR = "REPRO_KERNEL"
_MODES = ("auto", "python")


@dataclass(frozen=True)
class KernelInfo:
    """The resolved kernel backend plus why it was chosen."""

    name: str  #: "python" | "native"
    requested: str  #: the REPRO_KERNEL mode that produced this choice
    reason: str  #: human-readable selection rationale
    make_selector: Callable  #: the backend's selector factory

    def provenance(self) -> Dict[str, str]:
        """The provenance columns stamped into BENCH rows and describe()."""
        return {
            "kernel": self.name,
            "kernel_requested": self.requested,
            "kernel_reason": self.reason,
        }


_cache: Dict[str, KernelInfo] = {}


def _resolve(requested: str) -> KernelInfo:
    if requested == "python":
        return KernelInfo(
            name="python",
            requested=requested,
            reason="REPRO_KERNEL=python pins the reference kernel",
            make_selector=reference.make_selector,
        )

    from . import _native

    # auto: prefer a built (or quietly buildable) extension, fall back
    # silently -- the documented no-toolchain behaviour.
    try:
        module = _native.load()
    except _native.KernelBuildError as error:
        return KernelInfo(
            name="python",
            requested=requested,
            reason=f"auto fallback to reference kernel ({error})",
            make_selector=reference.make_selector,
        )
    return KernelInfo(
        name="native",
        requested=requested,
        reason="auto selected the compiled kernel (extension available)",
        make_selector=module.make_selector,
    )


def kernel_info(requested: Optional[str] = None) -> KernelInfo:
    """Resolve (and cache) the kernel for ``requested`` mode.

    ``None`` reads :data:`ENV_VAR` (default ``auto``).  Unknown modes
    raise ``ValueError`` -- a typo must not silently change semantics.
    """
    if requested is None:
        requested = os.environ.get(ENV_VAR, "auto") or "auto"
    if requested not in _MODES:
        raise ValueError(
            f"unknown {ENV_VAR} mode {requested!r}; expected one of {_MODES}"
        )
    cached = _cache.get(requested)
    if cached is None:
        cached = _resolve(requested)
        _cache[requested] = cached
    return cached


def kernel_provenance(requested: Optional[str] = None) -> Dict[str, str]:
    """Provenance columns of the kernel the current environment selects."""
    return kernel_info(requested).provenance()


def _reset_cache() -> None:
    """Drop resolution results (test hook: re-resolve after env changes)."""
    _cache.clear()
