"""Sampling policies as one frozen value object.

:class:`SamplingSpec` names a request-sampling policy plus its knobs, the
same way :class:`repro.pipeline.BackendSpec` names a correlation driver.
Three policies cover the overhead-control repertoire:

``uniform``
    Head-based rate sampling: each request is admitted iff the hash
    position of its causal root falls below ``rate``.  Deterministic and
    backend-independent by construction; admitted subsets are *nested*
    (everything sampled at rate 0.1 is also sampled at rate 0.5), which
    makes rate sweeps comparable point to point.
``budget``
    A fixed admission budget of ``budget_per_second`` requests per
    second of trace time.  Decided in root-arrival order; the decision
    set is frozen by a pre-pass over the trace
    (:func:`~repro.sampling.sampler.precompute_decisions`) so every
    backend -- including the sharded driver, whose shards each see only
    part of the traffic -- admits the identical subset.
``adaptive``
    A feedback loop (:class:`AdaptiveController`): the admission rate is
    steered at a fixed candidate cadence so the engine's open-CAG count
    tracks ``target_open_cags``.  Because the controller reacts to the
    *engine's* state, its rate trajectory is a property of the driver:
    batch and streaming (eviction disabled) tick identically and stay
    equivalent; the sharded driver runs one engine per shard and
    rejects the policy outright.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: The sampling policy kinds, in documentation order.
SAMPLING_KINDS = ("uniform", "budget", "adaptive")


@dataclass(frozen=True)
class AdaptiveController:
    """Multiplicative feedback steering the admission rate to a budget.

    Every ``interval`` correlated candidates the sampler observes the
    engine's open-CAG count and updates the rate::

        rate <- clamp(rate * (target / observed) ** gain, min_rate, max_rate)

    ``gain`` damps the correction (1.0 = jump straight to the
    proportional estimate, small values = smooth trailing).  The
    controller itself is a frozen value; the mutable rate lives in the
    :class:`~repro.sampling.sampler.RequestSampler`.
    """

    target_open_cags: int
    gain: float = 0.5
    min_rate: float = 0.01
    max_rate: float = 1.0
    #: candidates between observations (aligned across drivers so batch
    #: and streaming tick on the identical candidate sequence)
    interval: int = 256

    def __post_init__(self) -> None:
        if self.target_open_cags <= 0:
            raise ValueError(
                f"target_open_cags must be positive, got {self.target_open_cags}"
            )
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must be in (0, 1]")
        if not 0.0 < self.min_rate <= self.max_rate <= 1.0:
            raise ValueError("need 0 < min_rate <= max_rate <= 1")
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    def update(self, observed_open_cags: int, rate: float) -> float:
        """One controller step: the new admission rate."""
        observed = max(observed_open_cags, 1)
        proposed = rate * (self.target_open_cags / observed) ** self.gain
        return min(self.max_rate, max(self.min_rate, proposed))


@dataclass(frozen=True)
class SamplingSpec:
    """A sampling policy plus its knobs, as one comparable value.

    Frozen (like :class:`~repro.pipeline.BackendSpec`) so specs can key
    caches, travel across process boundaries to sharded workers, and
    appear in reprs and reports.  Use the classmethod constructors.
    """

    kind: str = "uniform"
    #: uniform admission probability / adaptive initial rate, in (0, 1]
    rate: float = 1.0
    #: budget policy: admitted requests per second of trace time
    budget_per_second: Optional[int] = None
    #: adaptive policy: the feedback loop and its knobs
    controller: Optional[AdaptiveController] = None
    #: hash salt: different salts sample different (equally deterministic)
    #: subsets, e.g. to rotate coverage across deployments
    salt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SAMPLING_KINDS:
            raise ValueError(
                f"unknown sampling kind {self.kind!r}; valid kinds: "
                f"{', '.join(SAMPLING_KINDS)}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate:g}")
        if self.kind == "budget":
            if self.budget_per_second is None or self.budget_per_second <= 0:
                raise ValueError(
                    f"budget_per_second must be positive, got {self.budget_per_second}"
                )
        elif self.budget_per_second is not None:
            raise ValueError("budget_per_second only applies to the budget policy")
        if self.kind == "adaptive":
            if self.controller is None:
                raise ValueError("adaptive policy needs a controller")
        elif self.controller is not None:
            raise ValueError("controller only applies to the adaptive policy")

    # -- constructors --------------------------------------------------------

    @classmethod
    def uniform(cls, rate: float, salt: int = 0) -> "SamplingSpec":
        """Head-based rate sampling: admit each request with probability
        ``rate``, decided by the root's hash position."""
        return cls(kind="uniform", rate=rate, salt=salt)

    @classmethod
    def budget(cls, per_second: int, salt: int = 0) -> "SamplingSpec":
        """Fixed admission budget: at most ``per_second`` requests per
        second of trace time, first-come in root order."""
        return cls(kind="budget", budget_per_second=per_second, salt=salt)

    @classmethod
    def adaptive(
        cls,
        target_open_cags: int,
        initial_rate: float = 1.0,
        gain: float = 0.5,
        min_rate: float = 0.01,
        max_rate: float = 1.0,
        interval: int = 256,
        salt: int = 0,
    ) -> "SamplingSpec":
        """Feedback sampling: steer the rate to hold the engine's
        open-CAG count near ``target_open_cags``."""
        controller = AdaptiveController(
            target_open_cags=target_open_cags,
            gain=gain,
            min_rate=min_rate,
            max_rate=max_rate,
            interval=interval,
        )
        return cls(
            kind="adaptive", rate=initial_rate, controller=controller, salt=salt
        )

    def with_overrides(self, **kwargs) -> "SamplingSpec":
        """A copy of this spec with some fields replaced."""
        return replace(self, **kwargs)

    # -- derived properties --------------------------------------------------

    @property
    def needs_prepass(self) -> bool:
        """Whether decisions must be frozen by a pre-pass over the trace
        (the budget policy: its decisions depend on root arrival order,
        which only the whole trace defines backend-independently)."""
        return self.kind == "budget"

    def freeze(self, activities):
        """The frozen decision set for one trace, or ``None`` when the
        policy decides purely per root.

        This is the one pre-pass hook every driver calls (batch and
        streaming before their single engine, the sharded driver before
        partitioning), so a future policy that also needs whole-trace
        context changes behaviour everywhere at once.
        """
        if not self.needs_prepass:
            return None
        from .sampler import precompute_decisions

        return precompute_decisions(activities, self)

    def make_sampler(self, decisions=None):
        """Instantiate the per-engine decision object.

        ``decisions`` is an optional frozen decision set from
        :func:`~repro.sampling.sampler.precompute_decisions`; without it
        the budget policy falls back to counting roots in engine
        delivery order (exact for a single sequential engine fed in
        trace order, undefined across shards).
        """
        from .sampler import RequestSampler

        return RequestSampler(self, decisions=decisions)

    def describe(self) -> str:
        """One-line human description (CLI banners, reports)."""
        if self.kind == "uniform":
            detail = f"rate={self.rate:g}"
        elif self.kind == "budget":
            detail = f"budget={self.budget_per_second}/s"
        else:
            controller = self.controller
            detail = (
                f"target_open_cags={controller.target_open_cags}, "
                f"rate0={self.rate:g}, gain={controller.gain:g}"
            )
        if self.salt:
            detail += f", salt={self.salt}"
        return f"{self.kind} ({detail})"
