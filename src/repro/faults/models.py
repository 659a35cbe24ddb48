"""Per-link fault models and the HARQ-style reliability configuration.

The paper's WCTT analyses assume perfectly reliable links.  This module
provides the probabilistic counterpart: *fault model specifications* that
describe, per link, how flits get corrupted or lost in flight, plus the
:class:`ReliabilityConfig` governing the NIC-level ACK/NACK retransmission
protocol that recovers from those faults (HARQ-style, after the
retransmission-feedback setting of arXiv:1601.04131).

Two fault models are provided:

* :class:`IndependentFaults` -- every flit traversal of every link is an
  independent Bernoulli trial with configurable corruption and loss
  probabilities (a memoryless binary-symmetric-channel-like link);
* :class:`GilbertElliottFaults` -- the classic two-state burst-error model:
  each link is a Markov chain alternating between a *good* and a *bad*
  state with per-state corruption/loss probabilities, so faults cluster in
  bursts the way deep-submicron crosstalk and voltage droops do.

A specification is an immutable, hashable dataclass (so it can live inside
:class:`~repro.core.config.NoCConfig`, travel through the batch engine's
config hash and pickle across worker processes).  The mutable runtime state
-- one seeded RNG stream *per link* -- is created per network by
:meth:`FaultModel.instantiate`.

Determinism contract: fault decisions depend only on ``(seed, link,
n-th traversal of that link)``.  Per-link RNG streams make the decisions
independent of the order in which the simulator happens to visit routers
within a cycle, which is what keeps the cycle-accurate and event-driven
backends bit-identical under faults (enforced by ``tests/test_differential.py``).

Fault semantics at the flit level:

* a **corrupted** flit traverses the link and keeps occupying buffers and
  credits, but its payload is damaged; the destination NIC detects this
  (CRC) when the packet's tail arrives and discards the whole packet;
* a **lost** flit is an erasure: it still occupies its link slot (the
  conservative modelling choice -- wormhole flow control cannot reuse the
  slot of a dropped flit mid-packet), but the destination NIC never sees
  its payload.  A lost *tail* flit means the receiver cannot even detect
  the failed packet, leaving recovery to the sender's retransmit timer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Union

__all__ = [
    "CORRUPT",
    "LOST",
    "FaultModel",
    "GilbertElliottFaults",
    "IndependentFaults",
    "LinkFaultInjector",
    "MessageDeliveryError",
    "ReliabilityConfig",
    "make_fault_model",
]

#: Outcome tags of one link traversal (plain strings, cheap in the hot loop).
CORRUPT = "corrupt"
LOST = "lost"


class MessageDeliveryError(RuntimeError):
    """A message exhausted its retransmission budget and was abandoned.

    Raised by the sending NIC (and propagated out of the simulation run)
    instead of letting an undeliverable message hang the drain loop.  The
    message names the failing transfer -- source, destination, kind,
    sequence number, attempt count -- so the failure is diagnosable from
    the exception alone.
    """


@dataclass(frozen=True)
class ReliabilityConfig:
    """NIC-level HARQ retransmission parameters.

    ``ack_timeout`` is the base number of cycles the sender waits for an
    ACK before retransmitting; each further retry multiplies the wait by
    ``backoff`` (exponential backoff, saturating patience).  After
    ``max_retries`` unsuccessful retransmissions the sender gives up and
    raises :class:`MessageDeliveryError`.
    """

    ack_timeout: int = 256
    backoff: float = 2.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.ack_timeout < 1:
            raise ValueError("ack_timeout must be >= 1 cycle")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    @property
    def max_attempts(self) -> int:
        """Total transmission attempts: the original send plus the retries."""
        return self.max_retries + 1

    def retry_timeout(self, attempt: int) -> int:
        """ACK wait (cycles) armed for transmission attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are numbered from 1")
        return max(1, int(self.ack_timeout * self.backoff ** (attempt - 1)))

    def worst_case_wait(self) -> int:
        """Upper bound on the cycles a message may spend waiting on timers."""
        return sum(self.retry_timeout(a) for a in range(1, self.max_attempts + 1))

    def validate_drain_budget(self, max_cycles: int) -> None:
        """Reject drain budgets shorter than the retransmission window.

        A run whose ``max_cycles`` is smaller than the worst-case sum of
        retransmit timeouts would report a misleading
        ``SimulationStallError`` for a transfer the protocol was still
        legitimately retrying; this check (performed when a bounded run
        starts) turns that configuration mistake into an eager, descriptive
        ``ValueError``.
        """
        wait = self.worst_case_wait()
        if wait >= max_cycles:
            raise ValueError(
                f"retransmission window ({wait} cycles: ack_timeout="
                f"{self.ack_timeout}, backoff={self.backoff}, max_retries="
                f"{self.max_retries}) must be shorter than the drain timeout "
                f"({max_cycles} cycles); raise max_cycles or shrink the "
                "reliability timeouts"
            )


def _link_stream(seed: int, link: str) -> random.Random:
    """A deterministic, process-independent RNG stream for the link named ``link``.

    A link is named ``"x,y:port"`` after the router it leaves and the value
    of that router's output port.  The stream is derived through SHA-256
    rather than ``hash()`` so it does
    not depend on ``PYTHONHASHSEED`` and is identical across the batch
    engine's worker processes.
    """
    digest = hashlib.sha256(f"{seed}:{link}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class FaultModel:
    """Base class of the per-link fault model specifications.

    Concrete models add their probability parameters; the base carries the
    master ``seed`` (per-link streams are derived from it) and the
    :class:`ReliabilityConfig` of the recovery protocol that a faulty
    network needs.  A model whose every fault probability is zero is
    *null*: the network treats it exactly like no fault model at all (no
    injector, no HARQ machinery, bit-identical to the seed simulation).
    """

    seed: int = 1
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)

    #: Registry name of the model (overridden by every implementation).
    kind = "abstract"

    @property
    def is_null(self) -> bool:
        """True when this model can never fault a flit."""
        raise NotImplementedError

    def with_seed(self, seed: int) -> "FaultModel":
        """The same model with a different master seed (Monte-Carlo trials)."""
        return replace(self, seed=seed)

    def instantiate(self) -> "LinkFaultInjector":
        """Build the mutable per-network runtime state for this model."""
        return LinkFaultInjector(self)

    def _make_link_state(self, rng: random.Random):
        raise NotImplementedError

    def label_token(self) -> str:
        """Short token for scenario labels, e.g. ``faults-independent-s1``."""
        return f"faults-{self.kind}-s{self.seed}"


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")


@dataclass(frozen=True)
class IndependentFaults(FaultModel):
    """Memoryless per-link faults: every traversal is an independent trial."""

    corrupt_rate: float = 0.0
    loss_rate: float = 0.0

    kind = "independent"

    def __post_init__(self) -> None:
        _check_rate("corrupt_rate", self.corrupt_rate)
        _check_rate("loss_rate", self.loss_rate)
        if self.corrupt_rate + self.loss_rate > 1.0:
            raise ValueError("corrupt_rate + loss_rate cannot exceed 1")

    @property
    def is_null(self) -> bool:
        return self.corrupt_rate == 0.0 and self.loss_rate == 0.0

    def _make_link_state(self, rng: random.Random) -> "_IndependentLink":
        return _IndependentLink(rng, self.loss_rate, self.corrupt_rate)


class _IndependentLink:
    """Runtime state of one link under :class:`IndependentFaults`."""

    __slots__ = ("rng", "loss", "corrupt")

    def __init__(self, rng: random.Random, loss: float, corrupt: float):
        self.rng = rng
        self.loss = loss
        self.corrupt = corrupt

    def draw(self) -> Optional[str]:
        # One uniform draw per traversal, split into [loss | corrupt | clean].
        r = self.rng.random()
        if r < self.loss:
            return LOST
        if r < self.loss + self.corrupt:
            return CORRUPT
        return None


@dataclass(frozen=True)
class GilbertElliottFaults(FaultModel):
    """Two-state Markov (Gilbert-Elliott) burst faults, one chain per link.

    Every link starts in the *good* state.  On each flit traversal the
    current state's corruption/loss probabilities decide the flit's fate,
    then the chain transitions (``good_to_bad`` / ``bad_to_good``
    probabilities).  Transitions advance per *traversal* -- the discrete
    channel-use formulation -- so the model stays independent of how the
    backends walk the clock.
    """

    good_corrupt_rate: float = 0.0
    good_loss_rate: float = 0.0
    bad_corrupt_rate: float = 0.05
    bad_loss_rate: float = 0.05
    good_to_bad: float = 0.005
    bad_to_good: float = 0.1

    kind = "gilbert"

    def __post_init__(self) -> None:
        for name in (
            "good_corrupt_rate",
            "good_loss_rate",
            "bad_corrupt_rate",
            "bad_loss_rate",
            "good_to_bad",
            "bad_to_good",
        ):
            _check_rate(name, getattr(self, name))
        if self.good_corrupt_rate + self.good_loss_rate > 1.0:
            raise ValueError("good-state corrupt + loss rates cannot exceed 1")
        if self.bad_corrupt_rate + self.bad_loss_rate > 1.0:
            raise ValueError("bad-state corrupt + loss rates cannot exceed 1")

    @property
    def is_null(self) -> bool:
        if self.good_corrupt_rate or self.good_loss_rate:
            return False
        # The bad state is unreachable when good_to_bad is zero.
        if self.good_to_bad == 0.0:
            return True
        return not (self.bad_corrupt_rate or self.bad_loss_rate)

    def _make_link_state(self, rng: random.Random) -> "_GilbertElliottLink":
        return _GilbertElliottLink(self, rng)


class _GilbertElliottLink:
    """Runtime state of one link's two-state Markov chain."""

    __slots__ = ("spec", "rng", "bad")

    def __init__(self, spec: GilbertElliottFaults, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.bad = False

    def draw(self) -> Optional[str]:
        spec = self.spec
        if self.bad:
            loss, corrupt, flip = spec.bad_loss_rate, spec.bad_corrupt_rate, spec.bad_to_good
        else:
            loss, corrupt, flip = spec.good_loss_rate, spec.good_corrupt_rate, spec.good_to_bad
        outcome: Optional[str] = None
        r = self.rng.random()
        if r < loss:
            outcome = LOST
        elif r < loss + corrupt:
            outcome = CORRUPT
        if self.rng.random() < flip:
            self.bad = not self.bad
        return outcome


class LinkFaultInjector:
    """Mutable per-network runtime of a fault model: one RNG stream per link.

    The network calls :meth:`transmit` for every router-to-router link
    traversal, with the link's name (see :func:`_link_stream`; local
    NIC-router connections are treated as reliable on-die wiring).  The
    injector never removes flits from the stream -- it only marks them
    (``flit.corrupted`` / ``flit.lost`` and the owning packet's ``faulty``
    flag), leaving flow control untouched; the destination NIC turns the
    marks into discarded packets and NACKs.
    """

    def __init__(self, spec: FaultModel):
        self.spec = spec
        #: Runtime state of each link traversed so far, by link name.
        self._links: Dict[str, object] = {}
        self.transmitted_flits = 0
        self.corrupted_flits = 0
        self.lost_flits = 0

    def transmit(self, link: str, flit) -> None:
        """Decide the fate of one flit crossing the link named ``link``."""
        state = self._links.get(link)
        if state is None:
            state = self.spec._make_link_state(_link_stream(self.spec.seed, link))
            self._links[link] = state
        self.transmitted_flits += 1
        outcome = state.draw()
        if outcome is None:
            return
        flit.packet.faulty = True
        if outcome is LOST:
            flit.lost = True
            self.lost_flits += 1
        else:
            flit.corrupted = True
            self.corrupted_flits += 1

    def fault_counts(self) -> Dict[str, int]:
        """Aggregate counters (transmitted / corrupted / lost flits)."""
        return {
            "transmitted": self.transmitted_flits,
            "corrupted": self.corrupted_flits,
            "lost": self.lost_flits,
        }


#: Registered model kinds for :func:`make_fault_model`.
_MODEL_KINDS = {
    IndependentFaults.kind: IndependentFaults,
    GilbertElliottFaults.kind: GilbertElliottFaults,
}

#: Reliability keywords accepted at the top level of make_fault_model().
_RELIABILITY_KEYS = ("ack_timeout", "backoff", "max_retries")

ModelSpecLike = Union[None, str, FaultModel, Mapping[str, object]]


def make_fault_model(model: ModelSpecLike = None, **params) -> Optional[FaultModel]:
    """Build a :class:`FaultModel` from a kind name, mapping or instance.

    ``None`` passes through (no fault model); a :class:`FaultModel`
    instance passes through unchanged (extra ``params`` are rejected); a
    mapping spells out the full choice with a ``"kind"`` entry; a kind name
    (``"independent"`` or ``"gilbert"``) takes the model parameters as
    keywords.  The reliability knobs (``ack_timeout``, ``backoff``,
    ``max_retries``) may be given either flat or as a ready
    ``reliability=ReliabilityConfig(...)``.
    """
    if model is None:
        if params:
            raise ValueError("fault model parameters given without a model kind")
        return None
    if isinstance(model, FaultModel):
        if params:
            raise ValueError(
                "cannot combine a ready FaultModel instance with extra parameters"
            )
        return model
    if isinstance(model, Mapping):
        merged = dict(model)
        merged.update(params)
        kind = merged.pop("kind", None)
        if kind is None:
            raise ValueError("a fault model mapping needs a 'kind' entry")
        return make_fault_model(kind, **merged)
    if not isinstance(model, str):
        raise ValueError(
            f"fault model must be a kind name, mapping or FaultModel, got {model!r}"
        )
    cls = _MODEL_KINDS.get(model)
    if cls is None:
        known = ", ".join(sorted(_MODEL_KINDS))
        raise ValueError(f"unknown fault model kind {model!r}; known kinds: {known}")
    if "reliability" not in params:
        flat = {k: params.pop(k) for k in _RELIABILITY_KEYS if k in params}
        if flat:
            params["reliability"] = ReliabilityConfig(**flat)
    try:
        return cls(**params)
    except TypeError:
        known = ", ".join(
            sorted(f.name for f in cls.__dataclass_fields__.values())  # type: ignore[attr-defined]
        )
        raise ValueError(
            f"invalid parameter for fault model {model!r}; known parameters: {known}"
        ) from None
