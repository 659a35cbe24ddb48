"""The :class:`AnalysisBackend` interface and the analysis-backend registry.

Mirror of :mod:`repro.sim.backend` for the *analytical* side of the repo: a
backend owns one way of bounding worst-case traversal times -- nothing else.
The bound mathematics stay in :mod:`repro.core.wctt_regular`,
:mod:`repro.core.wctt_weighted` and :mod:`repro.analysis.flowaware`; a
backend adapts one of them to a small, uniform surface (``supports``,
``analysis``, ``wctt_packet``, ``wctt_message``, ``wctt_map``,
``wctt_summary``), so competing analyses can be swept side by side over the
same design points and cross-checked against each other and against
simulation.  The closed-form grids of :mod:`repro.analysis.vector` are not
a backend: they compute the ``regular``/``weighted`` bounds bit for bit
(see :func:`make_analysis_backend`).

Registered backends:

``regular``
    The paper's regular-mesh bound (back-pressure-aware merging recursion,
    all legal inputs contend).  Sound for round-robin arbitration only --
    it refuses WaW configurations, where another input may be granted more
    than once between two grants to ours.
``weighted``
    The paper's WaW+WaP closed-form bound (one weighted arbitration round
    per hop).  Requires a WaW+WaP configuration.
``holistic``
    Flow-set-aware per-router busy-period iteration
    (:class:`~repro.analysis.flowaware.HolisticAnalysis`).
``trajectory``
    Flow-set-aware path-following accumulation
    (:class:`~repro.analysis.flowaware.TrajectoryAnalysis`).

Every backend additionally exposes ``validation_analysis`` /
``validation_bound``: the *burst-safe* variant of its bound, sound even
against the non-conforming adversarial traffic the simulator-based
validation machinery injects.  For the flow-aware analyses that is the
analysis itself; the paper's weighted bound switches to unregulated
contenders with all-to-one weights.  The one soundness check,
:func:`repro.analysis.validation.check_bounds`, calls these variants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type, Union

from ..core.config import NoCConfig
from ..core.flows import FlowSet
from ..core.weights import WeightTable
from ..core.wctt import WCTTSummary
from ..core.wctt import wctt_map as _scalar_wctt_map
from ..core.wctt import wctt_summary as _scalar_wctt_summary
from ..core.wctt_regular import RegularMeshWCTTAnalysis
from ..core.wctt_weighted import WaWWaPWCTTAnalysis
from ..geometry import Coord
from .flowaware import FlowAwareWCTTAnalysis, HolisticAnalysis, TrajectoryAnalysis

__all__ = [
    "AnalysisBackend",
    "available_analysis_backends",
    "make_analysis_backend",
    "normalize_analysis_backend_name",
    "register_analysis_backend",
]


class AnalysisBackend:
    """Interface of one way of computing WCTT bounds.

    Backends are stateless: every call receives the :class:`NoCConfig` it
    applies to, so one backend instance can serve any number of concurrent
    design points (internal caching lives in the analysis objects a backend
    hands out, never in the backend itself).
    """

    #: Registry name of the backend (overridden by every implementation).
    name = "abstract"
    #: One-line description shown by ``repro-experiments list`` and docs.
    description = ""

    # ------------------------------------------------------------------
    # Applicability
    # ------------------------------------------------------------------
    def supports(self, config: NoCConfig) -> Optional[str]:
        """``None`` when the backend's bound is sound for ``config``,
        otherwise a human-readable reason it is not."""
        return None

    def require(self, config: NoCConfig) -> None:
        """Raise ``ValueError`` (with the reason) on an unsupported config."""
        reason = self.supports(config)
        if reason is not None:
            raise ValueError(
                f"analysis backend {self.name!r} does not apply to "
                f"{config.describe()}: {reason}"
            )

    # ------------------------------------------------------------------
    # Analysis construction
    # ------------------------------------------------------------------
    def analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ):
        """Build the underlying analysis object for ``config``.

        ``destination`` hints the traffic pattern (all nodes towards that
        node, default: the memory controller) for flow-aware backends;
        traffic-agnostic backends ignore it.  The returned object satisfies
        the :class:`repro.core.wctt.WCTTAnalysis` protocol.
        """
        raise NotImplementedError

    def validation_analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ):
        """The burst-safe analysis variant used for soundness validation.

        Must bound latencies even under non-conforming (bursty) interfering
        traffic.  Defaults to :meth:`analysis`; backends whose headline
        bound assumes regulated contenders override this.
        """
        return self.analysis(
            config, destination=destination, flow_set=flow_set, weight_table=weight_table
        )

    # ------------------------------------------------------------------
    # Uniform bound surface
    # ------------------------------------------------------------------
    def wctt_packet(
        self,
        config: NoCConfig,
        source: Coord,
        destination: Coord,
        *,
        packet_flits: Optional[int] = None,
    ) -> int:
        self.require(config)
        return self.analysis(config, destination=destination).wctt_packet(
            source, destination, packet_flits=packet_flits
        )

    def wctt_message(
        self,
        config: NoCConfig,
        source: Coord,
        destination: Coord,
        *,
        payload_flits: int,
    ) -> int:
        self.require(config)
        return self.analysis(config, destination=destination).wctt_message(
            source, destination, payload_flits=payload_flits
        )

    def wctt_map(
        self, config: NoCConfig, destination: Coord, *, packet_flits: int = 1
    ) -> Dict[Coord, int]:
        """Per-source packet bound towards ``destination`` (UBD-table shape)."""
        self.require(config)
        analysis = self.analysis(config, destination=destination)
        return _scalar_wctt_map(analysis, destination, packet_flits=packet_flits)

    def wctt_summary(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        packet_flits: int = 1,
    ) -> WCTTSummary:
        """Max/mean/min bound over all-to-one traffic towards ``destination``
        (default: the memory controller) -- one Table II row."""
        self.require(config)
        dest = destination if destination is not None else config.memory_controller
        analysis = self.analysis(config, destination=dest)
        flows = FlowSet.all_to_one(config.mesh, dest)
        return _scalar_wctt_summary(analysis, flows, packet_flits=packet_flits)

    def validation_bound(
        self,
        config: NoCConfig,
        source: Coord,
        destination: Coord,
        *,
        packet_flits: Optional[int] = None,
        weight_table: Optional[WeightTable] = None,
    ) -> int:
        """Burst-safe packet bound for the simulator-based soundness check."""
        self.require(config)
        analysis = self.validation_analysis(
            config, destination=destination, weight_table=weight_table
        )
        return analysis.wctt_packet(source, destination, packet_flits=packet_flits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: name -> backend class.  Aliases map long names onto the canonical ones.
_REGISTRY: Dict[str, Type[AnalysisBackend]] = {}
_ALIASES: Dict[str, str] = {
    "regular-mesh": "regular",
    "waw_wap": "weighted",
    "waw-wap": "weighted",
}
#: Backends are stateless, so one instance per class suffices.
_INSTANCES: Dict[str, AnalysisBackend] = {}


def register_analysis_backend(cls: Type[AnalysisBackend]) -> Type[AnalysisBackend]:
    """Class decorator registering an analysis backend under its ``name``."""
    name = cls.name
    if not isinstance(name, str) or not name or name == "abstract":
        raise ValueError(f"backend class {cls.__name__} needs a concrete name")
    _REGISTRY[name] = cls
    return cls


def available_analysis_backends() -> List[str]:
    """The canonical analysis-backend names, sorted."""
    return sorted(_REGISTRY)


def normalize_analysis_backend_name(name: str) -> str:
    """Resolve aliases and validate ``name`` against the registry."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _REGISTRY:
        known = ", ".join(available_analysis_backends())
        raise ValueError(
            f"unknown analysis backend {name!r}; known backends: {known}"
        )
    return canonical


def make_analysis_backend(
    spec: Union[str, AnalysisBackend, None],
) -> AnalysisBackend:
    """Resolve a backend name (or pass an instance through) to a backend.

    ``None`` resolves to the paper's analysis pair: ``weighted`` bounds for
    WaW+WaP design points, ``regular`` bounds for everything else.  Because
    that default is config-dependent, ``None`` resolves to the dispatching
    :class:`PaperAnalysisBackend` rather than a fixed registry entry.  It is
    the one place that picks the paper's bound for a design point.

    No name selects the closed-form grids of :mod:`repro.analysis.vector`:
    ``scenario_wctt`` takes them on its own wherever
    :func:`~repro.analysis.vector.vector_supported` allows.
    """
    if spec is None:
        return _paper_backend()
    if isinstance(spec, AnalysisBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"analysis backend must be a name or an AnalysisBackend, got {spec!r}"
        )
    canonical = normalize_analysis_backend_name(spec)
    instance = _INSTANCES.get(canonical)
    if instance is None:
        instance = _INSTANCES.setdefault(canonical, _REGISTRY[canonical]())
    return instance


# ----------------------------------------------------------------------
# The paper's analyses
# ----------------------------------------------------------------------
@register_analysis_backend
class RegularAnalysisBackend(AnalysisBackend):
    """The paper's regular-mesh bound (Section II.A reference analysis)."""

    name = "regular"
    description = "paper regular-mesh bound: all legal inputs contend, merging recursion"

    def supports(self, config: NoCConfig) -> Optional[str]:
        if config.is_waw:
            return (
                "the regular-mesh bound assumes round-robin arbitration "
                "(at most one grant to each other input between two grants "
                "to ours); weighted arbitration breaks that premise"
            )
        return None

    def analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ) -> RegularMeshWCTTAnalysis:
        self.require(config)
        contender = config.min_packet_flits if config.is_wap else None
        return RegularMeshWCTTAnalysis(config, contender_packet_flits=contender)


@register_analysis_backend
class WeightedAnalysisBackend(AnalysisBackend):
    """The paper's WaW+WaP closed-form bound (Section III)."""

    name = "weighted"
    description = "paper WaW+WaP bound: one weighted arbitration round per hop"

    def supports(self, config: NoCConfig) -> Optional[str]:
        if not config.is_waw_wap:
            return "the WaW+WaP bound needs weighted arbitration AND min-size packetization"
        return None

    def analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ) -> WaWWaPWCTTAnalysis:
        self.require(config)
        return WaWWaPWCTTAnalysis(config, weight_table)

    def validation_analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ) -> WaWWaPWCTTAnalysis:
        # Burst-safe variant: unregulated contenders (own-buffer backlog
        # charged) with weights matching the validated all-to-one traffic --
        # the analysis repro.analysis.validation has always checked.
        self.require(config)
        if weight_table is None:
            dest = destination if destination is not None else config.memory_controller
            weight_table = WeightTable.from_flow_set(
                FlowSet.all_to_one(config.mesh, dest)
            )
        return WaWWaPWCTTAnalysis(config, weight_table, regulated_contenders=False)


# ----------------------------------------------------------------------
# Flow-aware competing analyses
# ----------------------------------------------------------------------
class _FlowAwareBackend(AnalysisBackend):
    """Shared adapter for the holistic/trajectory analyses."""

    _analysis_cls: Type[FlowAwareWCTTAnalysis] = FlowAwareWCTTAnalysis

    def analysis(
        self,
        config: NoCConfig,
        *,
        destination: Optional[Coord] = None,
        flow_set: Optional[FlowSet] = None,
        weight_table: Optional[WeightTable] = None,
    ) -> FlowAwareWCTTAnalysis:
        if flow_set is None:
            dest = destination if destination is not None else config.memory_controller
            flow_set = FlowSet.all_to_one(config.mesh, dest)
        return self._analysis_cls(config, flow_set, weight_table=weight_table)


@register_analysis_backend
class HolisticAnalysisBackend(_FlowAwareBackend):
    """Flow-aware per-router busy-period bound."""

    name = "holistic"
    description = "flow-aware per-router busy-period iteration (active inputs only)"
    _analysis_cls = HolisticAnalysis


@register_analysis_backend
class TrajectoryAnalysisBackend(_FlowAwareBackend):
    """Flow-aware path-following accumulation bound."""

    name = "trajectory"
    description = "flow-aware path-following accumulation (one service per crossing flow)"
    _analysis_cls = TrajectoryAnalysis


class PaperAnalysisBackend(AnalysisBackend):
    """Config-dispatching default: ``weighted`` on WaW+WaP, else ``regular``.

    Not registered (its name would shadow neither constituent); it backs
    ``make_analysis_backend(None)`` so "no backend selected" keeps meaning
    "the paper's analysis for this design point".
    """

    name = "paper"
    description = "paper default: weighted bound on WaW+WaP designs, regular otherwise"

    def _delegate(self, config: NoCConfig) -> AnalysisBackend:
        return make_analysis_backend("weighted" if config.is_waw_wap else "regular")

    def supports(self, config: NoCConfig) -> Optional[str]:
        return self._delegate(config).supports(config)

    def analysis(self, config: NoCConfig, **kwargs):
        return self._delegate(config).analysis(config, **kwargs)

    def validation_analysis(self, config: NoCConfig, **kwargs):
        return self._delegate(config).validation_analysis(config, **kwargs)


_PAPER_BACKEND: Optional[PaperAnalysisBackend] = None


def _paper_backend() -> PaperAnalysisBackend:
    global _PAPER_BACKEND
    if _PAPER_BACKEND is None:
        _PAPER_BACKEND = PaperAnalysisBackend()
    return _PAPER_BACKEND
