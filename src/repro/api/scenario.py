"""Fluent, validated construction of NoC design points.

:class:`Scenario` replaces the scattered ``regular_mesh_config(...)`` /
``waw_wap_config(...)`` keyword soup with a chainable builder::

    from repro.api import Scenario

    config = Scenario.mesh(8).waw_wap().max_packet_flits(1).build()

Every step returns a *new* scenario (the builder is immutable), every setter
validates its argument eagerly and :meth:`Scenario.build` produces a regular
:class:`~repro.core.config.NoCConfig`, so the analytical models and the
simulator are unaffected by how a design point was described.

The network structure itself is a scenario axis: :meth:`Scenario.topology`
selects any registered topology (mesh, torus, ring, concentrated mesh) and
its routing strategy, so a whole structural design space sweeps through the
same analytical models and the same cycle-accurate simulator::

    torus = Scenario.mesh(8).topology("torus").waw_wap().build()
    cmesh = Scenario.mesh(4).topology("cmesh", concentration=4).build()

:func:`sweep` expands parameter grids into design-point lists::

    points = sweep(Scenario.mesh(4), design=("regular", "waw_wap"),
                   max_packet_flits=(1, 4, 8))
    shapes = sweep(Scenario.mesh(4), topology=("mesh", "torus"))

yielding the cartesian product in deterministic (row-major) order.
"""

from __future__ import annotations

import itertools
from dataclasses import fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.config import (
    ArbitrationPolicy,
    MessageConfig,
    NoCConfig,
    PacketizationPolicy,
    RouterTiming,
)
from ..faults.models import FaultModel, make_fault_model
from ..geometry import Coord, Mesh
from ..sim import normalize_backend_name
from ..topology import make_topology

__all__ = ["Scenario", "ScenarioError", "sweep", "sweep_jobs"]


class ScenarioError(ValueError):
    """A scenario was built with an invalid or inconsistent parameter."""


#: Design names accepted by :meth:`Scenario.design` and :func:`sweep`.
_DESIGNS: Dict[str, Tuple[ArbitrationPolicy, PacketizationPolicy]] = {
    "regular": (ArbitrationPolicy.ROUND_ROBIN, PacketizationPolicy.SINGLE_PACKET),
    "waw_wap": (ArbitrationPolicy.WEIGHTED_ROUND_ROBIN, PacketizationPolicy.MINIMUM_SIZE_PACKETS),
    "waw": (ArbitrationPolicy.WEIGHTED_ROUND_ROBIN, PacketizationPolicy.SINGLE_PACKET),
    "wap": (ArbitrationPolicy.ROUND_ROBIN, PacketizationPolicy.MINIMUM_SIZE_PACKETS),
}


class Scenario:
    """Immutable fluent builder for :class:`~repro.core.config.NoCConfig`.

    Start from :meth:`Scenario.mesh`, chain setters, finish with
    :meth:`build`.  The defaults match ``regular_mesh_config``: round-robin
    arbitration, single-packet messages, L=4, m=1, 4-flit buffers, memory
    controller at (0, 0).
    """

    __slots__ = ("_settings",)

    def __init__(self, settings: Optional[Mapping[str, Any]] = None) -> None:
        self._settings: Dict[str, Any] = dict(settings) if settings else {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    @classmethod
    def mesh(cls, width: int, height: Optional[int] = None) -> "Scenario":
        """A scenario on a ``width`` x ``height`` mesh (square by default)."""
        width = _positive_int("mesh width", width)
        height = width if height is None else _positive_int("mesh height", height)
        return cls({"mesh_width": width, "mesh_height": height, "design": "regular"})

    # ------------------------------------------------------------------
    # Design point selection
    # ------------------------------------------------------------------
    def design(self, name: str) -> "Scenario":
        """Select the design point by name: regular, waw_wap, waw or wap."""
        if name not in _DESIGNS:
            known = ", ".join(sorted(_DESIGNS))
            raise ScenarioError(f"unknown design {name!r}; known designs: {known}")
        return self._with(design=name)

    def regular(self) -> "Scenario":
        """The baseline wNoC: round-robin arbitration, single-packet messages."""
        return self.design("regular")

    def waw_wap(self) -> "Scenario":
        """The paper's proposal: weighted arbitration + minimum-size packets."""
        return self.design("waw_wap")

    def waw_only(self) -> "Scenario":
        """Ablation variant: weighted arbitration, single-packet messages."""
        return self.design("waw")

    def wap_only(self) -> "Scenario":
        """Ablation variant: round-robin arbitration, minimum-size packets."""
        return self.design("wap")

    # ------------------------------------------------------------------
    # Topology selection
    # ------------------------------------------------------------------
    def topology(
        self,
        kind: str,
        *,
        routing: str = "xy",
        concentration: Optional[int] = None,
    ) -> "Scenario":
        """Select the network structure and routing strategy.

        ``kind`` is a registered topology name (``mesh``, ``torus``,
        ``ring``, ``cmesh``); ``routing`` picks the dimension order (``xy``
        or ``yx``); ``concentration`` (terminals per router, >= 1) is only
        accepted for ``cmesh``.  A ring needs a single-row scenario
        (``Scenario.mesh(n, 1)``).  Every parameter is validated eagerly --
        by actually constructing the topology through
        :func:`repro.topology.make_topology`, the single source of truth --
        and structural inconsistencies surface as :class:`ScenarioError`.
        """
        try:
            make_topology(
                kind,
                self._settings["mesh_width"],
                self._settings["mesh_height"],
                routing=routing,
                concentration=concentration,
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        # Re-selecting the topology resets any cmesh-only leftovers, so a
        # sweep over the topology axis from a cmesh base stays consistent.
        merged = dict(self._settings)
        merged.pop("concentration", None)
        merged.update({"topology": kind, "routing": routing})
        if concentration is not None:
            merged["concentration"] = concentration
        return Scenario(merged)

    # ------------------------------------------------------------------
    # Simulation backend selection
    # ------------------------------------------------------------------
    def backend(self, name: str) -> "Scenario":
        """Select the simulation backend driving this design point's runs.

        ``"cycle"`` is the cycle-accurate reference (every component steps on
        every clock cycle); ``"event"`` is the event-driven fast backend that
        skips provably idle cycles and reproduces the cycle-accurate results
        exactly (``tests/test_differential.py`` enforces this).  The choice
        only affects simulation wall-clock time, never any analytical model
        or any simulated number.
        """
        try:
            canonical = normalize_backend_name(name)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        except TypeError:
            raise ScenarioError(f"backend must be a name string, got {name!r}") from None
        return self._with(backend=canonical)

    # ------------------------------------------------------------------
    # Analysis backend selection
    # ------------------------------------------------------------------
    def analysis(self, name: Optional[str]) -> "Scenario":
        """Select the analysis backend bounding this design point's WCTTs.

        ``name`` is a registered :mod:`repro.analysis` backend (``regular``,
        ``weighted``, ``holistic``, ``trajectory``); ``None`` removes the
        selection again, restoring the default -- the paper's analysis pair,
        dispatched on the design point.  No name selects the closed-form
        grids of :mod:`repro.analysis.vector`, which compute the paper's
        bounds bit for bit wherever they apply.  Unlike the simulation
        :meth:`backend`, the analysis choice *does* change numbers: backends
        are competing bounds of different tightness (each validated for
        soundness by ``tests/test_backend_soundness.py`` and the
        ``bound_comparison`` experiment).
        """
        if name is None:
            merged = dict(self._settings)
            merged.pop("analysis", None)
            return Scenario(merged)
        from ..analysis.backends import normalize_analysis_backend_name

        try:
            canonical = normalize_analysis_backend_name(name)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        except TypeError:
            raise ScenarioError(f"analysis must be a name string, got {name!r}") from None
        return self._with(analysis=canonical)

    # ------------------------------------------------------------------
    # Knobs
    # ------------------------------------------------------------------
    def max_packet_flits(self, flits: int) -> "Scenario":
        """Maximum packet length allowed in the network (the paper's L)."""
        return self._with(max_packet_flits=_positive_int("max_packet_flits", flits))

    def min_packet_flits(self, flits: int) -> "Scenario":
        """Minimum packet length (the paper's m; WaP slices to this size)."""
        return self._with(min_packet_flits=_positive_int("min_packet_flits", flits))

    def buffer_depth(self, flits: int) -> "Scenario":
        """Input buffer depth of every router port, in flits."""
        return self._with(buffer_depth=_positive_int("buffer_depth", flits))

    def memory_controller(self, x: int, y: int) -> "Scenario":
        """Place the memory controller (must lie inside the mesh)."""
        if x < 0 or y < 0:
            raise ScenarioError(f"memory controller ({x}, {y}) has negative coordinates")
        return self._with(memory_controller=Coord(x, y))

    def timing(
        self,
        *,
        routing_latency: Optional[int] = None,
        link_latency: Optional[int] = None,
        flit_cycle: Optional[int] = None,
    ) -> "Scenario":
        """Override router pipeline timing constants (defaults: 3/1/1)."""
        base: RouterTiming = self._settings.get("timing", RouterTiming())
        try:
            new = RouterTiming(
                routing_latency=base.routing_latency if routing_latency is None else routing_latency,
                link_latency=base.link_latency if link_latency is None else link_latency,
                flit_cycle=base.flit_cycle if flit_cycle is None else flit_cycle,
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        return self._with(timing=new)

    def messages(self, messages: MessageConfig) -> "Scenario":
        """Override the message-size constants of the evaluated manycore."""
        if not isinstance(messages, MessageConfig):
            raise ScenarioError("messages expects a MessageConfig instance")
        return self._with(messages=messages)

    # ------------------------------------------------------------------
    # Fault model selection
    # ------------------------------------------------------------------
    def fault_model(self, model: Any = None, **params: Any) -> "Scenario":
        """Attach a per-link fault model (and HARQ reliability protocol).

        Accepts whatever :func:`repro.faults.make_fault_model` accepts: a
        kind name with parameters (``.fault_model("independent",
        loss_rate=0.01, seed=3)``), a mapping with a ``"kind"`` entry, a
        ready :class:`~repro.faults.FaultModel`, or ``None`` to remove the
        model again.  A *null* model (all fault rates zero) simulates
        bit-identically to no fault model at all.
        """
        try:
            spec = make_fault_model(model, **params)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if spec is None:
            merged = dict(self._settings)
            merged.pop("fault_model", None)
            return Scenario(merged)
        return self._with(fault_model=spec)

    # ------------------------------------------------------------------
    # Introspection / terminal operations
    # ------------------------------------------------------------------
    @property
    def settings(self) -> Dict[str, Any]:
        """A copy of the accumulated settings (useful for labels and hashes)."""
        return dict(self._settings)

    def label(self) -> str:
        """A short deterministic label, e.g. ``waw_wap-8x8-L1``."""
        s = self._settings
        parts = [s.get("design", "regular"), f"{s['mesh_width']}x{s['mesh_height']}"]
        kind = s.get("topology", "mesh")
        if kind != "mesh":
            parts.append(kind + (f"{s['concentration']}" if "concentration" in s else ""))
        if s.get("routing", "xy") != "xy":
            parts.append(s["routing"])
        if "max_packet_flits" in s:
            parts.append(f"L{s['max_packet_flits']}")
        if "min_packet_flits" in s:
            parts.append(f"m{s['min_packet_flits']}")
        if "buffer_depth" in s:
            parts.append(f"b{s['buffer_depth']}")
        if s.get("backend", "cycle") != "cycle":
            parts.append(s["backend"])
        if "analysis" in s:
            parts.append(s["analysis"])
        if "fault_model" in s:
            parts.append(s["fault_model"].label_token())
        return "-".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form of the scenario, inverse of :meth:`from_dict`.

        This is how a design point travels to the analysis daemon: the dict
        round-trips losslessly (``Scenario.from_dict(sc.to_dict()) == sc``
        modulo revalidation) and hashes deterministically, so it doubles as
        the scenario's wire format and cache identity.
        """
        s = self._settings
        data: Dict[str, Any] = {}
        for key in (
            "mesh_width",
            "mesh_height",
            "design",
            "topology",
            "routing",
            "concentration",
            "backend",
            "analysis",
            "max_packet_flits",
            "min_packet_flits",
            "buffer_depth",
        ):
            if key in s:
                data[key] = s[key]
        if "memory_controller" in s:
            mc = s["memory_controller"]
            data["memory_controller"] = [mc.x, mc.y]
        if "timing" in s:
            timing: RouterTiming = s["timing"]
            data["timing"] = {
                f.name: getattr(timing, f.name) for f in fields(RouterTiming)
            }
        if "messages" in s:
            messages: MessageConfig = s["messages"]
            data["messages"] = {
                f.name: getattr(messages, f.name) for f in fields(MessageConfig)
            }
        if "fault_model" in s:
            model: FaultModel = s["fault_model"]
            spec: Dict[str, Any] = {"kind": model.kind}
            for f in fields(model):
                value = getattr(model, f.name)
                if f.name == "reliability":
                    # ReliabilityConfig flattens to its scalar knobs, which
                    # make_fault_model accepts back in flat form.
                    spec.update({rf.name: getattr(value, rf.name) for rf in fields(value)})
                else:
                    spec[f.name] = value
            data["fault_model"] = spec
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output, revalidating.

        Every field passes back through the fluent setters, so a corrupted
        or hand-written dict fails with the same :class:`ScenarioError` a
        bad builder chain would raise.  Unknown keys are rejected.
        """
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"a scenario dict must be a mapping, got {type(data).__name__}"
            )
        remaining = dict(data)
        if "mesh_width" not in remaining:
            raise ScenarioError("a scenario dict needs at least 'mesh_width'")
        scenario = cls.mesh(
            remaining.pop("mesh_width"), remaining.pop("mesh_height", None)
        )
        if "design" in remaining:
            scenario = scenario.design(remaining.pop("design"))
        if any(key in remaining for key in ("topology", "routing", "concentration")):
            scenario = scenario.topology(
                remaining.pop("topology", "mesh"),
                routing=remaining.pop("routing", "xy"),
                concentration=remaining.pop("concentration", None),
            )
        if "backend" in remaining:
            scenario = scenario.backend(remaining.pop("backend"))
        if "analysis" in remaining:
            scenario = scenario.analysis(remaining.pop("analysis"))
        for key in ("max_packet_flits", "min_packet_flits", "buffer_depth"):
            if key in remaining:
                scenario = getattr(scenario, key)(remaining.pop(key))
        if "memory_controller" in remaining:
            coordinates = remaining.pop("memory_controller")
            try:
                x, y = coordinates
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"memory_controller must be an [x, y] pair, got {coordinates!r}"
                ) from None
            scenario = scenario.memory_controller(x, y)
        if "timing" in remaining:
            timing = remaining.pop("timing")
            if not isinstance(timing, Mapping):
                raise ScenarioError(f"timing must be a mapping, got {timing!r}")
            known = {f.name for f in fields(RouterTiming)}
            unknown = set(timing) - known
            if unknown:
                raise ScenarioError(f"unknown timing field(s): {', '.join(sorted(unknown))}")
            scenario = scenario.timing(**dict(timing))
        if "messages" in remaining:
            messages = remaining.pop("messages")
            if not isinstance(messages, Mapping):
                raise ScenarioError(f"messages must be a mapping, got {messages!r}")
            try:
                scenario = scenario.messages(MessageConfig(**dict(messages)))
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"invalid messages: {exc}") from None
        if "fault_model" in remaining:
            scenario = scenario.fault_model(remaining.pop("fault_model"))
        if remaining:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(sorted(remaining))}"
            )
        return scenario

    def as_job(self, experiment: str = "scenario_wctt", *, quick: bool = False, **params: Any):
        """This design point as a :class:`~repro.api.BatchJob` submission.

        The scenario travels as the ``scenario`` run() parameter of
        ``experiment`` (default: the registered ``scenario_wctt``
        design-point evaluation), so a ``sweep()`` grid can be handed to
        the :class:`~repro.api.BatchEngine` or submitted to a running
        analysis daemon (:meth:`repro.service.ServiceClient.submit_scenarios`).
        Extra keyword arguments become additional run() parameters.
        """
        from .engine import BatchJob

        return BatchJob(
            experiment=experiment,
            params={"scenario": self.to_dict(), **params},
            quick=quick,
        )

    def build(self) -> NoCConfig:
        """Produce the validated :class:`NoCConfig` for this scenario."""
        s = self._settings
        if "mesh_width" not in s:
            raise ScenarioError("a scenario needs a mesh; start from Scenario.mesh(width)")
        if "topology" in s or "routing" in s:
            # An explicit topology/routing choice builds a Topology object;
            # the default path keeps the seed's plain Mesh representation.
            try:
                mesh: Mesh = make_topology(
                    s.get("topology", "mesh"),
                    s["mesh_width"],
                    s["mesh_height"],
                    routing=s.get("routing", "xy"),
                    concentration=s.get("concentration"),
                )
            except ValueError as exc:
                raise ScenarioError(f"invalid scenario {self.label()}: {exc}") from None
        else:
            mesh = Mesh(s["mesh_width"], s["mesh_height"])
        arbitration, packetization = _DESIGNS[s.get("design", "regular")]
        kwargs: Dict[str, Any] = {
            "mesh": mesh,
            "arbitration": arbitration,
            "packetization": packetization,
        }
        if "backend" in s:
            kwargs["sim_backend"] = s["backend"]
        for key in (
            "max_packet_flits",
            "min_packet_flits",
            "buffer_depth",
            "timing",
            "messages",
            "memory_controller",
            "fault_model",
        ):
            if key in s:
                kwargs[key] = s[key]
        try:
            return NoCConfig(**kwargs)
        except ValueError as exc:
            raise ScenarioError(f"invalid scenario {self.label()}: {exc}") from None

    def __repr__(self) -> str:
        return f"Scenario({self.label()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._settings == other._settings

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, repr(v)) for k, v in self._settings.items())))

    # ------------------------------------------------------------------
    def _with(self, **updates: Any) -> "Scenario":
        merged = dict(self._settings)
        merged.update(updates)
        return Scenario(merged)


def _apply_topology(scenario: "Scenario", value: Any) -> "Scenario":
    """Apply one topology-axis value: a kind name or a keyword mapping.

    ``topology=("mesh", "torus")`` sweeps kinds; a mapping spells out the
    full choice, e.g. ``topology=[{"kind": "cmesh", "concentration": 2},
    {"kind": "mesh", "routing": "yx"}]``.
    """
    if isinstance(value, str):
        return scenario.topology(value)
    if isinstance(value, Mapping):
        params = dict(value)
        kind = params.pop("kind", None)
        if kind is None:
            raise ScenarioError("a topology mapping needs a 'kind' entry")
        try:
            return scenario.topology(kind, **params)
        except TypeError:
            raise ScenarioError(
                f"unknown topology parameter in {dict(value)!r}; "
                "known parameters: kind, routing, concentration"
            ) from None
    raise ScenarioError(
        f"topology axis values must be kind names or mappings, got {value!r}"
    )


#: sweep() axis name -> Scenario method applying one value of that axis.
_SWEEP_AXES = {
    "mesh": lambda sc, v: _apply_mesh(sc, v),
    "design": lambda sc, v: sc.design(v),
    "topology": lambda sc, v: _apply_topology(sc, v),
    "backend": lambda sc, v: sc.backend(v),
    "analysis": lambda sc, v: sc.analysis(v),
    "max_packet_flits": lambda sc, v: sc.max_packet_flits(v),
    "min_packet_flits": lambda sc, v: sc.min_packet_flits(v),
    "buffer_depth": lambda sc, v: sc.buffer_depth(v),
    "memory_controller": lambda sc, v: sc.memory_controller(*v),
    "fault_model": lambda sc, v: _apply_fault_model(sc, v),
}


def _apply_fault_model(scenario: "Scenario", value: Any) -> "Scenario":
    """Apply one fault-model axis value: None, a kind name, mapping or spec.

    ``fault_model=(None, "independent")`` sweeps reliable links against the
    default independent model; mappings spell out the rates, e.g.
    ``fault_model=[{"kind": "independent", "loss_rate": r} for r in rates]``.
    """
    if value is None or isinstance(value, (str, FaultModel, Mapping)):
        return scenario.fault_model(value)
    raise ScenarioError(
        f"fault_model axis values must be None, kind names, mappings or "
        f"FaultModel instances, got {value!r}"
    )


def _apply_mesh(scenario: Optional[Scenario], value: Any) -> Scenario:
    width, height = (value, None) if isinstance(value, int) else tuple(value)
    fresh = Scenario.mesh(width, height)
    if scenario is None:
        return fresh
    merged = scenario.settings
    merged["mesh_width"], merged["mesh_height"] = (
        fresh.settings["mesh_width"],
        fresh.settings["mesh_height"],
    )
    return Scenario(merged)


def sweep(base: Optional[Scenario] = None, **grid: Any) -> List[Scenario]:
    """Expand parameter grids into a list of scenarios (cartesian product).

    ``base`` provides the fixed part of every design point; each keyword is
    one axis of the grid and may be a single value or an iterable of values.
    Axes: ``mesh``, ``design``, ``topology`` (kind names or mappings like
    ``{"kind": "cmesh", "concentration": 2}``), ``backend`` (simulation
    backend name, ``cycle`` or ``event``), ``analysis`` (analysis backend
    name: ``regular``/``weighted``/``holistic``/``trajectory``),
    ``max_packet_flits``, ``min_packet_flits``, ``buffer_depth`` and
    ``memory_controller`` (an ``(x, y)`` pair).

    Mesh axis values are square sizes; a bare 2-tuple of ints is two square
    sizes (``mesh=(8, 4)`` is an 8x8 and a 4x4).  Rectangular meshes must be
    wrapped in a list: ``mesh=[(8, 4)]`` is one 8x4 design point.

    The expansion order is deterministic: the last axis varies fastest, like
    nested for-loops written in keyword order.
    """
    if not grid:
        raise ScenarioError("sweep() needs at least one axis, e.g. mesh=(2, 3, 4)")
    unknown = [k for k in grid if k not in _SWEEP_AXES]
    if unknown:
        known = ", ".join(_SWEEP_AXES)
        raise ScenarioError(f"unknown sweep axis {unknown[0]!r}; known axes: {known}")
    if base is None and "mesh" not in grid:
        raise ScenarioError("sweep() without a base scenario needs a mesh axis")

    axes: List[Tuple[str, List[Any]]] = []
    for name, values in grid.items():
        value_list = _axis_values(name, values)
        if not value_list:
            raise ScenarioError(f"sweep axis {name!r} has no values")
        axes.append((name, value_list))

    scenarios: List[Scenario] = []
    for combo in itertools.product(*(values for _, values in axes)):
        scenario = base
        # The mesh axis must be applied first: it is the only way to create
        # a scenario when no base is given.
        ordered = sorted(zip((name for name, _ in axes), combo), key=lambda kv: kv[0] != "mesh")
        for name, value in ordered:
            if name == "mesh":
                scenario = _apply_mesh(scenario, value)
            else:
                scenario = _SWEEP_AXES[name](scenario, value)
        scenarios.append(scenario)
    return scenarios


def sweep_jobs(
    base: Optional[Scenario] = None,
    *,
    experiment: str = "scenario_wctt",
    quick: bool = False,
    **grid: Any,
) -> List["BatchJob"]:
    """Expand sweep axes straight into :class:`~repro.api.BatchJob` values.

    ``sweep_jobs(base, **grid)`` is ``[sc.as_job(experiment, quick=quick)
    for sc in sweep(base, **grid)]`` -- the job-grid form consumed by the
    :class:`~repro.api.BatchEngine`, the analysis daemon and
    :class:`repro.campaign.Campaign`.  Expansion order (and therefore the
    campaign shard layout) is the deterministic row-major order of
    :func:`sweep`.
    """
    return [
        scenario.as_job(experiment, quick=quick)
        for scenario in sweep(base, **grid)
    ]


def _axis_values(name: str, values: Any) -> List[Any]:
    if isinstance(values, (str, bytes)):
        return [values]
    if name == "topology" and isinstance(values, Mapping):
        # A single mapping is one axis value, not an iterable of keys.
        return [values]
    if name == "fault_model" and isinstance(values, (Mapping, FaultModel)):
        # Same: one model spec, not an iterable of its keys.
        return [values]
    if name == "mesh" and isinstance(values, tuple) and len(values) == 2 and all(
        isinstance(v, int) for v in values
    ):
        # Ambiguous (8, 4): treat as two sizes, use [(8, 4)] for one rectangle.
        return list(values)
    if name == "memory_controller" and isinstance(values, tuple) and len(values) == 2 and all(
        isinstance(v, int) for v in values
    ):
        return [values]
    if isinstance(values, Iterable):
        return list(values)
    return [values]


def _positive_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ScenarioError(f"{name} must be >= 1, got {value}")
    return value
