"""The design registry: every evaluated controller as registered data.

Base designs register a *builder* (via :func:`register_design`) with a
declared parameter schema — the registry rejects a spec that overrides
a parameter its base never declared, so e.g. ``sram_bytes`` on a design
that has no metadata SRAM fails loudly instead of being silently
dropped.  Named paper designs (the Figure 8 comparison set and the
Figure 7 ablation bars) register as :class:`DesignSpec` entries, each
optionally tagged with its figure and bar position so the paper-order
name lists derive from the registry instead of living as frozen
constants.

Controllers are built with :meth:`DesignRegistry.build` from a name or
a spec, and sweeps expand with :meth:`DesignRegistry.expand_grid`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .spec import DesignSpec


@dataclass(frozen=True)
class DesignEntry:
    """One registered base design.

    Attributes:
        name: Registry name (also the default controller name).
        builder: ``builder(hbm_config, dram_config, *, name, **params)``
            returning a controller.
        params: Declared parameter schema: name -> default value.  Any
            parameter absent from this mapping is *unsupported* — a
            spec overriding it is rejected at build time.
        description: One-line summary for ``repro designs list``.
    """

    name: str
    builder: Callable[..., Any]
    params: Mapping[str, Any]
    description: str = ""

    def supports(self, param: str) -> bool:
        return param in self.params


@dataclass(frozen=True)
class SpecEntry:
    """One registered named spec, with optional figure placements."""

    spec: DesignSpec
    description: str = ""
    #: ``((figure_id, bar_index), ...)`` placements, e.g. (("fig8", 5),).
    figures: tuple[tuple[str, int], ...] = ()


class DesignRegistry:
    """Registry of base designs and named specs.

    Args:
        loader: Zero-arg callable importing every module that registers
            built-in designs; invoked lazily on first query so the
            registry module itself stays import-cycle free.
    """

    def __init__(self, loader: Callable[[], None] | None = None) -> None:
        self._designs: dict[str, DesignEntry] = {}
        self._specs: dict[str, SpecEntry] = {}
        self._loader = loader
        self._loaded = loader is None
        self._loading = False

    # ---- registration ----------------------------------------------------

    def add_design(self, name: str, builder: Callable[..., Any],
                   params: Mapping[str, Any] | None = None,
                   description: str = "") -> DesignEntry:
        if name in self._designs:
            raise ValueError(f"design {name!r} already registered")
        entry = DesignEntry(name=name, builder=builder,
                            params=dict(params or {}),
                            description=description)
        self._designs[name] = entry
        return entry

    def add_spec(self, spec: DesignSpec, description: str = "",
                 figures: Sequence[tuple[str, int]] = ()) -> DesignSpec:
        if spec.name in self._specs:
            raise ValueError(f"design spec {spec.name!r} already registered")
        self._specs[spec.name] = SpecEntry(
            spec=spec, description=description,
            figures=tuple((str(f), int(i)) for f, i in figures))
        return spec

    # ---- loading ---------------------------------------------------------

    def _ensure_loaded(self) -> None:
        # The _loading guard tolerates re-entry: loading the builtin
        # modules imports repro.baselines, whose __init__ itself asks
        # the registry for the figure name lists.
        if self._loaded or self._loading:
            return
        self._loading = True
        try:
            if self._loader is not None:
                self._loader()
            self._loaded = True
        finally:
            self._loading = False

    # ---- queries ---------------------------------------------------------

    def names(self) -> list[str]:
        """Every registered spec name, in registration order."""
        self._ensure_loaded()
        return list(self._specs)

    def base_names(self) -> list[str]:
        """Every registered base design, in registration order."""
        self._ensure_loaded()
        return list(self._designs)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._specs

    def spec(self, name: str) -> DesignSpec:
        """The registered spec called ``name``.

        Raises:
            ValueError: for an unknown name, listing the known ones.
        """
        self._ensure_loaded()
        try:
            return self._specs[name].spec
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise ValueError(f"unknown design {name!r}; known designs: "
                             f"{known}") from None

    def resolve(self, design: "str | DesignSpec") -> DesignSpec:
        """Normalise a design name or spec to a :class:`DesignSpec`."""
        if isinstance(design, DesignSpec):
            return design
        return self.spec(design)

    def design(self, base: str) -> DesignEntry:
        """The base-design entry called ``base``.

        Raises:
            ValueError: for an unknown base, listing the known ones.
        """
        self._ensure_loaded()
        try:
            return self._designs[base]
        except KeyError:
            known = ", ".join(sorted(self._designs))
            raise ValueError(f"unknown base design {base!r}; known base "
                             f"designs: {known}") from None

    def describe(self, name: str) -> SpecEntry:
        """The full registration record of one named spec."""
        self._ensure_loaded()
        if name not in self._specs:
            self.spec(name)        # raises with the known-name list
        return self._specs[name]

    def figure_names(self, figure: str) -> list[str]:
        """Spec names placed in ``figure``, sorted by bar index."""
        self._ensure_loaded()
        placed = []
        for entry in self._specs.values():
            for fig, index in entry.figures:
                if fig == figure:
                    placed.append((index, entry.spec.name))
        return [name for _, name in sorted(placed)]

    # ---- building --------------------------------------------------------

    def validate(self, spec: DesignSpec) -> DesignEntry:
        """Check ``spec`` against its base's declared parameter schema.

        Returns:
            The base :class:`DesignEntry`.

        Raises:
            ValueError: unknown base, or an override the base does not
                declare (the message lists the supported parameters —
                or states that the design takes none).
        """
        entry = self.design(spec.base)
        unknown = [k for k, _ in spec.params if not entry.supports(k)]
        if unknown:
            supported = ", ".join(sorted(entry.params)) or "(none)"
            raise ValueError(
                f"design {spec.base!r} does not support parameter(s) "
                f"{', '.join(unknown)}; supported parameters: {supported}")
        return entry

    def build(self, design: "str | DesignSpec", hbm_config, dram_config,
              sram_bytes: int | None = None):
        """Instantiate a controller from a spec or registered name.

        Args:
            design: A :class:`DesignSpec` or a registered spec name.
            hbm_config: Die-stacked device configuration.
            dram_config: Off-chip device configuration.
            sram_bytes: Harness-level metadata-SRAM budget default.  It
                reaches only designs that *declare* an ``sram_bytes``
                parameter (Chameleon, Hybrid2) and never overrides an
                explicit spec override; for every other design it is
                explicitly unsupported and ignored, matching the
                historical factory behaviour.

        Raises:
            ValueError: unknown design/base, or an undeclared override.
        """
        spec = self.resolve(design)
        entry = self.validate(spec)
        params = spec.param_dict
        if (sram_bytes is not None and entry.supports("sram_bytes")
                and "sram_bytes" not in params):
            params["sram_bytes"] = sram_bytes
        return entry.builder(hbm_config, dram_config, name=spec.name,
                             **params)

    # ---- sweeps ----------------------------------------------------------

    def expand_grid(self, base: str,
                    grid: Mapping[str, Sequence[Any]]) -> list[DesignSpec]:
        """Cross-product a parameter grid into one spec per point.

        Args:
            base: A registered base design.
            grid: Ordered mapping of parameter -> values; every key must
                be a parameter the base declares.  The expansion follows
                the mapping's key order with the last key varying
                fastest, so the spec list is deterministic.

        Raises:
            ValueError: unknown base, undeclared parameter, or an empty
                value list.
        """
        entry = self.design(base)
        for key, values in grid.items():
            if not entry.supports(key):
                supported = ", ".join(sorted(entry.params)) or "(none)"
                raise ValueError(
                    f"design {base!r} does not support parameter {key!r}; "
                    f"supported parameters: {supported}")
            if not values:
                raise ValueError(f"grid parameter {key!r} has no values")
        keys = list(grid)
        specs = []
        for point in itertools.product(*(grid[k] for k in keys)):
            specs.append(DesignSpec(base=base,
                                    params=dict(zip(keys, point))))
        return specs


def _load_builtin_designs() -> None:
    """Import every module that registers a built-in design."""
    from .. import baselines          # noqa: F401
    from ..core import hmmc           # noqa: F401


#: The process-wide registry every built-in design registers into.
registry = DesignRegistry(loader=_load_builtin_designs)


def register_design(name: str, *, params: Mapping[str, Any] | None = None,
                    description: str = "",
                    figures: Sequence[tuple[str, int]] = ()):
    """Decorator: register ``builder`` as a base design (plus its spec).

    The decorated callable must accept ``(hbm_config, dram_config, *,
    name, **params)`` and return a controller.  An eponymous
    :class:`DesignSpec` with no overrides is registered alongside, so
    the design is immediately runnable by name.  Its controllers take
    the vectorized epoch engine when they implement
    ``batch_epoch_plan`` (see :mod:`repro.sim.vectorized`).
    """
    def wrap(builder):
        registry.add_design(name, builder, params=params,
                            description=description)
        registry.add_spec(DesignSpec(base=name, name=name),
                          description=description, figures=figures)
        return builder
    return wrap


def register_spec(name: str, base: str,
                  params: Mapping[str, Any] | None = None, *,
                  description: str = "",
                  figures: Sequence[tuple[str, int]] = ()) -> DesignSpec:
    """Register one named spec (a parameterisation of a base design)."""
    return registry.add_spec(
        DesignSpec(base=base, params=params or {}, name=name),
        description=description, figures=figures)
