"""Registry-backed stats views: the legacy ``service.stats`` surface.

Every service used to own a plain dataclass of counters. Those classes
still exist with the same names and attributes, but each numeric field is
now a property backed by a :class:`~repro.obs.registry.Counter` in a
:class:`~repro.obs.registry.MetricsRegistry` — reads and writes flow
through the registry, so ``deployment.metrics()`` and ``service.stats``
can never disagree. Existing code (``stats.received += 1``, benchmark
scrapes, ``Garnet.summary()``) works unchanged.

A view constructed without a registry creates a private one, so services
remain usable standalone in unit tests; :meth:`RegistryBackedStats.bind`
re-homes the counters (values included) into a shared registry, which is
how a :class:`~repro.core.consumer.Consumer` created before attachment
joins the deployment's registry at ``add_consumer`` time.
"""

from __future__ import annotations

import re

from repro.obs.registry import Counter, MetricsRegistry

_NUMERIC_ANNOTATIONS = {"int", "float", int, float}


def _derive_prefix(class_name: str) -> str:
    """``FilteringStats`` -> ``filtering`` (fallback when PREFIX unset)."""
    stem = class_name.removesuffix("Stats") or class_name
    return re.sub(r"(?<!^)(?=[A-Z])", "_", stem).lower()


def _make_field_property(name: str, as_int: bool) -> property:
    def fget(self: "RegistryBackedStats"):
        value = self._counters[name].value
        return int(value) if as_int else value

    def fset(self: "RegistryBackedStats", value) -> None:
        self._counters[name].set(value)

    return property(fget, fset, doc=f"registry-backed counter {name!r}")


class RegistryBackedStats:
    """Base for the per-service stats views.

    Subclasses declare numeric fields exactly like the old dataclasses::

        class FilteringStats(RegistryBackedStats):
            PREFIX = "filtering"
            received: int = 0
            delivered: int = 0

    Each annotated ``int``/``float`` field becomes a read/write property
    over a counter named ``<PREFIX>.<field>``. Non-numeric state (e.g. a
    trace list) is set as ordinary attributes by the subclass's
    ``__init__`` after calling ``super().__init__``.
    """

    PREFIX: str = ""
    _metric_fields: tuple[tuple[str, bool], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: dict[str, bool] = {}
        for klass in reversed(cls.__mro__):
            annotations = klass.__dict__.get("__annotations__", {})
            for name, annotation in annotations.items():
                if name.startswith("_") or name == "PREFIX":
                    continue
                if annotation in _NUMERIC_ANNOTATIONS:
                    fields[name] = annotation in ("int", int)
        cls._metric_fields = tuple(fields.items())
        for name, as_int in cls._metric_fields:
            setattr(cls, name, _make_field_property(name, as_int))

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        prefix: str | None = None,
    ) -> None:
        self._registry = metrics if metrics is not None else MetricsRegistry()
        self._prefix = (
            prefix
            if prefix is not None
            else (self.PREFIX or _derive_prefix(type(self).__name__))
        )
        self._counters: dict[str, Counter] = {
            name: self._registry.counter(f"{self._prefix}.{name}")
            for name, _ in self._metric_fields
        }

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def counter(self, name: str) -> Counter:
        """The live backing counter for declared field ``name``.

        Hot paths cache this and call ``inc()`` directly: a plain
        ``stats.field += 1`` costs two property round-trips (read via
        ``value``, write via ``set``) per increment. Caches go stale
        across :meth:`bind`, which re-homes the counters — re-fetch
        after binding.
        """
        return self._counters[name]

    @property
    def prefix(self) -> str:
        return self._prefix

    def bind(
        self, metrics: MetricsRegistry, prefix: str | None = None
    ) -> None:
        """Re-home this view's counters into ``metrics``, keeping values.

        The old registry forgets the counters so a later merged snapshot
        does not double-count them.
        """
        new_prefix = prefix if prefix is not None else self._prefix
        if metrics is self._registry and new_prefix == self._prefix:
            return
        moved: dict[str, Counter] = {}
        for name, counter in self._counters.items():
            target = metrics.counter(f"{new_prefix}.{name}")
            target.set(target.value + counter.value)
            self._registry.drop(counter.name)
            moved[name] = target
        self._registry = metrics
        self._prefix = new_prefix
        self._counters = moved

    def as_dict(self) -> dict[str, float]:
        """Field name -> current value (ints stay ints)."""
        return {name: getattr(self, name) for name, _ in self._metric_fields}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name, _ in self._metric_fields
        )
        return f"{type(self).__name__}({body})"
