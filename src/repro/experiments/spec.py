"""Declarative experiment specs and the experiment registry.

An :class:`ExperimentSpec` is the library-level description of one
reconstructed-evaluation experiment: an id (``e4``), a slug
(``dq_size``), a title, tags, a *build* function that produces the
result table and a JSON-serializable metrics dictionary, and a tuple of
:class:`Expectation` predicates stating the qualitative shape the paper
leads us to expect.

Spec modules live next to this file as ``e01_*.py`` .. ``e19_*.py`` and
register themselves through the :func:`experiment` decorator at import
time; :func:`load_all` imports every sibling module so the registry is
complete before any lookup.  Lookups (:func:`get`, :func:`list_specs`,
:func:`by_tag`) trigger loading automatically, so callers never import
spec modules by hand.

Expectations are deliberately evaluated against the *metrics
dictionary*, not against live simulator objects: the same predicates
run identically on a freshly computed result and on a result document
reloaded from ``benchmarks/results/<name>.json``, which is what lets a
stored run be re-audited (``repro experiments report``) or a doctored
one be caught by tests.
"""

from __future__ import annotations

import dataclasses
import importlib
import pathlib
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, ReproLookupError


class ExperimentLookupError(ReproLookupError):
    """No registered experiment matches the requested id."""


class ExperimentRegistrationError(ReproError):
    """A spec module tried to register a conflicting experiment."""


# Metrics are restricted to the JSON value universe so that expectation
# predicates behave identically on computed and reloaded results.
Metrics = Dict[str, Any]

# build(env) -> (table, metrics); ``table`` is a repro.stats.report.Table.
BuildFn = Callable[..., Tuple[Any, Metrics]]


@dataclasses.dataclass(frozen=True)
class Expectation:
    """One named qualitative check over an experiment's metrics."""

    name: str
    description: str
    check: Callable[[Metrics], bool]

    def evaluate(self, metrics: Metrics) -> "ExpectationResult":
        try:
            passed = bool(self.check(metrics))
            error = None
        except Exception as exc:  # noqa: BLE001 — doctored/missing metrics
            passed = False
            error = f"{type(exc).__name__}: {exc}"
        return ExpectationResult(
            name=self.name, description=self.description,
            passed=passed, error=error,
        )


@dataclasses.dataclass(frozen=True)
class ExpectationResult:
    """The outcome of one expectation on one result document."""

    name: str
    description: str
    passed: bool
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "error": self.error,
        }


def expect(name: str, description: str,
           check: Callable[[Metrics], bool]) -> Expectation:
    """Shorthand constructor used by the spec modules."""
    return Expectation(name=name, description=description, check=check)


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """Everything the engine needs to run one experiment."""

    eid: str                      # "e4"
    slug: str                     # "dq_size"
    title: str                    # one-line description
    build: BuildFn                # env -> (Table, metrics)
    tags: Tuple[str, ...] = ()
    expectations: Tuple[Expectation, ...] = ()

    def __post_init__(self) -> None:
        if not re.fullmatch(r"e[1-9]\d*", self.eid):
            raise ExperimentRegistrationError(
                f"experiment id must look like 'e<number>', got {self.eid!r}"
            )
        if not re.fullmatch(r"[a-z0-9_]+", self.slug):
            raise ExperimentRegistrationError(
                f"experiment slug must be snake_case, got {self.slug!r}"
            )

    @property
    def name(self) -> str:
        """The results-file stem, e.g. ``e4_dq_size``."""
        return f"{self.eid}_{self.slug}"

    @property
    def number(self) -> int:
        return int(self.eid[1:])

    def check(self, metrics: Metrics) -> List[ExpectationResult]:
        """Evaluate every expectation against ``metrics``."""
        return [expectation.evaluate(metrics)
                for expectation in self.expectations]


_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add ``spec`` to the registry (id and name must be unique)."""
    existing = _REGISTRY.get(spec.eid)
    if existing is not None:
        if existing is spec:
            return spec
        raise ExperimentRegistrationError(
            f"duplicate experiment id {spec.eid!r} "
            f"({existing.name} vs {spec.name})"
        )
    if any(other.slug == spec.slug for other in _REGISTRY.values()):
        raise ExperimentRegistrationError(
            f"duplicate experiment slug {spec.slug!r}"
        )
    _REGISTRY[spec.eid] = spec
    return spec


def experiment(*, eid: str, slug: str, title: str,
               tags: Sequence[str] = (),
               expectations: Sequence[Expectation] = ()):
    """Decorator registering a build function as an experiment spec.

    The decorated module attribute becomes the :class:`ExperimentSpec`
    itself, so spec modules read declaratively top to bottom.
    """
    def wrap(build: BuildFn) -> ExperimentSpec:
        return register(ExperimentSpec(
            eid=eid, slug=slug, title=title, build=build,
            tags=tuple(tags), expectations=tuple(expectations),
        ))
    return wrap


def load_all() -> None:
    """Import every ``e*_*.py`` spec module next to this file (once)."""
    global _LOADED
    if _LOADED:
        return
    package_dir = pathlib.Path(__file__).parent
    for path in sorted(package_dir.glob("e[0-9]*_*.py")):
        importlib.import_module(f"{__package__}.{path.stem}")
    _LOADED = True


def get(identifier: str) -> ExperimentSpec:
    """Look up a spec by id (``e4``) or full name (``e4_dq_size``)."""
    load_all()
    key = identifier.strip().lower()
    spec = _REGISTRY.get(key)
    if spec is None:
        for candidate in _REGISTRY.values():
            if candidate.name == key:
                spec = candidate
                break
    if spec is None:
        known = ", ".join(s.eid for s in list_specs())
        raise ExperimentLookupError(
            f"no experiment {identifier!r} (known: {known})"
        )
    return spec


def list_specs() -> List[ExperimentSpec]:
    """Every registered spec, in e1..eN order."""
    load_all()
    return sorted(_REGISTRY.values(), key=lambda spec: spec.number)


def by_tag(tag: str) -> List[ExperimentSpec]:
    """Registered specs carrying ``tag``, in e1..eN order."""
    return [spec for spec in list_specs() if tag in spec.tags]
