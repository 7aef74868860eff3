"""The ``Profile`` artifact: exact host-side counts for one run.

Two tables, each a pure function of the code, the configuration and the
interpreter version, never of the host's speed or load:

- ``dispatch_counts``: events the engine dispatched per owner (the
  callback's ``module:qualname``, :func:`owner_label`), from
  :func:`count_dispatches`. Their per-subsystem sums are the
  ``prof_dispatch_*`` metrics pinned in ``BENCH_core.json``.
- ``ncalls``: cProfile's call count per ``file:qualname`` over
  ``System.run``, set-up excluded. Files are named relative to the
  ``sys.path`` entry that holds them (``repro/engine/simulator.py``),
  and C functions as cProfile names them, under ``~:``. No line number
  enters a label, so moving code within its file relabels nothing. Only
  ``repro-rrm profile run`` collects these: cProfile roughly doubles a
  run's host time, so neither ``System`` nor the pinned suite runs it.

Two runs of the same cell on the same Python version give equal tables,
so :func:`diff_profiles` compares them exactly: every changed count is a
change in what the simulator did.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, List, Tuple, TypeVar, Union

from repro.engine import EventHandle, Simulator
from repro.errors import ReproError
from repro.utils.persist import save_json

PROFILE_SCHEMA = 3

#: The count tables an artifact carries, in report and diff order.
COUNT_TABLES = ("dispatch_counts", "ncalls")

T = TypeVar("T")


class ProfileError(ReproError):
    """A profile artifact is missing, torn, or of another schema."""


def owner_label(callback: Callable) -> str:
    """``module:qualname`` identity of a callback, the key of
    ``dispatch_counts``.

    Bound methods resolve through ``__func__`` so the label names the
    defining class, not the instance. Objects with neither module nor
    qualname (rare C callables) fall back to ``?``.
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "?"
    qual = getattr(func, "__qualname__", None) or getattr(
        func, "__name__", "?"
    )
    return f"{module}:{qual}"


def count_dispatches(sim: Simulator) -> Dict[str, int]:
    """Count *sim*'s dispatches per owner: wrap its ``schedule_at`` so
    each callback, once it returns, adds one to its :func:`owner_label`.
    Returns the live ``{label: count}`` table.

    Attach before anything caches ``sim.schedule_at`` or schedules an
    event: earlier events are not counted. A periodic chain is charged
    to the callback it repeats (the engine's ``tick`` names it in
    ``__wrapped__``), not to the chain's closure. Counting only observes:
    events keep their order and the run its results.
    """
    counts: Dict[str, int] = {}
    schedule_at = sim.schedule_at

    def counted_schedule_at(
        time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        label = owner_label(getattr(callback, "__wrapped__", callback))

        def dispatch(*call_args: Any) -> None:
            callback(*call_args)
            counts[label] = counts.get(label, 0) + 1

        return schedule_at(time, dispatch, *args)

    sim.schedule_at = counted_schedule_at  # type: ignore[method-assign]
    return counts


def subsystem_of(label: str) -> str:
    """Bucket a ``module:qualname`` owner label into a repro subsystem:
    the first package under ``repro`` (``engine``, ``memctrl``, ...),
    ``sim`` for ``repro`` itself, ``other`` for anything else."""
    module = label.split(":", 1)[0]
    if module == "repro":
        return "sim"
    if module.startswith("repro."):
        return module.split(".", 2)[1]
    return "other"


@dataclass
class Profile:
    """The counts one profiled run produced, with their provenance."""

    #: Provenance: workload, scheme, duration; ``profile run`` adds the
    #: config name, seed and Python version.
    meta: Dict[str, object] = field(default_factory=dict)
    #: :func:`count_dispatches`: owner label -> events dispatched.
    dispatch_counts: Dict[str, int] = field(default_factory=dict)
    #: cProfile over ``System.run``: ``file:qualname`` -> calls.
    ncalls: Dict[str, int] = field(default_factory=dict)

    def ledger_metrics(self) -> Dict[str, float]:
        """Flat ``prof_dispatch_*`` metrics for run-ledger entries: the
        total and one sum per :func:`subsystem_of` bucket."""
        out: Dict[str, float] = {
            "prof_dispatch_total": float(sum(self.dispatch_counts.values())),
        }
        by_subsystem: Dict[str, float] = {}
        for owner, count in self.dispatch_counts.items():
            bucket = subsystem_of(owner)
            by_subsystem[bucket] = by_subsystem.get(bucket, 0.0) + count
        for bucket in sorted(by_subsystem):
            out[f"prof_dispatch_{bucket}"] = by_subsystem[bucket]
        return out

    def to_json_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "meta": dict(self.meta),
            "dispatch_counts": dict(sorted(self.dispatch_counts.items())),
            "ncalls": dict(sorted(self.ncalls.items())),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Profile":
        return cls(
            meta=dict(d.get("meta", {})),
            dispatch_counts={
                k: int(v) for k, v in d.get("dispatch_counts", {}).items()
            },
            ncalls={k: int(v) for k, v in d.get("ncalls", {}).items()},
        )

    def save(self, path: Union[str, Path]) -> None:
        save_json(path, self.to_json_dict())


def load_profile(path: Union[str, Path]) -> Profile:
    p = Path(path)
    if not p.exists():
        raise ProfileError(f"profile artifact not found: {p}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileError(f"unreadable profile artifact {p}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProfileError(f"profile artifact {p} is not a JSON object")
    schema = payload.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ProfileError(
            f"profile artifact {p} has schema {schema!r}, "
            f"not {PROFILE_SCHEMA}"
        )
    return Profile.from_json_dict(payload)


# ---------------------------------------------------------------------------
def _short_path(filename: str) -> str:
    """*filename* relative to the longest ``sys.path`` entry holding it,
    so a label does not depend on where the checkout lives."""
    best = ""
    for entry in sys.path:
        root = os.path.join(os.path.abspath(entry or os.curdir), "")
        if filename.startswith(root) and len(root) > len(best):
            best = root
    return filename[len(best):]


_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def _qualnames(filename: str) -> Dict[Tuple[int, str], str]:
    """``(co_firstlineno, co_name) -> qualified name`` of every code
    object compiled from *filename*, named as Python 3.11's
    ``co_qualname`` names it (3.10 has no ``co_qualname``); empty when
    the source cannot be read. The compiler's own nesting places each
    scope: only functions and lambdas put ``<locals>`` below them."""
    try:
        module = compile(Path(filename).read_bytes(), filename, "exec")
    except (OSError, SyntaxError, ValueError):
        return {}
    names: Dict[Tuple[int, str], str] = {}

    def visit(parent: CodeType, prefix: str) -> None:
        for code in parent.co_consts:
            if isinstance(code, CodeType):
                qual = prefix + code.co_name
                # Scopes nested on their parent's line share its label.
                names.setdefault((code.co_firstlineno, code.co_name), qual)
                function = (code.co_flags & inspect.CO_NEWLOCALS
                            and code.co_name not in _COMPREHENSIONS)
                visit(code, qual + (".<locals>." if function else "."))

    visit(module, "")
    return names


def count_calls(func: Callable[[], T]) -> Tuple[T, Dict[str, int]]:
    """Run *func* under cProfile; return its result and the call count
    per ``file:qualname``.

    Qualified names are read from the source once the run is over
    (:func:`_qualnames`); a code object whose source is not on disk
    keeps its bare name. Entries are summed per label, so code objects
    that share one (every dataclass-generated ``__init__`` is
    ``<string>:__init__``) add up instead of overwriting each other.
    """
    import cProfile
    import gc

    # Start from an empty young generation. Whether a collection (and
    # the gc callbacks and finalizers it calls) lands inside the run
    # would otherwise depend on what the process allocated before.
    gc.collect()
    profiler = cProfile.Profile()
    result = profiler.runcall(func)
    ncalls: Dict[str, int] = {}
    qualnames: Dict[str, Dict[Tuple[int, str], str]] = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            label = f"~:{code}"
        else:
            filename = code.co_filename
            if filename not in qualnames:
                qualnames[filename] = _qualnames(filename)
            qual = qualnames[filename].get(
                (code.co_firstlineno, code.co_name), code.co_name
            )
            label = f"{_short_path(filename)}:{qual}"
        ncalls[label] = ncalls.get(label, 0) + entry.callcount
    return result, ncalls


# ---------------------------------------------------------------------------
def diff_profiles(a: Profile, b: Profile) -> List[Tuple[str, str, int, int]]:
    """Every count that differs from *a* to *b*, as ``(table, key, old,
    new)`` in table then key order; a key missing on one side counts 0."""
    changes: List[Tuple[str, str, int, int]] = []
    for table in COUNT_TABLES:
        old, new = getattr(a, table), getattr(b, table)
        for key in sorted(old.keys() | new.keys()):
            before, after = old.get(key, 0), new.get(key, 0)
            if before != after:
                changes.append((table, key, before, after))
    return changes


def format_diff(a: Profile, b: Profile) -> str:
    """Render :func:`diff_profiles`: one ``old → new`` line per change."""
    changes = diff_profiles(a, b)
    sizes = ", ".join(
        f"{len(getattr(a, t).keys() | getattr(b, t).keys()):,} {t}"
        for t in COUNT_TABLES
    )
    if not changes:
        return f"profile diff: every count is equal ({sizes})"
    lines = [f"profile diff: {len(changes):,} counts differ ({sizes}):"]
    for table, key, before, after in changes:
        lines.append(
            f"  {table:<15} {before:>10,} → {after:<10,} "
            f"({after - before:+,})  {key}"
        )
    return "\n".join(lines)


def format_profile(profile: Profile, top: int = 15) -> str:
    """Human-readable report: provenance, dispatch counts, call counts."""
    meta = profile.meta
    lines = [
        "profile: "
        + ", ".join(
            f"{key} {meta[key]}"
            for key in ("workload", "scheme", "config", "seed", "duration_s",
                        "python")
            if key in meta
        )
    ]
    if profile.dispatch_counts:
        counts = profile.dispatch_counts
        lines.append("")
        lines.append(f"event dispatch ({sum(counts.values()):,} callbacks):")
        buckets = profile.ledger_metrics()
        lines.append(
            "  by subsystem: "
            + ", ".join(
                f"{key[len('prof_dispatch_'):]} {int(value):,}"
                for key, value in buckets.items()
                if key != "prof_dispatch_total"
            )
        )
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for owner, count in ranked[:top]:
            lines.append(f"  {count:>10,}  {owner}")
    if profile.ncalls:
        calls = profile.ncalls
        python_level = sum(
            n for label, n in calls.items() if not label.startswith("~:")
        )
        lines.append("")
        lines.append(
            f"calls in System.run ({sum(calls.values()):,} calls, "
            f"{python_level:,} Python-level, {len(calls):,} functions):"
        )
        ranked = sorted(calls.items(), key=lambda kv: (-kv[1], kv[0]))
        for label, count in ranked[:top]:
            lines.append(f"  {count:>10,}  {label}")
    if not profile.dispatch_counts and not profile.ncalls:
        lines.append("  (empty profile: no dispatch counts, no call counts)")
    return "\n".join(lines)
