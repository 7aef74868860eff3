"""Shared helpers: unit conversion, math utilities, atomic persistence."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.utils.mathx import (
        clamp,
        geomean,
        is_power_of_two,
        log2_int,
        weighted_mean,
    )
    from repro.utils.persist import atomic_write_text, save_json
    from repro.utils.units import (
        NS_PER_S,
        S_PER_YEAR,
        format_bytes,
        format_seconds,
        ns_to_s,
        parse_size,
        s_to_ns,
    )

__all__ = [
    "NS_PER_S",
    "S_PER_YEAR",
    "atomic_write_text",
    "save_json",
    "format_bytes",
    "format_seconds",
    "ns_to_s",
    "parse_size",
    "s_to_ns",
    "clamp",
    "geomean",
    "is_power_of_two",
    "log2_int",
    "weighted_mean",
]

# Importing repro.utils.units must not load the file-output helpers.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.mathx": (
            "clamp",
            "geomean",
            "is_power_of_two",
            "log2_int",
            "weighted_mean",
        ),
        "repro.utils.persist": ("atomic_write_text", "save_json"),
        "repro.utils.units": (
            "NS_PER_S",
            "S_PER_YEAR",
            "format_bytes",
            "format_seconds",
            "ns_to_s",
            "parse_size",
            "s_to_ns",
        ),
    },
)
