"""Scenario files: strict YAML schema for planning inputs.

The file mirrors the Scenario dataclass section by section.  Validation is
deliberately unforgiving: unknown keys, missing keys, or non-numeric or
non-finite values fail with the dotted path of the offending entry, since a
silently ignored typo in a QoS target would invalidate a whole study.  Note
YAML 1.1 floats in scientific notation need a decimal point and a signed
exponent (write 8.0e+6); plain 8e6 parses as a string and is rejected here
with a hint.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Mapping, Sequence, Tuple

import yaml
from yaml import CSafeLoader

from .channel import FrequencyGrid, GaussianFit, RadioParams
from .optimizer import Scenario
from .reliability import EdgeProfile, QosTarget, TaskProfile, UserProfile

# (section, also the Scenario field; dataclass; YAML keys in its field order)
_SECTIONS = (
    ("task", TaskProfile, ("L_a_bits", "mu_a_cycles")),
    ("radio", RadioParams, ("B_hz", "p_w", "gt_dbi", "gr_dbi", "noise_dbm")),
    ("edge", EdgeProfile, ("f_m_cycles_per_s",)),
    ("qos", QosTarget, ("epsilon_s", "theta_th")),
)
_GRID_KEYS = ("freqs_ghz",)
_USER_KEYS = ("lambda_jobs_per_s", "f_l_cycles_per_s")
_FIT_KEYS = ("a_db_per_km", "b_ghz", "c_ghz")
_CAPS_KEYS = ("max_distance_m",)
_TOP_KEYS = tuple(name for name, _, _ in _SECTIONS) + ("grid", "users", "fit", "caps")
_SHA256_DIGITS = 16  # hex digits of the scenario hash kept in CSV provenance


class ScenarioFormatError(ValueError):
    """The scenario file violates the schema or an invariant."""


def _require_mapping(node: Any, path: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise ScenarioFormatError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: Mapping, allowed: Sequence[str], path: str) -> None:
    for key in node:
        if key not in allowed:
            raise ScenarioFormatError(
                f"{path}.{key}: unknown key (allowed: {', '.join(allowed)})"
            )


def _scalar_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str):
            hint = (
                " (YAML 1.1 floats need a decimal point and a signed exponent:"
                " write 8.0e+6, not 8e6)"
            )
        raise ScenarioFormatError(f"{path}: expected a number, got {value!r}{hint}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf  # an integer beyond float range
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{path}: expected a finite number, got {value!r}")
    return number


def _number(node: Mapping, key: str, path: str) -> float:
    if key not in node:
        raise ScenarioFormatError(f"{path}.{key}: missing required key")
    return _scalar_number(node[key], f"{path}.{key}")


def _record(node: Any, keys: Sequence[str], path: str) -> Tuple[float, ...]:
    """The numbers of one mapping, in the order of keys; no other key allowed."""
    _reject_unknown(_require_mapping(node, path), keys, path)
    return tuple(_number(node, key, path) for key in keys)


def _list(node: Any, path: str, what: str) -> Sequence:
    if not isinstance(node, Sequence) or isinstance(node, (str, bytes)):
        raise ScenarioFormatError(f"{path}: expected a list of {what}")
    return node


def _section(data: Mapping, key: str) -> Any:
    if key not in data:
        raise ScenarioFormatError(f"{key}: missing required section")
    return data[key]


def scenario_from_dict(data: Mapping) -> Scenario:
    """Build and validate a Scenario from already-parsed YAML data."""
    _reject_unknown(_require_mapping(data, "scenario"), _TOP_KEYS, "scenario")
    parts: Dict[str, Any] = {
        name: cls(*_record(_section(data, name), keys, name))
        for name, cls, keys in _SECTIONS
    }

    sec = _require_mapping(_section(data, "grid"), "grid")
    _reject_unknown(sec, _GRID_KEYS, "grid")
    if "freqs_ghz" not in sec:
        raise ScenarioFormatError("grid.freqs_ghz: missing required key")
    freqs = [
        _scalar_number(f, f"grid.freqs_ghz[{i}]")
        for i, f in enumerate(_list(sec["freqs_ghz"], "grid.freqs_ghz", "numbers"))
    ]
    try:
        parts["grid"] = FrequencyGrid(freqs_ghz=tuple(sorted(freqs)))
    except ValueError as exc:
        raise ScenarioFormatError(f"grid.freqs_ghz: {exc}") from exc

    parts["users"] = tuple(
        UserProfile(*_record(raw, _USER_KEYS, f"users[{i}]"))
        for i, raw in enumerate(_list(_section(data, "users"), "users", "mappings"))
    )
    if not parts["users"]:
        raise ScenarioFormatError("users: need at least one user")

    if "fit" in data:
        terms = tuple(
            _record(raw, _FIT_KEYS, f"fit[{i}]")
            for i, raw in enumerate(_list(data["fit"], "fit", "7 term mappings"))
        )
        if len(terms) != 7:
            raise ScenarioFormatError(
                f"fit: attenuation fit needs exactly 7 Gaussian terms, got {len(terms)}"
            )
        parts["fit"] = GaussianFit(terms=terms)

    if "caps" in data:
        sec = _require_mapping(data["caps"], "caps")
        _reject_unknown(sec, _CAPS_KEYS, "caps")
        # .inf is the same as no cap, the default
        if sec.get("max_distance_m") != math.inf:
            parts["max_distance_m"] = _number(sec, "max_distance_m", "caps")

    try:
        return Scenario(**parts)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; all errors become ScenarioFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=CSafeLoader)
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"scenario file is not valid YAML: {exc}") from exc
    if data is None:
        raise ScenarioFormatError("scenario file is empty")
    return scenario_from_dict(data)


def file_sha256(path: str) -> str:
    """Leading _SHA256_DIGITS hex digits of the file's SHA-256, for provenance."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:_SHA256_DIGITS]
