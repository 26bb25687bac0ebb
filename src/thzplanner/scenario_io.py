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
from typing import Any, Dict, List, Mapping, Optional, Sequence

import yaml
from yaml import CSafeLoader

from .channel import FrequencyGrid, GaussianFit, RadioParams
from .optimizer import Scenario
from .reliability import EdgeProfile, QosTarget, TaskProfile, UserProfile

_TASK_KEYS = ("L_a_bits", "mu_a_cycles")
_RADIO_KEYS = ("B_hz", "p_w", "gt_dbi", "gr_dbi", "noise_dbm")
_EDGE_KEYS = ("f_m_cycles_per_s",)
_QOS_KEYS = ("epsilon_s", "theta_th")
_GRID_KEYS = ("freqs_ghz",)
_USER_KEYS = ("lambda_jobs_per_s", "f_l_cycles_per_s")
_FIT_KEYS = ("a_db_per_km", "b_ghz", "c_ghz")
_CAPS_KEYS = ("max_distance_m",)
_TOP_KEYS = ("task", "radio", "edge", "qos", "grid", "users", "fit", "caps")
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


def _section(data: Mapping, key: str) -> Mapping:
    if key not in data:
        raise ScenarioFormatError(f"{key}: missing required section")
    return _require_mapping(data[key], key)


def scenario_from_dict(data: Mapping) -> Scenario:
    """Build and validate a Scenario from already-parsed YAML data."""
    _require_mapping(data, "scenario")
    _reject_unknown(data, _TOP_KEYS, "scenario")

    sec = _section(data, "task")
    _reject_unknown(sec, _TASK_KEYS, "task")
    task = TaskProfile(
        mean_job_bits=_number(sec, "L_a_bits", "task"),
        mean_job_cycles=_number(sec, "mu_a_cycles", "task"),
    )

    sec = _section(data, "radio")
    _reject_unknown(sec, _RADIO_KEYS, "radio")
    radio = RadioParams(
        bandwidth_hz=_number(sec, "B_hz", "radio"),
        power_w=_number(sec, "p_w", "radio"),
        tx_gain_dbi=_number(sec, "gt_dbi", "radio"),
        rx_gain_dbi=_number(sec, "gr_dbi", "radio"),
        noise_dbm=_number(sec, "noise_dbm", "radio"),
    )

    sec = _section(data, "edge")
    _reject_unknown(sec, _EDGE_KEYS, "edge")
    edge = EdgeProfile(cpu_hz=_number(sec, "f_m_cycles_per_s", "edge"))

    sec = _section(data, "qos")
    _reject_unknown(sec, _QOS_KEYS, "qos")
    qos = QosTarget(
        delay_s=_number(sec, "epsilon_s", "qos"),
        min_reliability=_number(sec, "theta_th", "qos"),
    )

    sec = _section(data, "grid")
    _reject_unknown(sec, _GRID_KEYS, "grid")
    if "freqs_ghz" not in sec:
        raise ScenarioFormatError("grid.freqs_ghz: missing required key")
    raw_freqs = sec["freqs_ghz"]
    if not isinstance(raw_freqs, Sequence) or isinstance(raw_freqs, (str, bytes)):
        raise ScenarioFormatError("grid.freqs_ghz: expected a list of numbers")
    freqs: List[float] = []
    for i, f in enumerate(raw_freqs):
        freqs.append(_scalar_number(f, f"grid.freqs_ghz[{i}]"))
    try:
        grid = FrequencyGrid(freqs_ghz=tuple(sorted(freqs)))
    except ValueError as exc:
        raise ScenarioFormatError(f"grid.freqs_ghz: {exc}") from exc

    if "users" not in data:
        raise ScenarioFormatError("users: missing required section")
    raw_users = data["users"]
    if not isinstance(raw_users, Sequence) or isinstance(raw_users, (str, bytes)):
        raise ScenarioFormatError("users: expected a list of mappings")
    users = []
    for i, raw in enumerate(raw_users):
        path = f"users[{i}]"
        node = _require_mapping(raw, path)
        _reject_unknown(node, _USER_KEYS, path)
        users.append(
            UserProfile(
                arrival_rate=_number(node, "lambda_jobs_per_s", path),
                local_cpu_hz=_number(node, "f_l_cycles_per_s", path),
            )
        )
    if not users:
        raise ScenarioFormatError("users: need at least one user")

    fit: Optional[GaussianFit] = None
    if "fit" in data:
        raw_fit = data["fit"]
        if not isinstance(raw_fit, Sequence) or isinstance(raw_fit, (str, bytes)):
            raise ScenarioFormatError("fit: expected a list of 7 term mappings")
        terms = []
        for i, raw in enumerate(raw_fit):
            path = f"fit[{i}]"
            node = _require_mapping(raw, path)
            _reject_unknown(node, _FIT_KEYS, path)
            terms.append(
                (
                    _number(node, "a_db_per_km", path),
                    _number(node, "b_ghz", path),
                    _number(node, "c_ghz", path),
                )
            )
        if len(terms) != 7:
            raise ScenarioFormatError(
                f"fit: attenuation fit needs exactly 7 Gaussian terms, got {len(terms)}"
            )
        fit = GaussianFit(terms=tuple(terms))

    max_distance_m = float("inf")
    if "caps" in data:
        sec = _require_mapping(data["caps"], "caps")
        _reject_unknown(sec, _CAPS_KEYS, "caps")
        # .inf is the same as no cap, the default
        if sec.get("max_distance_m") != max_distance_m:
            max_distance_m = _number(sec, "max_distance_m", "caps")

    kwargs: Dict[str, Any] = dict(
        task=task,
        radio=radio,
        edge=edge,
        qos=qos,
        grid=grid,
        users=tuple(users),
        max_distance_m=max_distance_m,
    )
    if fit is not None:
        kwargs["fit"] = fit
    try:
        return Scenario(**kwargs)
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
