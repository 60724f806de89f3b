"""Deterministic numeric substrate and JSON reader shared by every other module.

All randomness in the toolkit flows through :class:`RngStream`, a
splitmix64 generator. Parallel work (ensemble members, CV folds, sweep
cells) derives disjoint sub-streams so results never depend on thread
scheduling.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

THREADS_ENV_VAR = "ONCOGRADE_THREADS"


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class RngStream:
    """Splitmix64 stream; the output sequence is a pure function of the seed."""

    origin_seed: int
    state: int = field(init=False)

    def __post_init__(self):
        self.origin_seed = self.origin_seed & _MASK64
        self.state = self.origin_seed

    def uniforms(self, size: int) -> np.ndarray:
        """``size`` uniforms in [0, 1), each the top 53 bits of the next
        splitmix64 word, made in one block: the generator is counter-based, so
        word ``k`` mixes ``state + k * golden`` and needs none before it.
        Every draw below is built on this one."""
        steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = steps + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self.state = (self.state + size * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def randints(self, n: int, size: int) -> np.ndarray:
        """``size`` uniform integers in [0, n), each ``floor(uniform * n)``."""
        if n <= 0:
            raise ValueError("randints requires n >= 1")
        return (self.uniforms(size) * n).astype(np.int64)

    def normals(self, size: int) -> np.ndarray:
        """``size`` standard normals, each from two uniforms by :func:`box_muller`."""
        return box_muller(self.uniforms(2 * size).reshape(size, 2))

    def derive(self, index: int) -> "RngStream":
        """Disjoint sub-stream for task `index`; same (seed, index) -> same stream."""
        mixed = (index * _GOLDEN) & _MASK64
        seed = _mix64(((self.origin_seed ^ mixed) + _GOLDEN) & _MASK64)
        return RngStream(seed)


def box_muller(uv: np.ndarray) -> np.ndarray:
    """Box-Muller normals from the uniform pairs ``uv[..., 0], uv[..., 1]``;
    ``u`` is clamped away from 0 so its log stays finite."""
    u = np.maximum(uv[..., 0], 2.0**-53)
    return np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * uv[..., 1])


def derive_stream(seed: int, index: int) -> RngStream:
    return RngStream(seed).derive(index)


def shuffle(indices, stream: RngStream) -> list:
    """Fisher-Yates permutation of `indices` driven by `stream`.

    Step ``i = n-1, ..., 1`` swaps in ``j = floor(u * (i + 1))``; all the
    ``j`` come from one block of ``n - 1`` uniforms.
    """
    out = list(indices)
    n = len(out)
    if n < 2:
        return out
    picks = (stream.uniforms(n - 1) * np.arange(n, 1, -1)).astype(np.int64)
    for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
        out[i], out[j] = out[j], out[i]
    return out


def as_matrix(data) -> np.ndarray:
    """Validate and return a 2-D float64 matrix with finite entries; called only where a matrix enters."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite values")
    return arr


# the JSON value each annotation reads: its noun, its plural and the test a
# value passes. Types are exact, so JSON true/false is never a number, and an
# integral float reads as an int. A bare dict or list is a section whose
# entries its reader checks.
_SCALARS = {
    int: ("an integer", "integers", lambda v: type(v) is int or type(v) is float and v.is_integer()),
    # NaN, ±inf and ints too large for a float all fail the comparison
    float: ("a number", "numbers", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
    str: ("a string", "strings", lambda v: type(v) is str),
    dict: ("a JSON object", "JSON objects", lambda v: type(v) is dict),
    list: ("a list", "lists", lambda v: type(v) is list),
}


def json_value(tp, value, where: str):
    """``value`` read as the annotated type ``tp``; ``where`` is its dotted
    path, which a refusal's ``ValueError`` names.

    A dataclass is read from a JSON object with no unknown keys and with
    every key that has no default, ``list[X]`` from a JSON list, a tuple of
    JSON values as one of them, and anything else by its `_SCALARS` rule.
    """
    if type(tp) is tuple:  # the value must equal one of these, by exact type
        if any(type(value) is type(choice) and value == choice for choice in tp):
            return value
        raise ValueError(f"{where} must be {' or '.join(map(json.dumps, tp))}, got {json.dumps(value)}")
    if type(None) in typing.get_args(tp):  # `X | None`: None only marks the field unset
        (tp,) = (arm for arm in typing.get_args(tp) if arm is not type(None))
    if dataclasses.is_dataclass(tp):
        name = where or "config"
        fields = dataclasses.fields(tp)
        unknown = set(json_value(dict, value, name)) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
        missing = [f.name for f in fields if f.name not in value and f.default is f.default_factory is MISSING]
        if missing:
            raise ValueError(f"{name} is missing key {missing[0]!r}")
        hints = typing.get_type_hints(tp)
        return tp(**{k: json_value(hints[k], v, f"{where}.{k}" if where else k) for k, v in value.items()})
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)  # a scalar, tested inline; the call only words a refused entry
        if type(value) is not list:
            raise ValueError(f"{where} must be a list of {_SCALARS[item][1]}, got {json.dumps(value)}")
        return [item(v) if _SCALARS[item][2](v) else json_value(item, v, f"{where} entry") for v in value]
    arms = typing.get_args(tp) or (tp,)  # gamma's `float | str` takes either
    for arm in arms:
        if _SCALARS[arm][2](value):
            return arm(value)
    kinds = " or ".join(_SCALARS[arm][0] for arm in arms)
    raise ValueError(f"{where} must be {kinds}, got {json.dumps(value)}")


def json_array(tp: type, value, refusal: str) -> np.ndarray:
    """``value``, a JSON number or a rectangular nested list of them, as one
    float64 array, or int64 when ``tp`` is ``int``.

    Each entry follows :func:`json_value`'s rule for a ``tp`` within the
    float range: strings, ``true``/``false``, ``null`` and ragged lists are
    refused, and so are non-finite values and, for ``int``, fractions
    (``2.0`` reads as 2) and values past int64. A refused entry raises
    ``ValueError(refusal.format(i, value[i]))``, ``i`` being its index
    along the first axis (0 and ``value`` itself for a scalar). One type
    scan and one conversion read the whole array.
    """
    cells = np.asarray(value, dtype=object)
    flat = cells.ravel()
    try:  # exact types, so a bool is refused; an int past the float range raises OverflowError
        out = flat.astype(np.float64) if set(map(type, flat)) <= {int, float} else None
    except OverflowError:
        out = None
    if out is None:  # refused; only then is each entry looked at
        ok = np.array([_SCALARS[float][2](v) and _SCALARS[tp][2](v) for v in flat.tolist()], dtype=bool)
    else:
        ok = np.isfinite(out)
        if tp is int:
            ok &= (out == np.trunc(out)) & (np.abs(out) < 2.0**63)
    if not ok.all():
        bad = int(np.argmin(ok))
        i = int(np.unravel_index(bad, cells.shape)[0]) if cells.ndim else 0
        if isinstance(flat[bad], (list, tuple)):  # ragged: blame the first entry shaped unlike most
            shapes = [np.asarray(v, dtype=object).shape for v in value]
            common = max(set(shapes), key=shapes.count)
            i = next((k for k, shape in enumerate(shapes) if shape != common), i)
        raise ValueError(refusal.format(i, value[i] if cells.ndim else value))
    return (out.astype(np.int64) if tp is int else out).reshape(cells.shape)


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 0
    try:
        n = int(raw)
    except ValueError:
        return 0
    return max(n, 0)


def parallel_map(fn, items: list) -> list:
    """Map preserving order; threads capped by ONCOGRADE_THREADS (0 = sequential).

    Only the main thread starts a pool: a call made on any other thread (a
    bagging member map inside a CV fold's worker, say) runs its items on
    the caller's thread, so pools never nest.

    Each item must carry its own derived stream, so the result is
    bit-identical regardless of the worker count.
    """
    n = worker_count()
    if n <= 1 or len(items) <= 1 or threading.current_thread() is not threading.main_thread():
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
