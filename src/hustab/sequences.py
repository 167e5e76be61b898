"""Coefficient sequences (a_n, b_n) for the recursion z_{n+1} = a_n z_n + b_n.

A CoefficientSpec is an immutable generator of coefficient pairs, indexed
from n = 1. Four kinds exist: a single constant pair, a periodic list, a
named formula family, and a finite table with an explicit tail rule. Every
spec of listed entries is a prefix plus a cycle, or a table with nothing
past its end: index n reads entry n up to the entry where the cycle
starts (cycle_start), then the cycle repeats for ever. A constant or a
period is a cycle from entry 1, a repeat-tail table a cycle of its last
entry.
coeff_arrays is the one definition of the coefficients: it returns the
columns a reader names, out of a_n, b_n, log|a_n| and arg a_n, over a whole
index array, and every reader (the ledger, the cycle classifier, the
orbits) goes through it. Only the named columns are computed. Formula
families give log|a_n| from its exact closed form, so log-domain
accumulation does not have to go through exp/log round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import IndexOutOfRange, InvalidSpec

KINDS = ("constant", "periodic", "formula", "table")
TAIL_RULES = ("repeat", "error")
COLUMNS = ("a", "b", "log_abs", "arg")
FORMULA_FAMILIES = ("near_parabolic", "sparse3_squares")
BUILTIN_NAMES = (
    "near_parabolic",
    "alternating_2_half",
    "period3_2_i_third",
    "sparse3_periodic",
    "sparse3_squares",
    "constant",
)


@dataclass(frozen=True)
class FormulaSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CoefficientSpec:
    """Immutable description of the coefficient pairs (a_n, b_n), n >= 1.

    kind:     one of "constant", "periodic", "formula", "table"
    entries:  read-only (k, 2) complex array of the listed (a, b) rows of a
              constant (k = 1: a cycle of one), periodic or table spec
    formula:  family name + parameters                     (kind=formula)
    tail:     "repeat" (repeat last entry) or "error" past the table end

    Specs compare and hash by identity: an array field has no truth value.
    """

    kind: str
    entries: np.ndarray | None = None
    formula: FormulaSpec | None = None
    tail: str = "error"

    @property
    def cycle_start(self) -> int | None:
        """The entry s at which the cycle of a listed spec starts: index n
        reads entry n before s, and entries s..k repeat for ever from n = s. It
        is 1 for a constant or a period and k for a repeat-tail table, whose
        cycle is its last entry; an error tail or a formula has none (None).
        Derived from kind and tail, so the wire format does not hold it."""
        if self.kind in ("constant", "periodic"):
            return 1
        if self.kind == "table" and self.tail == "repeat":
            return len(self.entries)
        return None

    @cached_property
    def _slots(self) -> np.ndarray:
        """The (2, k + 1) complex array whose rows are the a and the b of the
        listed entries, entry j in slot j and the last entry in slot 0 as
        well, so index n reads slot n, or slot n % k in a cycle of k from
        entry 1, with no index temporary; each row contiguous (np.take
        copies a strided source whole)."""
        entries = np.asarray(self.entries, complex)
        return np.ascontiguousarray(np.concatenate([entries[-1:], entries]).T)

    @cached_property
    def _log_abs(self) -> np.ndarray:
        """log|a| of each entry slot, taken once and kept: a read costs O(1)."""
        a = self._slots[0]
        # np.hypot is abs(complex) bit for bit but for NaN payloads; validate
        # refuses what would warn here: a non-finite a, an overflowing |a|
        with np.errstate(over="ignore", invalid="ignore"):
            mod = np.hypot(a.real, a.imag)
        log_abs = np.fromiter(map(math.log, np.where(mod, mod, 1.0).tolist()), float, len(a))
        log_abs[mod == 0] = -math.inf
        return log_abs

    @cached_property
    def _arg(self) -> np.ndarray:
        """arg a of each entry slot, taken on first read and kept."""
        a = self._slots[0]
        # math.atan2 is cmath.phase without its refusal of a subnormal angle
        return np.fromiter(map(math.atan2, a.imag.tolist(), a.real.tolist()), float, len(a))

    def _entry_slots(self, name: str) -> np.ndarray:
        """Column name of the entry slots; a and b are rows of _slots."""
        if name in ("a", "b"):
            return self._slots[COLUMNS.index(name)]
        return self._log_abs if name == "log_abs" else self._arg

    def _entry_column(self, name: str) -> np.ndarray:
        """Column name of the listed entries, entry j at j - 1."""
        return self._entry_slots(name)[1:]


def _formula_column(fam: FormulaSpec, n: np.ndarray, name: str) -> np.ndarray:
    """Column name of a formula family over n."""
    if fam.name == "near_parabolic":
        # a_n = (1 + 1/n^2)^2 e^{2 pi alpha i},  b_n = -2 a_n
        # alpha mod 1 is exact, and keeps every digit of a large alpha's phase
        ang = 2.0 * math.pi * math.fmod(float(fam.params.get("alpha", 0.0)), 1.0)
        if name == "arg":
            return np.full(n.shape, ang)
        x = 1.0 / np.square(n.astype(float))
        if name == "log_abs":
            return 2.0 * np.log1p(x)
        mag = np.square(1.0 + x)
        del x  # full-length temporaries go as soon as they are used
        a = np.empty(n.shape, dtype=complex)
        a.real = mag * math.cos(ang)
        a.imag = mag * math.sin(ang)
        del mag
        return a if name == "a" else -2.0 * a
    if fam.name == "sparse3_squares":
        # a_n = 3 when n is a perfect square, else 1; b_n = 5
        if name in ("b", "arg"):
            return np.full(n.shape, 5.0 + 0.0j) if name == "b" else np.zeros(n.shape)
        r = np.rint(np.sqrt(n)).astype(np.int64)
        square = r * r == n
        return np.where(square, 3.0 + 0.0j, 1.0 + 0.0j) if name == "a" else np.where(square, math.log(3.0), 0.0)
    raise InvalidSpec(f"unknown formula family {fam.name!r}")


def coeff_arrays(spec: CoefficientSpec, n, *columns: str) -> tuple[np.ndarray, ...]:
    """The named columns, out of COLUMNS = (a_n, b_n, log|a_n|, arg a_n), for
    every index in the integer array n >= 1; all four when none is named.

    The one definition of the coefficients, and only the named columns are
    computed. Listed specs take the log and phase of each entry once, on
    first read, then gather: index n reads entry n before the cycle start,
    a cycle of one by clipping at its entry, a period mod its length;
    an error-tail table refuses an index past its end. Formula families
    evaluate their closed forms over the array. Same spec and n give
    identical values bit for bit, whichever columns are named with them. A
    zero a_n is refused when a or log|a| is read: log|a_n| = -inf exactly
    where a_n = 0.
    """
    columns = columns or COLUMNS
    if not set(columns) <= set(COLUMNS):
        raise ValueError(f"coefficient columns must be among {COLUMNS}, got {columns}")
    n = np.asarray(n, dtype=np.int64)
    if n.size and n.min() < 1:
        raise IndexError(f"coefficient index must be >= 1, got {int(n.min())}")
    if spec.kind == "formula":
        out = tuple(_formula_column(spec.formula, n, c) for c in columns)
    else:
        size, start = len(spec.entries), spec.cycle_start
        if start is None and n.size and n.max() > size:
            raise IndexOutOfRange(f"table of length {size} read at n={int(n[n > size][0])} with error tail")
        slot = n
        if start is not None and start < size:  # a cycle of more than one entry starts at entry 1
            slot = n % size
        out = tuple(spec._entry_slots(c).take(slot, mode="clip") for c in columns)
    for name, col in zip(columns, out):
        if name in ("a", "log_abs"):  # name the first index whose a_n = 0
            zero = col == (0 if name == "a" else -math.inf)
            if zero.any():
                raise InvalidSpec(f"a_{int(n.flat[np.argmax(zero)])} = 0")
            break
    return out


def validate(spec: CoefficientSpec) -> CoefficientSpec:
    """Check every statically checkable invariant; return the spec unchanged.

    Constant, periodic and table specs are checked over their listed
    entries: each a_n and b_n must be finite, each |a_n| within float range
    and each a_n nonzero; the first offending entry is named. Formula
    families are checked by rule (both builtin families are zero-free for
    all n), and their parameters must be finite numbers. Raises InvalidSpec
    on violation: a zero a, no listed entry, an unknown family, a value
    that is not finite. An unknown kind or tail rule raises ValueError.
    """
    if spec.kind not in KINDS:
        raise ValueError(f"unknown spec kind {spec.kind!r}")
    if spec.kind == "formula":
        if spec.formula is None or spec.formula.name not in FORMULA_FAMILIES:
            name = None if spec.formula is None else spec.formula.name
            raise InvalidSpec(f"unknown formula family {name!r}")
        for key, val in spec.formula.params.items():
            if not _is_finite_number(val):
                raise InvalidSpec(f"formula parameter {key!r} = {val!r} is not a finite number")
        return spec
    if not len(spec.entries):
        raise InvalidSpec(f"{spec.kind} spec has no entries")
    if spec.kind == "table" and spec.tail not in TAIL_RULES:
        raise ValueError(f"table tail rule must be one of {TAIL_RULES}, got {spec.tail!r}")
    a, b, log_mag = (spec._entry_column(c) for c in ("a", "b", "log_abs"))
    bad = ~(np.isfinite(a) & np.isfinite(b))
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidSpec(f"{_entry_name(spec, k)} is not finite: a = {a[k]}, b = {b[k]}")
    k = int(np.argmax(log_mag))
    if log_mag[k] == math.inf:  # a finite a whose modulus overflows
        raise InvalidSpec(f"{_entry_name(spec, k)} has |a| past float range: a = {a[k]}")
    if not a.all():
        raise InvalidSpec(f"{_entry_name(spec, int(np.argmin(a != 0)))} has a = 0")
    return spec


def _entry_name(spec: CoefficientSpec, k: int) -> str:
    """How errors name listed entry k + 1."""
    if spec.kind == "constant":
        return "constant spec"
    return f"{_WIRE_FIELDS[spec.kind]} entry {k + 1}"


def constant_spec(a: complex, b: complex) -> CoefficientSpec:
    return validate(CoefficientSpec(kind="constant", entries=_pair_array([(a, b)])))


def _read_only(entries: np.ndarray) -> np.ndarray:
    entries.flags.writeable = False
    return entries


def _pair_array(pairs) -> np.ndarray:
    """The read-only (n, 2) complex array of (a, b) pairs."""
    return _read_only(np.array([(complex(a), complex(b)) for a, b in pairs], complex).reshape(-1, 2))


def periodic_spec(pairs) -> CoefficientSpec:
    return validate(CoefficientSpec(kind="periodic", entries=_pair_array(pairs)))


def table_spec(pairs, tail: str = "error") -> CoefficientSpec:
    return validate(CoefficientSpec(kind="table", entries=_pair_array(pairs), tail=tail))


def builtin_example(
    name: str,
    alpha: float | None = None,
    p: int | None = None,
    a: complex | None = None,
    b: complex | None = None,
) -> CoefficientSpec:
    """Named example sequences, with their original b-values.

    near_parabolic(alpha):  a_n = (1 + 1/n^2)^2 e^{2 pi alpha i}, b_n = -2 a_n;
                            the n -> infinity limit map is z -> e^{2 pi alpha i}(z - 2).
    alternating_2_half:     a = 2, 1/2, 2, 1/2, ...; b = 5.
    period3_2_i_third:      a = 2, i, 1/3 repeating; b = 5.
    sparse3_periodic(p):    a_n = 3 when p divides n, else 1; b = 5.
    sparse3_squares:        a_n = 3 when n is a perfect square, else 1; b = 5.
    constant(a, b):         fixed pair.
    """
    if name == "near_parabolic":
        params = {"alpha": float(alpha if alpha is not None else 0.0)}
        return validate(CoefficientSpec(kind="formula", formula=FormulaSpec("near_parabolic", params)))
    if name == "alternating_2_half":
        return periodic_spec([(2.0, 5.0), (0.5, 5.0)])
    if name == "period3_2_i_third":
        return periodic_spec([(2.0, 5.0), (1j, 5.0), (1.0 / 3.0, 5.0)])
    if name == "sparse3_periodic":
        p = int(p if p is not None else 3)
        if p < 1:
            raise ValueError(f"sparse3_periodic needs p >= 1, got {p}")
        pairs = [(1.0, 5.0)] * (p - 1) + [(3.0, 5.0)]
        return periodic_spec(pairs)
    if name == "sparse3_squares":
        return validate(CoefficientSpec(kind="formula", formula=FormulaSpec("sparse3_squares")))
    if name == "constant":
        return constant_spec(a if a is not None else 2.0, b if b is not None else 5.0)
    raise InvalidSpec(f"no builtin example named {name!r}")


# ---------------------------------------------------------------------------
# JSON wire format. Field names are part of the external interface:
#   {"kind": ..., "constant": [re,im,re,im], "period": [[re,im,re,im], ...],
#    "formula": {"name": ..., "params": {...}}, "table": [...], "tail": ...}

# The field that holds the listed entries of each kind; a constant's holds
# its one pair, not a list of pairs.
_WIRE_FIELDS = {"constant": "constant", "periodic": "period", "table": "table"}

# The Python types of JSON numbers; bool, an int subclass, is not one.
_NUMBER_TYPES = frozenset({int, float})


def _is_finite_number(v) -> bool:
    """Whether v is a JSON number of finite float value."""
    try:
        return type(v) in _NUMBER_TYPES and math.isfinite(v)
    except OverflowError:  # an int past float range
        return False


def _check_pair(vals) -> None:
    """Raise InvalidSpec, naming vals, unless it is 4 numbers in float range."""
    if type(vals) is not list or len(vals) != 4 or not _NUMBER_TYPES.issuperset(map(type, vals)):
        raise InvalidSpec(f"a coefficient pair must be 4 numbers [re a, im a, re b, im b], got {vals!r}")
    try:
        list(map(float, vals))
    except OverflowError:
        raise InvalidSpec(f"coefficient pair {vals!r} leaves float range") from None


def _entries_from_lists(pairs: list) -> np.ndarray:
    """The read-only (n, 2) complex array of a JSON list of pairs. Tables
    run to 1e5+ pairs, so the list is checked by C-level maps and read by
    one np.fromiter, which rounds as float() does. Only a list that fails a
    check, or holds an int past float range, is walked pair by pair."""
    if (
        {list}.issuperset(map(type, pairs))
        and {4}.issuperset(map(len, pairs))
        and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(pairs)))
    ):
        try:
            values = np.fromiter(chain.from_iterable(pairs), float, 4 * len(pairs))
            return _read_only(values.view(complex).reshape(-1, 2))
        except OverflowError:
            pass
    for vals in pairs:
        _check_pair(vals)  # raises at the first bad pair
    raise AssertionError("a list of pairs failed a check that no pair fails")


def spec_to_json(spec: CoefficientSpec) -> dict:
    if spec.kind == "formula":
        return {"kind": "formula", "formula": {"name": spec.formula.name, "params": dict(spec.formula.params)}}
    rows = spec.entries.view(float).reshape(-1, 4).tolist()
    data = {"kind": spec.kind, _WIRE_FIELDS[spec.kind]: rows[0] if spec.kind == "constant" else rows}
    if spec.kind == "table":
        data["tail"] = spec.tail
    return data


_JSON_KINDS = {list: "array", dict: "object", str: "string"}


def _field(doc: dict, key: str, kind: type, where: str):
    """doc[key], which must be present and hold the given JSON kind."""
    val = doc.get(key)
    if not isinstance(val, kind):
        raise InvalidSpec(f"{where} needs a {key!r} field holding a JSON {_JSON_KINDS[kind]}, got {val!r}")
    return val


def spec_from_json(data: dict) -> CoefficientSpec:
    """The spec a wire-format document describes, validated.

    Raises InvalidSpec when the document is not an object, lacks a field
    its kind needs or holds it with the wrong JSON type, or has a pair that
    is not four numbers; validate then rejects non-finite values.
    """
    if not isinstance(data, dict):
        raise InvalidSpec(f"a spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in KINDS:
        raise InvalidSpec(f"unknown spec kind {kind!r}")
    if kind == "formula":
        f = _field(data, "formula", dict, "a formula spec")
        name = _field(f, "name", str, "a formula")
        params = f.get("params", {})
        if not isinstance(params, dict):
            raise InvalidSpec(f"formula params must be a JSON object, got {params!r}")
        return validate(CoefficientSpec(kind="formula", formula=FormulaSpec(name, dict(params))))
    pairs = _field(data, _WIRE_FIELDS[kind], list, f"a {kind} spec")
    entries = _entries_from_lists([pairs] if kind == "constant" else pairs)
    tail = data.get("tail", "error") if kind == "table" else "error"
    return validate(CoefficientSpec(kind=kind, entries=entries, tail=tail))
