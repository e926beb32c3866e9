"""Distributions with atoms and piecewise-uniform continuous parts.

A :class:`Distribution` is a mixture of point masses and uniform-density
intervals.  All functional evaluation happens on the canonical pure-atom form
(:class:`QuantizedModel`): atoms pass through untouched, and every uniform
piece of mass ``w`` is replaced by ``m`` atoms of mass ``w/m`` placed at the
conditional quantile midpoints of the piece.  For a purely atomic source the
quantization is exact and evaluation results carry no discretization error.

All values are immutable after construction; every operation is a pure
function, safe for concurrent use.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .accumulate import half_tie

#: Absolute tolerance for probability-mass comparisons.  Support-point
#: comparisons are always exact.
MASS_TOL = 1e-12

#: Guard against runaway node counts when quantizing many pieces.
DEFAULT_MAX_NODES = 2_000_000


class DistributionError(ValueError):
    """Invalid distribution data: bad masses, ordering or overlap."""


@dataclass(frozen=True)
class Piece:
    """Uniform-density interval (lo, hi) carrying total mass `mass`."""

    lo: float
    hi: float
    mass: float


def _is_number(value) -> bool:
    """Whether a spec value is a number, not a string, null, boolean or list."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _spec_numbers(fields: dict, where: str, error=DistributionError) -> list[float]:
    """``float`` of each named spec field.  A value that is not a number (a
    string, null, a boolean, a list, an int too large for a double) raises
    `error` naming the field after `where`."""
    out = []
    for name, value in fields.items():
        try:
            if not _is_number(value):
                raise TypeError
            out.append(float(value))
        except (TypeError, OverflowError):
            raise error(f"{where}{name} must be a number") from None
    return out


def _no_unknown_fields(spec: dict, known, where: str, error=DistributionError) -> None:
    """Raise `error` naming the first field of `spec` that is not `known`."""
    for name in spec:
        if name not in known:
            raise error(f"{where}unknown field {name!r}")


def _mass_total(masses) -> float:
    """Exact sum of nonnegative masses (``math.fsum``), inf if it overflows."""
    try:
        return math.fsum(masses)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Distribution:
    """Probability distribution given by atoms plus uniform pieces.

    Atoms are ``(location, mass)`` pairs; pieces carry a constant density
    ``mass / (hi - lo)`` on the open interval ``(lo, hi)``.  Construction
    sorts atoms, merges duplicate locations, drops zero-mass components and
    validates that the total mass is 1 (within :data:`MASS_TOL`), that piece
    interiors are pairwise disjoint and that no atom sits strictly inside a
    piece.

    A cut at x splits the law in two sides: the lower side holds the atoms
    at or below x, the upper side those above it, and a piece that
    straddles x is split at x, each part keeping the mass of its share of
    the length.  ``cdf(x)`` is the mass of the lower side, ``left_cdf(x)``
    that mass without an atom at x, and :func:`conditional_truncate` the
    law of either side.  A NaN x cuts nothing into either side.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[Piece, ...] = ()

    def __post_init__(self) -> None:
        atoms = [(float(x), float(p)) for x, p in self.atoms]
        pieces = [
            pc if isinstance(pc, Piece) else Piece(*map(float, pc))
            for pc in self.pieces
        ]
        for x, p in atoms:
            if p < 0.0:
                raise DistributionError(f"atom at {x} has negative mass {p}")
            if not math.isfinite(x) or not math.isfinite(p):
                raise DistributionError(f"atom ({x}, {p}) is not finite")
        for pc in pieces:
            if not (math.isfinite(pc.lo) and math.isfinite(pc.hi) and math.isfinite(pc.mass)):
                raise DistributionError(f"piece ({pc.lo}, {pc.hi}, {pc.mass}) is not finite")
            if pc.mass < 0.0:
                raise DistributionError(
                    f"piece ({pc.lo}, {pc.hi}) has negative mass {pc.mass}"
                )
            if not pc.lo < pc.hi:
                raise DistributionError(
                    f"piece ({pc.lo}, {pc.hi}) must satisfy lo < hi"
                )

        # Merge duplicate atom locations; each support point appears once.
        merged: dict[float, float] = {}
        for x, p in atoms:
            if p == 0.0:
                continue
            merged[x] = merged.get(x, 0.0) + p
        atoms = sorted(merged.items())
        pieces = sorted((pc for pc in pieces if pc.mass > 0.0), key=lambda pc: pc.lo)

        for a, b in zip(pieces, pieces[1:]):
            if b.lo < a.hi:
                raise DistributionError(
                    f"pieces ({a.lo}, {a.hi}) and ({b.lo}, {b.hi}) overlap"
                )
        for x, _ in atoms:
            for pc in pieces:
                if pc.lo < x < pc.hi:
                    raise DistributionError(
                        f"atom at {x} lies inside piece ({pc.lo}, {pc.hi})"
                    )

        total = _mass_total([p for _, p in atoms] + [pc.mass for pc in pieces])
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")

        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "pieces", tuple(pieces))

    # -- CDF queries ------------------------------------------------------

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        atoms, pieces = _cut(self, x, upper=False)
        return math.fsum([p for _, p in atoms] + [pc.mass for pc in pieces])

    def left_cdf(self, x: float) -> float:
        """P(X < x)."""
        atoms, pieces = _cut(self, x, upper=False)
        return math.fsum([p for loc, p in atoms if loc < x] + [pc.mass for pc in pieces])

    def point_mass(self, x: float) -> float:
        """P(X = x); nonzero only at atom locations."""
        for loc, p in self.atoms:
            if loc == x:
                return p
        return 0.0

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_spec_dict(cls, obj: dict) -> "Distribution":
        """Build from the JSON document form.

        ``{"atoms": [[x, p], ...], "pieces": [{"lo": a, "hi": b, "mass": w}, ...]}``
        """
        if not isinstance(obj, dict):
            raise DistributionError("distribution spec must be a JSON object")
        _no_unknown_fields(obj, ("atoms", "pieces"), "distribution spec: ")
        atoms_raw = obj.get("atoms", [])
        pieces_raw = obj.get("pieces", [])
        if not isinstance(atoms_raw, list):
            raise DistributionError("/atoms: expected a list of [x, p] pairs")
        if not isinstance(pieces_raw, list):
            raise DistributionError("/pieces: expected a list of objects")
        atoms = []
        for i, entry in enumerate(atoms_raw):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise DistributionError(f"/atoms/{i}: expected a [location, mass] pair")
            atoms.append(_spec_numbers({"location": entry[0], "mass": entry[1]}, f"/atoms/{i}: "))
        pieces = []
        for i, entry in enumerate(pieces_raw):
            if not isinstance(entry, dict):
                raise DistributionError(f"/pieces/{i}: expected an object with lo/hi/mass")
            _no_unknown_fields(entry, ("lo", "hi", "mass"), f"/pieces/{i}: ")
            try:
                fields = {name: entry[name] for name in ("lo", "hi", "mass")}
            except KeyError as exc:
                raise DistributionError(f"/pieces/{i}: missing field {exc.args[0]!r}") from None
            pieces.append(Piece(*_spec_numbers(fields, f"/pieces/{i}: ")))
        return cls(atoms=tuple(atoms), pieces=tuple(pieces))

    def to_spec_dict(self) -> dict:
        return {
            "atoms": [[x, p] for x, p in self.atoms],
            "pieces": [{"lo": pc.lo, "hi": pc.hi, "mass": pc.mass} for pc in self.pieces],
        }


def _cut(dist: Distribution, x: float, upper: bool) -> tuple[list, list[Piece]]:
    """The atoms and pieces of `dist` on the lower (or `upper`) side of the
    cut at x, each straddling piece split at x.  Every comparison is one a
    NaN x fails."""
    atoms = [(loc, p) for loc, p in dist.atoms if (loc > x if upper else loc <= x)]
    pieces = []
    for pc in dist.pieces:
        if (pc.lo >= x if upper else pc.hi <= x):
            pieces.append(pc)
        elif (pc.hi > x if upper else pc.lo < x):
            pieces.append(_part(pc, x, pc.hi) if upper else _part(pc, pc.lo, x))
    return atoms, pieces


def _part(pc: Piece, lo: float, hi: float) -> Piece:
    """The part (lo, hi) of piece `pc`, with the mass of its share of the length."""
    return Piece(lo, hi, pc.mass * (hi - lo) / (pc.hi - pc.lo))


def make_discrete(points: Sequence[float], probs: Sequence[float]) -> Distribution:
    """Atomic distribution on `points` with masses `probs`.

    Points are sorted and duplicates merged; probabilities must be
    nonnegative and sum to 1 within :data:`MASS_TOL`.
    """
    if len(points) != len(probs):
        raise DistributionError(
            f"got {len(points)} points but {len(probs)} probabilities"
        )
    return Distribution(atoms=tuple(zip(map(float, points), map(float, probs))))


def make_uniform_interval(a: float, b: float) -> Distribution:
    """Uniform distribution on the interval (a, b)."""
    if not a < b:
        raise DistributionError(f"need a < b, got a={a}, b={b}")
    return Distribution(pieces=(Piece(float(a), float(b), 1.0),))


def _check_model(support: np.ndarray, mass: np.ndarray) -> None:
    """Raise :class:`DistributionError` naming the first :class:`QuantizedModel`
    invariant that `support` and `mass` fail, checked in this order: finite,
    strictly increasing, positive masses, masses summing to 1 within
    :data:`MASS_TOL` (decided as by the exact sum ``math.fsum``).

    The masses are summed plainly, in k blocks of c entries (k and c about
    sqrt(size), zero-padded), within the blocks and then across them.  The
    masses are positive here, so in whatever order numpy adds them the sum
    t is within (c - 1 + k - 1) u t of the exact sum (u the unit roundoff,
    up to a factor 1 + O((k + c) u)), which is within u t of ``math.fsum``'s.
    A sum whose |t - 1| lies further than twice that from MASS_TOL is
    decided as ``math.fsum`` decides it; only a sum nearer than that, or one
    that overflows, is taken by ``math.fsum``.
    """
    if not (np.isfinite(support).all() and np.isfinite(mass).all()):
        raise DistributionError("support and mass must be finite")
    if (support[1:] <= support[:-1]).any():
        raise DistributionError("support must be strictly increasing")
    if (mass <= 0.0).any():
        raise DistributionError("all masses must be positive")
    c = math.isqrt(mass.size - 1) + 1
    k = -(-mass.size // c)
    blocks = np.zeros(k * c)
    blocks[: mass.size] = mass
    with np.errstate(over="ignore"):
        total = float(blocks.reshape(k, c).sum(axis=-1).sum())
    off = abs(total - 1.0)
    if not abs(off - MASS_TOL) > 2.0 * (k + c) * (np.finfo(float).eps / 2) * total:
        off = abs(_mass_total(mass.tolist()) - 1.0)
    if off > MASS_TOL:
        raise DistributionError("masses must sum to 1")


@dataclass(frozen=True)
class QuantizedModel:
    """Canonical pure-atom evaluation form.

    ``support`` is strictly increasing, ``mass`` is positive and sums to 1
    within :data:`MASS_TOL`; construction checks all three, and that every
    entry is finite, by :func:`_check_model` (a plain blocked sum of the
    masses, with ``math.fsum`` only when that sum is too close to the
    tolerance to decide) and raises with the first one that fails.
    ``is_exact`` is True when the source distribution had no continuous
    pieces, in which case every evaluation on this model is exact for the
    source.  The
    model keeps no resolution: a report's ``m`` is its :attr:`node_count`.
    """

    support: np.ndarray
    mass: np.ndarray
    is_exact: bool = True

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float).ravel()
        mass = np.asarray(self.mass, dtype=float).ravel()
        if support.size == 0:
            raise DistributionError("empty support")
        if support.size != mass.size:
            raise DistributionError(
                f"{support.size} support points but {mass.size} masses"
            )
        _check_model(support, mass)
        support.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)

    @property
    def node_count(self) -> int:
        return int(self.support.size)

    def midpoint_cdf(self) -> np.ndarray:
        """Half-tie CDF at the nodes: F(x-) + p/2."""
        return half_tie(self.mass, "below")


def quantize(dist: Distribution, m: int, cut: float | None = None) -> QuantizedModel:
    """Reduce `dist` to a pure-atom model at resolution `m`.

    Atoms pass through unchanged, so a law without pieces gives the same
    model at every `m`.  A piece of mass ``w`` on ``(lo, hi)`` becomes
    ``m`` atoms of mass ``w/m`` at ``lo + (hi-lo)(k-1/2)/m``, an ascending
    run of strictly interior midpoints.  With a `cut` strictly
    inside a piece, that piece is first split at the cut into its two
    parts, as the two sides of the cut hold them (see :class:`Distribution`),
    and each part becomes its own run of ``m`` atoms: the nodes on each
    side are then those of that side's conditional law quantized at `m`.
    A `cut` of None or NaN, or one inside no piece, leaves the model as
    without it.  The nodes need no sort:
    :class:`Distribution` keeps its atoms sorted, its pieces sorted with
    disjoint interiors and no atom inside a piece, so the model is the
    atoms merged with one run per piece, in piece order, each run placed
    after the atoms at or below its ``lo``.  The model's own check still
    proves the merged support strictly increasing.
    """
    if m < 1:
        raise ValueError(f"resolution m must be >= 1, got {m}")
    pieces = dist.pieces
    if cut is not None:
        pieces = [
            part
            for pc in pieces
            for part in ((_part(pc, pc.lo, cut), _part(pc, cut, pc.hi)) if pc.lo < cut < pc.hi else (pc,))
        ]
    node_count = len(dist.atoms) + m * len(pieces)
    if node_count > DEFAULT_MAX_NODES:
        raise DistributionError(
            f"quantization would create {node_count} nodes (limit {DEFAULT_MAX_NODES})"
        )
    locs, probs = np.array(dist.atoms, dtype=float).reshape(-1, 2).T
    ends = np.searchsorted(locs, [pc.lo for pc in pieces], side="right").tolist()
    # The node limit bounds m only through the pieces: build no run without one.
    steps = np.arange(1, m + 1) - 0.5 if pieces else None
    support, mass = [], []
    done = 0
    for pc, end in zip(pieces, ends):
        support += [locs[done:end], pc.lo + (pc.hi - pc.lo) * steps / m]
        mass += [probs[done:end], np.full(m, pc.mass / m)]
        done = end
    support.append(locs[done:])
    mass.append(probs[done:])
    return QuantizedModel(
        support=np.concatenate(support),
        mass=np.concatenate(mass),
        is_exact=not dist.pieces,
    )


def conditional_truncate(
    dist: Distribution, c: float, side: Literal["lower", "upper"]
) -> tuple[Distribution, float]:
    """Conditional law of X given X <= c (lower) or X > c (upper).

    Returns the conditional distribution of that side of the cut at `c`
    (see :class:`Distribution`) together with the probability of the
    conditioning event.  A side of probability at most MASS_TOL has no
    conditional law and raises DistributionError; a sure side gives the
    law itself.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    atoms, pieces = _cut(dist, c, side == "upper")
    # Summing the selected components directly keeps the conditional law's
    # total at 1 to the ulp; computing the upper mass as 1 - cdf(c) would
    # cancel catastrophically when the retained side is small.
    p_side = math.fsum([p for _, p in atoms] + [pc.mass for pc in pieces])
    if p_side <= MASS_TOL:
        raise DistributionError(
            f"conditioning on X {'<=' if side == 'lower' else '>'} {c} leaves probability {p_side!r}"
        )
    scaled_atoms = tuple((x, p / p_side) for x, p in atoms)
    scaled_pieces = tuple(Piece(pc.lo, pc.hi, pc.mass / p_side) for pc in pieces)
    return Distribution(atoms=scaled_atoms, pieces=scaled_pieces), p_side


class _Kind(NamedTuple):
    """A node-function kind: its spec fields, each with its default (None
    when the spec must give it), and its values at the nodes of a model."""

    fields: dict
    resolve: Callable


def node_values(values, model: QuantizedModel) -> np.ndarray:
    """`values` as a flat float array, one entry per node of `model`."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size != model.node_count:
        raise ValueError(f"value vector has {vals.size} entries but the model has {model.node_count} nodes")
    return vals


#: Node-function kind -> :class:`_Kind`; the one place each kind is dispatched.
_KINDS = {
    "values": _Kind({"values": None}, lambda f, model: node_values(f.values, model)),
    "constant": _Kind({"level": 1.0}, lambda f, model: np.full(model.node_count, f.level)),
    "identity": _Kind({}, lambda f, model: np.array(model.support, dtype=float)),
    "cos_pi_F": _Kind({}, lambda f, model: np.cos(math.pi * model.midpoint_cdf())),
    "step": _Kind(
        {"threshold": None, "low": None, "high": None},
        lambda f, model: np.where(model.support <= f.threshold, f.low, f.high),
    ),
}

NODE_FUNCTION_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class NodeFunction:
    """Function attached to the nodes of a quantized model.

    Either an explicit value vector (aligned to the node count of the target
    model) or one of the named analytic families:

    * ``constant`` -- the fixed ``level``,
    * ``identity`` -- the node location itself,
    * ``cos_pi_F`` -- ``cos(pi * Ftilde(x))`` with the half-tie CDF ``Ftilde``,
    * ``step`` -- ``low`` for ``x <= threshold``, else ``high``.
    """

    kind: str
    values: tuple[float, ...] | None = None
    level: float = 1.0
    threshold: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in NODE_FUNCTION_KINDS:
            raise ValueError(
                f"unknown node-function kind {self.kind!r}; expected one of {NODE_FUNCTION_KINDS}"
            )
        if self.kind == "values":
            if self.values is None:
                raise ValueError("kind 'values' requires a value vector")
            # The one check and conversion: from_spec and of_values pass the
            # values as given.  A string or a boolean is not a number, and
            # neither is an int too large for a double (float() overflows).
            try:
                if not all(map(_is_number, self.values)):
                    raise TypeError
                values = tuple(float(v) for v in self.values)
            except (TypeError, OverflowError):
                raise ValueError("node-function values must be a list of numbers") from None
            object.__setattr__(self, "values", values)
            if not all(math.isfinite(v) for v in self.values):
                raise ValueError("node-function values must be finite")
        for name in ("level", "threshold", "low", "high"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"node-function {name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def constant(cls, level: float = 1.0) -> "NodeFunction":
        return cls(kind="constant", level=float(level))

    @classmethod
    def identity(cls) -> "NodeFunction":
        return cls(kind="identity")

    @classmethod
    def cos_pi_cdf(cls) -> "NodeFunction":
        return cls(kind="cos_pi_F")

    @classmethod
    def step(cls, threshold: float, low: float, high: float) -> "NodeFunction":
        return cls(kind="step", threshold=float(threshold), low=float(low), high=float(high))

    @classmethod
    def of_values(cls, values: Iterable[float]) -> "NodeFunction":
        return cls(kind="values", values=tuple(values))

    def resolve(self, model: QuantizedModel) -> np.ndarray:
        """Evaluate at the nodes of `model`."""
        return _KINDS[self.kind].resolve(self, model)

    @classmethod
    def from_spec(cls, spec: dict | str) -> "NodeFunction":
        """Parse the JSON spec form, or a bare family name (a kind whose
        fields all have defaults)."""
        if isinstance(spec, str):
            name = spec.strip()
            if name not in _KINDS or None in _KINDS[name].fields.values():
                raise ValueError(f"unknown node-function name {name!r}")
            spec = {"kind": name}
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValueError("node-function spec must be an object with a 'kind' field")
        kind = spec["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown node-function kind {kind!r}")
        _no_unknown_fields(spec, ("kind", *_KINDS[kind].fields), f"{kind} spec: ", ValueError)
        fields = {}
        for name, default in _KINDS[kind].fields.items():
            if name not in spec and default is None:
                raise ValueError(f"{kind} spec missing field {name!r}")
            fields[name] = spec.get(name, default)
        if "values" not in fields:
            fields = dict(zip(fields, _spec_numbers(fields, "node-function ", ValueError)))
        elif not isinstance(fields["values"], list):
            raise ValueError("node-function values must be a list of numbers")
        return cls(kind=kind, **fields)

    def to_spec(self) -> dict:
        spec = {"kind": self.kind}
        for name in _KINDS[self.kind].fields:
            value = getattr(self, name)
            spec[name] = list(value) if isinstance(value, tuple) else value
        return spec
