"""The abstract domain: pulse-count / arrival-window / spacing bounds.

One :class:`PulseBounds` value abstracts every pulse stream an (element,
port) endpoint can carry under the declared stimulus:

* ``[n_lo, n_hi]`` — how many pulses the stream delivers, inclusive;
* ``[t_min, t_max]`` — every delivered pulse's timestamp lies inside
  this window (meaningful only when ``n_hi > 0``);
* ``gap`` — a lower bound on the spacing between any two consecutive
  pulses of the stream (``INF`` when at most one pulse can occur).

Unbounded quantities use the integer sentinel :data:`INF` rather than
floats so the whole analysis stays in exact femtosecond arithmetic, the
same integer timeline the event kernel runs on.  All operations are
*sound over-approximations*: the concrete stream set described by the
result always contains every stream described by the operands.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Optional, Sequence, Tuple

#: "Unbounded" sentinel for counts, times, and gaps.  Far beyond any
#: physical horizon (10^15 fs = 1 microsecond of simulated time; counts
#: never approach it either) yet safe under repeated clamped addition.
INF: int = 10**15


def clamp(value: int) -> int:
    """Clamp a count/time to the ``[0, INF]`` sentinel range."""
    if value >= INF:
        return INF
    if value <= 0:
        return 0
    return value


def sat_add(left: int, right: int) -> int:
    """Saturating addition: anything involving :data:`INF` stays INF."""
    if left >= INF or right >= INF:
        return INF
    return min(left + right, INF)


class PulseBounds(Tuple[int, int, int, int, int]):
    """Sound bounds on one pulse stream (see module docstring).

    Implemented as a validated tuple subclass rather than a dataclass:
    the fixpoint engine constructs and compares these by the thousand,
    and a single tuple allocation (plus three range checks) is several
    times cheaper than frozen-dataclass ``__init__``.  Field order is
    ``(n_lo, n_hi, t_min, t_max, gap)``; instances stay immutable and
    hashable, and equality is plain tuple equality.
    """

    __slots__ = ()

    def __new__(cls, n_lo: int, n_hi: int, t_min: int,
                t_max: int, gap: int) -> "PulseBounds":
        if not 0 <= n_lo <= n_hi:
            raise ValueError(
                f"count interval [{n_lo}, {n_hi}] is malformed"
            )
        if n_hi > 0 and t_min > t_max:
            raise ValueError(
                f"time window [{t_min}, {t_max}] is malformed"
            )
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        return tuple.__new__(cls, (n_lo, n_hi, t_min, t_max, gap))

    n_lo: int = property(itemgetter(0))  # type: ignore[assignment]
    n_hi: int = property(itemgetter(1))  # type: ignore[assignment]
    t_min: int = property(itemgetter(2))  # type: ignore[assignment]
    t_max: int = property(itemgetter(3))  # type: ignore[assignment]
    gap: int = property(itemgetter(4))  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"PulseBounds(n_lo={self[0]}, n_hi={self[1]}, "
            f"t_min={self[2]}, t_max={self[3]}, gap={self[4]})"
        )

    # -- queries -------------------------------------------------------------
    @property
    def is_none(self) -> bool:
        """True when the stream provably carries zero pulses."""
        return self.n_hi == 0

    def contains_count(self, count: int) -> bool:
        return self.n_lo <= count <= self.n_hi

    def contains_time(self, time: int) -> bool:
        return self.n_hi > 0 and self.t_min <= time <= self.t_max

    def admits_spacing(self, delta: int) -> bool:
        """Whether two consecutive pulses may be ``delta`` fs apart."""
        return delta >= self.gap

    # -- transformers --------------------------------------------------------
    def shift(self, delay: int) -> "PulseBounds":
        """The same stream displaced by a fixed non-negative delay."""
        if delay == 0 or not self[1]:
            return self
        t_min = self[2] + delay
        t_max = self[3] + delay
        return _unchecked(self[0], self[1],
                          t_min if t_min < INF else INF,
                          t_max if t_max < INF else INF, self[4])

    def scale_count(self, lo_div: int = 1, hi_div: int = 1) -> "PulseBounds":
        """Counts divided (floor) — e.g. a TFF halves its stream."""
        n_lo = self.n_lo // lo_div
        n_hi = self.n_hi // hi_div if self.n_hi < INF else INF
        if n_hi == 0:
            return NONE
        return PulseBounds(n_lo, n_hi, self.t_min, self.t_max, self.gap)

    def with_count(self, n_lo: int, n_hi: int) -> "PulseBounds":
        """Same window/gap, different count interval (clamped sane)."""
        n_hi = clamp(n_hi)
        n_lo = min(clamp(n_lo), n_hi)
        if n_hi == 0:
            return NONE
        return PulseBounds(n_lo, n_hi, self.t_min, self.t_max, self.gap)


def _unchecked(n_lo: int, n_hi: int, t_min: int,
               t_max: int, gap: int) -> PulseBounds:
    """Construct without re-validating — for internal operators whose
    results satisfy the invariants by construction (hot path)."""
    return tuple.__new__(PulseBounds, (n_lo, n_hi, t_min, t_max, gap))


#: Bottom: the provably empty stream (canonical window/gap).
NONE = PulseBounds(0, 0, 0, 0, INF)

#: Top: any number of pulses, anywhere, arbitrarily close together.
TOP = PulseBounds(0, INF, 0, INF, 0)


def join(left: PulseBounds, right: PulseBounds) -> PulseBounds:
    """Least upper bound: a stream behaving like *either* operand.

    Counts take the union interval, windows the union hull, gaps the
    weaker (smaller) guarantee.
    """
    if left.is_none:
        if right.is_none:
            return NONE
        return PulseBounds(0, right.n_hi, right.t_min, right.t_max, right.gap)
    if right.is_none:
        return PulseBounds(0, left.n_hi, left.t_min, left.t_max, left.gap)
    return PulseBounds(
        min(left.n_lo, right.n_lo),
        max(left.n_hi, right.n_hi),
        min(left.t_min, right.t_min),
        max(left.t_max, right.t_max),
        min(left.gap, right.gap),
    )


def _cross_gap(left: PulseBounds, right: PulseBounds) -> int:
    """Guaranteed spacing between a pulse of ``left`` and one of ``right``.

    Only disjoint windows guarantee anything; overlapping windows admit
    coincident pulses (spacing 0).
    """
    if left.t_max < right.t_min:
        return right.t_min - left.t_max
    if right.t_max < left.t_min:
        return left.t_min - right.t_max
    return 0


def superpose(left: PulseBounds, right: PulseBounds) -> PulseBounds:
    """The union of two streams arriving at the *same* endpoint.

    Counts add; the window is the union hull; the spacing guarantee is
    the weakest of each stream's own gap and the cross-stream separation
    (zero unless the windows are provably disjoint).
    """
    if not left[1]:
        return right
    if not right[1]:
        return left
    gap = min(left[4], right[4], _cross_gap(left, right))
    return _unchecked(
        sat_add(left[0], right[0]),
        sat_add(left[1], right[1]),
        min(left[2], right[2]),
        max(left[3], right[3]),
        gap,
    )


def superpose_all(streams: Iterable[PulseBounds]) -> PulseBounds:
    result = NONE
    for stream in streams:
        result = superpose(result, stream)
    return result


def widen(old: PulseBounds, new: PulseBounds) -> PulseBounds:
    """Widening operator for feedback loops.

    Any field still growing after the widening threshold jumps straight
    to its absorbing value (``0`` or :data:`INF`), so every endpoint
    stabilises after at most one widening step per field — the classic
    interval-domain widening, applied per component.  The result
    over-approximates both operands.
    """
    if new.is_none:
        return old
    if old.is_none:
        # First non-empty value past the threshold: give up on counts
        # and windows immediately (the loop manufactures pulses).
        return PulseBounds(0, INF, min(0, new.t_min), INF, 0)
    return PulseBounds(
        old.n_lo if new.n_lo >= old.n_lo else 0,
        old.n_hi if new.n_hi <= old.n_hi else INF,
        old.t_min if new.t_min >= old.t_min else 0,
        old.t_max if new.t_max <= old.t_max else INF,
        old.gap if new.gap >= old.gap else 0,
    )


def contains(outer: PulseBounds, inner: PulseBounds) -> bool:
    """Whether every stream admitted by ``inner`` is admitted by ``outer``."""
    if inner.is_none:
        return outer.n_lo == 0
    return (
        outer.n_lo <= inner.n_lo
        and inner.n_hi <= outer.n_hi
        and outer.t_min <= inner.t_min
        and inner.t_max <= outer.t_max
        and outer.gap <= inner.gap
    )


def stimulus_bounds(times: Sequence[int]) -> PulseBounds:
    """The *exact* abstraction of a concrete stimulus train."""
    if not times:
        return NONE
    ordered = sorted(times)
    gap: int = INF
    for earlier, later in zip(ordered, ordered[1:]):
        gap = min(gap, later - earlier)
    return PulseBounds(len(ordered), len(ordered),
                       ordered[0], ordered[-1], gap)


def single_pulse_bounds(time: int = 0) -> PulseBounds:
    """At most one pulse at exactly ``time`` — proof mode's single-wave
    entry abstraction (a pulse enters each stimulus port at t = 0), the
    convention lint's timing rules report."""
    return PulseBounds(0, 1, time, time, INF)


def describe(bounds: PulseBounds) -> str:
    """Compact human-readable rendering for reports and witnesses."""
    if bounds.is_none:
        return "none"

    def fmt(value: int) -> str:
        return "inf" if value >= INF else str(value)

    return (
        f"n=[{fmt(bounds.n_lo)},{fmt(bounds.n_hi)}] "
        f"t=[{fmt(bounds.t_min)},{fmt(bounds.t_max)}]fs "
        f"gap>={fmt(bounds.gap)}"
    )


def bounds_to_dict(bounds: PulseBounds) -> "dict[str, Optional[int]]":
    """JSON form (INF encoded as ``None`` for portability)."""

    def enc(value: int) -> Optional[int]:
        return None if value >= INF else value

    return {
        "n_lo": bounds.n_lo,
        "n_hi": enc(bounds.n_hi),
        "t_min": bounds.t_min,
        "t_max": enc(bounds.t_max),
        "gap": enc(bounds.gap),
    }
