"""Seeded Monte Carlo of the two-basis threshold-detector measurement.

Every pulse picks a basis, routes its photons through the chosen arm
(generation photons split evenly between detectors "0"/"1"; check photons go
to "+" except for per-photon misalignment routing to "-"), and all four
detectors evaluate signal, dark and afterpulse causes each window.  A
detector's afterpulse hazard composes its first-order lag coefficients over
its own fired history:  1 - prod_{j fired, j <= depth} (1 - p_hat_j).

Randomness comes from the Philox 4x64 counter-based generator (NumPy
implementation).  Each purpose draws from an independent stream keyed as
``key = [master_seed, stream_id * 2^32 + chunk_index]``, so adding streams or
changing the thread count never perturbs existing draws; runs are bit-for-bit
reproducible for a fixed config, whose ``seed`` is the master seed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .detector_model import AfterpulseSpec, DetectorParams, afterpulse_coeff
from .errors import ParameterError, PrecisionError
from .files import open_new
from .source_monitor import PhotonDistribution, bernoulli_transform

# Stream identifiers; append only, never renumber.
STREAM_BASIS = 0
STREAM_PHOTON = 1
STREAM_SPLIT = 2
STREAM_FLIP = 3
STREAM_SIGNAL = (4, 5, 6, 7)      # detectors 0, 1, +, -
STREAM_DARK = (8, 9, 10, 11)
STREAM_AFTERPULSE = (12, 13, 14, 15)
STREAM_FILL = 16
STREAM_EXTRACTOR = 17

_MASK64 = (1 << 64) - 1
# Seeds are the first Philox key word, so they lie in [0, SEED_LIMIT).
SEED_LIMIT = 1 << 64
DEFAULT_CHUNK = 1 << 18
# Windows per lookup pass, and (window, fire) pairs per product block of the
# afterpulse pass, to keep their temporaries small.  A block's int64 arrays
# are 128 KB.  In a loop of runs of 5*10^4 windows, 2^15-window blocks made
# simulate take 127 to 352 minor page faults per run (getrusage), as the
# heap that the lookups' temporaries grew was given back and faulted in
# again; 2^14-window blocks take none.
_BLOCK = 1 << 14


def _check_seed(name: str, seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"{name} must lie in [0, 2^64), got {seed}")


def _key(seed: int, stream_id: int, chunk: int) -> Tuple[int, int]:
    return seed, ((stream_id << 32) | chunk) & _MASK64


def _stream(seed: int, stream_id: int, chunk: int) -> np.random.Philox:
    """A new keyed Philox bit generator of one purpose and chunk.  Every draw
    is a function of its ``random_raw()`` words, whose sequence NumPy keeps
    stable across versions (NEP 19), unlike that of ``Generator`` methods."""
    return np.random.Philox(key=np.array(_key(seed, stream_id, chunk), dtype=np.uint64))


def _chunk_streams(seed: int, chunk: int) -> Callable[[int], np.random.Philox]:
    """``stream(stream_id)``: the keyed streams of one chunk from one bit
    generator, so that a chunk builds one.

    Each call sets the generator to the state a new ``_stream(seed,
    stream_id, chunk)`` starts in (counter 0, an empty buffer, no spare
    32-bit half) and returns it.  Philox is counter-based, so its words are
    then those of a new generator (J. K. Salmon et al., SC'11), at about 2 µs
    a call against 22 µs for a construction, which first draws a seed
    sequence from OS entropy for the key to override.  A stream is read
    until the next call; the caller owns the generator and keeps it to one
    thread.
    """
    bits = _stream(seed, STREAM_BASIS, chunk)

    def stream(stream_id: int) -> np.random.Philox:
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": (0, 0, 0, 0), "key": _key(seed, stream_id, chunk)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return bits

    return stream


def _stream_bits(bits: np.random.Philox, size: int) -> np.ndarray:
    """``size`` uniform 0/1 bytes of a keyed stream: the top bit of each byte
    of ceil(size/8) raw 64-bit words, taken little-endian.

    ``Generator.integers(0, 2, size, dtype=np.uint8)`` returns the same bits:
    it takes the bytes of 32-bit halves, low half first, and maps each to
    its top bit.
    """
    words = bits.random_raw(-(-size // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:size] >> 7


@dataclass(frozen=True)
class PulseTrainConfig:
    """Everything one reproducible simulation run depends on.

    ``dets`` holds detectors "0", "1", "+", "-", in :func:`detector_set` order.
    """

    pulses: int
    source: PhotonDistribution
    dets: Tuple[DetectorParams, ...]
    t_z: float = 1.0
    t_x: float = 1.0
    x_fraction: float = 0.0
    misalignment: float = 0.0
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK

    def __post_init__(self):
        if self.pulses < 1:
            raise ParameterError(f"pulses must be >= 1, got {self.pulses}")
        for name in ("t_z", "t_x", "x_fraction", "misalignment"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {self.chunk_size}")
        _check_seed("seed", self.seed)
        if len(self.dets) != 4:
            raise ParameterError(f"dets must hold 4 detectors, got {len(self.dets)}")
        for det in self.dets:
            if det.afterpulse.window_depth is None:
                raise ParameterError(
                    "simulation requires a finite afterpulse window_depth "
                    f"(detector {det.label!r} has unlimited history)"
                )

    def to_dict(self) -> dict:
        return {
            "pulses": self.pulses,
            "source": self.source.to_dict(),
            **{f"det_{name}": det.to_dict()
               for name, det in zip(("0", "1", "plus", "minus"), self.dets)},
            "t_z": self.t_z,
            "t_x": self.t_x,
            "x_fraction": self.x_fraction,
            "misalignment": self.misalignment,
            "seed": self.seed,
            "chunk_size": self.chunk_size,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


# clicks.csv rows: the index, then the 11-byte suffix ",basis,d0,d1,ap0,ap1\n".
# _DIGIT_RUN consecutive indices share every digit above their low four, and
# the four low digits of run position r are _LOW_DIGITS[r].
_DIGIT_RUN = 10_000
_CSV_BLOCK_ROWS = 6 * _DIGIT_RUN
_LOW_DIGITS = (np.arange(_DIGIT_RUN, dtype=np.uint16)[:, None]
               // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
_ROW_SUFFIX = np.frombuffer(b",Z,0,0,0,0\n", dtype=np.uint8)
_BASIS_COL = 1                     # suffix offsets of the basis and the four flags
_FLAG_COLS = (3, 5, 7, 9)


class ClickRecords:
    """Per-pulse outcomes, one ``uint8`` code each: ``is_x << 4 | d0 << 3 |
    d1 << 2 | ap0 << 1 | ap1``, the basis, the active arm's clicks and its
    afterpulses.  Each column is decoded where it is read."""

    CSV_HEADER = "index,basis,d0,d1,ap0,ap1"

    def __init__(self, codes):
        self.codes = np.asarray(codes, dtype=np.uint8)
        if self.codes.ndim != 1 or self.codes.max(initial=0) >= 32:
            raise ParameterError("click codes must be a 1-d array of values in [0, 32)")

    def __len__(self) -> int:
        return self.codes.size

    def _column(self, shift: int) -> np.ndarray:
        """Bit ``shift`` of every code, as a new read-only bool array."""
        flags = (self.codes >> shift & 1).view(bool)
        flags.flags.writeable = False
        return flags

    basis_is_x, d0, d1, ap0, ap1 = (property(lambda self, shift=shift: self._column(shift))
                                    for shift in (4, 3, 2, 1, 0))

    def to_csv(self, path, header_comment: Optional[str] = None) -> None:
        """Write one ``index,basis,d0,d1,ap0,ap1`` row per pulse.

        ``basis`` is ``Z`` or ``X``; the four flags are ``0``/``1``.  A truthy
        ``header_comment`` is written first as a ``# ...`` line.

        Every row whose index has w decimal digits is exactly w + 11 bytes
        long, so each decimal-width band is written as fixed-width records
        from one reused ``(rows, w + 11)`` byte block of at most
        ``_CSV_BLOCK_ROWS`` rows.  The bytes that repeat are set once per
        band: the commas and newlines, and the low four index digits from
        ``_LOW_DIGITS``, since blocks past 4 digits start on a multiple of
        ``_DIGIT_RUN``.  Each block then gets the digits above the low four,
        one value per run of ``_DIGIT_RUN`` rows, and one byte column per
        flag (``"Z" - 2 * is_x`` and ``"0" + flag``), each decoded from the
        codes into one reused row of bytes, and goes to the file through the
        buffer protocol.  Beyond its codes the writer holds about 1.1 MB,
        whatever the pulse count.
        """
        codes = self.codes
        n = len(self)
        row_bytes = len(str(n - 1)) + _ROW_SUFFIX.size
        space = np.empty(min(n, _CSV_BLOCK_ROWS) * row_bytes, dtype=np.uint8)
        column = np.empty(min(n, _CSV_BLOCK_ROWS), dtype=np.uint8)   # one decoded flag
        with open_new(path) as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n".encode("utf-8"))
            fh.write((self.CSV_HEADER + "\n").encode("utf-8"))
            start, width = 0, 1
            while start < n:
                band_end = min(n, 10 ** width)
                high = max(width - 4, 0)      # digits above the low four
                rows = min(band_end - start, _CSV_BLOCK_ROWS)
                buf = space[:rows * (width + _ROW_SUFFIX.size)].reshape(rows, -1)
                buf[:, width:] = _ROW_SUFFIX
                for run in range(0, rows, _DIGIT_RUN):
                    part = buf[run:run + _DIGIT_RUN, high:width]
                    first = (start + run) % _DIGIT_RUN
                    part[:] = _LOW_DIGITS[first:first + part.shape[0], 4 - part.shape[1]:]
                for lo in range(start, band_end, rows):
                    block = buf[:min(rows, band_end - lo)]
                    span = slice(lo, lo + block.shape[0])
                    if high:
                        for run in range(0, block.shape[0], _DIGIT_RUN):
                            value = (lo + run) // _DIGIT_RUN
                            for col in range(high - 1, -1, -1):
                                block[run:run + _DIGIT_RUN, col] = ord("0") + value % 10
                                value //= 10
                    code, flag = codes[span], column[:block.shape[0]]
                    np.right_shift(code, 3, out=flag)
                    np.bitwise_and(flag, 2, out=flag)           # 2 * is_x
                    np.subtract(ord("Z"), flag, out=block[:, width + _BASIS_COL])
                    for col, shift in zip(_FLAG_COLS, (3, 2, 1, 0)):
                        np.right_shift(code, shift, out=flag)
                        np.bitwise_and(flag, 1, out=flag)
                        np.add(flag, ord("0"), out=block[:, width + col])
                    fh.write(block)
                start, width = band_end, width + 1


@dataclass
class BitStream:
    """Raw bits from generation-basis detections, in pulse order.

    Single clicks give the detector identity; double clicks are filled with a
    seeded random bit and marked in ``fill_mask``.
    """

    bits: np.ndarray
    fill_mask: np.ndarray
    window_index: np.ndarray
    z_windows: int
    x_windows: int
    n_single: int
    n_double: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        self.fill_mask = np.asarray(self.fill_mask, dtype=bool)
        self.window_index = np.asarray(self.window_index, dtype=np.int64)
        if not (self.bits.size == self.fill_mask.size == self.window_index.size):
            raise ParameterError("bit-stream columns must have equal length")
        if self.bits.size != self.n_single + self.n_double:
            raise ParameterError("bit count must equal singles plus doubles")

    def __len__(self) -> int:
        return self.bits.size

    def packed(self) -> bytes:
        return np.packbits(self.bits).tobytes()


class SimulationResult(NamedTuple):
    clicks: ClickRecords
    bits: BitStream
    eq_empirical: float


def _coefficient_array(spec: AfterpulseSpec) -> np.ndarray:
    """``spec.coefficient(j)`` for j = 1 .. depth, trailing zeros cut, as
    one array expression."""
    depth = spec.window_depth or 0
    if spec.mode == "exponential":
        coeffs = afterpulse_coeff(spec.amplitude, spec.decay, np.arange(1, depth + 1))
    else:
        coeffs = np.zeros(depth)
        listed = spec.coefficients[:depth]
        coeffs[:len(listed)] = listed
    return coeffs[:np.flatnonzero(coeffs)[-1] + 1] if coeffs.any() else coeffs[:0]


def _survival_floor(coeffs: np.ndarray) -> float:
    """P_all: every ``1 - c_j`` multiplied in one after another in
    ascending-lag order, the order :func:`_afterpulse_pass` uses."""
    return math.prod((1.0 - coeffs).tolist())


def _fired_products(factors: np.ndarray, fired: np.ndarray, reach: np.ndarray,
                    top: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Per window, the product of ``factors[reach - p]`` over its ``count``
    fired positions p = ``fired[top - count:top]``, highest position (lowest
    lag) first; every ``count`` is at least 1.

    The (window, position) pairs are listed a block of at most ``_BLOCK`` at
    a time (or one window's, if it has more), and each window's run of
    factors is multiplied by one ``np.multiply.reduceat``.
    """
    out = np.empty(count.size)
    ends = np.cumsum(count)
    lo = 0
    while lo < count.size:
        start = ends[lo] - count[lo]
        hi = max(int(np.searchsorted(ends, start + _BLOCK, side="right")), lo + 1)
        runs = count[lo:hi]
        heads = ends[lo:hi] - runs - start        # each window's first pair
        pos = np.repeat(top[lo:hi] - 1 + heads, runs)
        pos -= np.arange(pos.size)
        index = np.repeat(reach[lo:hi], runs)
        index -= fired.take(pos)
        out[lo:hi] = np.multiply.reduceat(factors.take(index), heads)
        lo = hi
    return out


def _afterpulse_pass(base: np.ndarray, cand: np.ndarray, u_cand: np.ndarray,
                     coeffs: np.ndarray,
                     carry: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve afterpulse-induced fires within one chunk.

    Returns the chunk's fires, the indices of the windows that afterpulse,
    in no particular order, and the carry for the next chunk.  ``base``
    holds signal/dark fires, ``carry`` the final fires of the
    previous ``len(coeffs)`` windows, ``cand`` the ascending indices of the
    windows whose afterpulse draw ``u_ap`` is below ``1 - p_all``, with
    ``p_all = _survival_floor(coeffs)``, and ``u_cand`` their draws.  Fires
    only ever propagate forward, so iterating the hazard to its (unique)
    fixed point reproduces the sequential evaluation exactly.  A window
    afterpulses where ``u_ap < 1 - survive``, ``survive`` being the product of
    ``1 - c_j`` over the lags j at which it sees a fire, taken in
    ascending-lag order.

    Candidates.  Only windows with ``u_ap < 1 - p_all`` can afterpulse.  Every
    factor ``f_j = fl(1 - c_j)`` lies in [0, 1], rounded multiplication is
    monotone in each operand, and ``fl(x * f) <= x`` for x >= 0, f <= 1.  So,
    by induction over the lags, a window's running product over its fired lags
    never falls below the running product over all lags: ``survive >= p_all``.
    ``fl(1 - s)`` is non-increasing in s, so ``u_ap < 1 - survive`` implies
    ``u_ap < 1 - p_all``.  Every other window keeps ``ap`` False whatever
    fires, so its draw is never needed.

    Screen.  Window w sees the positions w .. w + m - 1 of ``carry + fires``,
    position p at lag w + m - p; two ``searchsorted`` calls on the fired
    positions give each candidate's k fires in reach.  Let f_min =
    ``factors.min()``, an element, so exact, and ``floor[k]`` the running
    product of k copies of it (``np.multiply.accumulate``, sequential by
    definition, from ``floor[0]`` = 1).  The candidate's ``survive`` is a
    running product of k factors, each at least f_min, from 1; by the same
    induction as above it is at least ``floor[k]``, so ``1 - survive`` is at
    most ``lim[k] = fl(1 - floor[k])``.  A draw ``u_ap >= lim[k]`` therefore
    proves that the window does not afterpulse, and only the candidates with
    ``u_ap < lim[k]`` get an exact product.  ``lim[0]`` is 0 and no draw is
    negative, so every candidate that gets one has a fire in reach.

    Products.  A screened candidate's pairs list its fired positions from
    the highest (lag 1 side) down, so its factors meet in ascending-lag
    order, and the lags without a fire contribute an exact 1.0 to the
    reference product over every lag.  ``np.multiply.reduceat`` takes each
    window's run of factors in one call.  NumPy does not document the order
    of a ``reduceat``; NumPy 2.4.6 multiplies each run from its first element
    left to right, and ``1.0 * f_1`` is exact, so the result is the running
    product from 1.  A test pins that order, since ``survive`` and with it
    fires, ``ap`` and carry are bit-identical to the product over every lag
    of every window only under it.

    Iterations.  Fires only grow from one iteration to the next, and by the
    argument above a product over more fired lags is no larger, so a
    candidate that afterpulses keeps doing so and is dropped.  A candidate
    whose count of fires in reach did not change sees the same fired lags,
    so its ``survive`` and its verdict stand.  Later iterations therefore
    screen and recompute only the candidates whose count grew; the counts
    are updated by shifting the ranks by the number of new fires below them,
    and the new fires are merged into the sorted fired positions, not found
    again.

    Cost and memory.  The pass costs one O(chunk) search for the fired
    positions; each iteration then costs O((fires + candidates) log chunk)
    for the ranks and screen, plus one gathered factor per fire in reach of
    each candidate that passes the screen, which never outnumber the depth *
    fires factors that scattering every fire into every window it reaches
    would multiply.  Memory is O(chunk + depth): a few arrays of at most one
    entry per window, and blocks of at most ``_BLOCK`` (window, fire) pairs
    (more only for a single window, whose pairs are at most the depth).
    """
    m = coeffs.size
    ap = [np.zeros(0, dtype=np.intp)]
    if m == 0:
        return base.copy(), ap[0], carry
    factors = 1.0 - coeffs
    floor = np.full(m + 1, factors.min())
    floor[0] = 1.0
    lim = 1.0 - np.multiply.accumulate(floor, out=floor)
    # Candidate w sees positions w .. w + m - 1 of carry + fires; its factor
    # for position p is factors[w + m - 1 - p].
    reach = cand + (m - 1)
    fires = base.copy()
    fired = np.flatnonzero(np.concatenate((carry, fires)))
    first = np.searchsorted(fired, cand)
    top = np.searchsorted(fired, reach, side="right")
    count = top - first
    grown = np.arange(cand.size)        # the candidates to (re)evaluate
    while grown.size:
        exact = grown[u_cand[grown] < lim.take(count[grown])]
        survive = _fired_products(factors, fired, reach[exact], top[exact], count[exact])
        hit = exact[u_cand[exact] < 1.0 - survive]
        ap.append(cand[hit])
        added = ap[-1][~fires[ap[-1]]]
        if added.size == 0:
            break
        fires[added] = True
        keep = np.ones(cand.size, dtype=bool)
        keep[hit] = False
        cand, u_cand, reach, first, top, count = (
            a[keep] for a in (cand, u_cand, reach, first, top, count))
        added += m
        fired = np.insert(fired, np.searchsorted(fired, added), added)
        first += np.searchsorted(added, cand)
        top += np.searchsorted(added, reach, side="right")
        now = top - first
        grown = np.flatnonzero(now != count)
        count = now
    return fires, np.concatenate(ap), np.concatenate((carry, fires[-m:]))[-m:]


# ---------------------------------------------------------------------------
# Draws as integer comparisons, and exact inversion by guide tables
#
# NumPy's float uniform and Generator.binomial both read a uniform as
# u = m * 2^-53 with m = random_raw() >> 11.  A uniform compared with p is m
# compared with an integer threshold (_threshold), and a draw that is a
# non-decreasing step function of u is the number of its thresholds at or
# below m: a few array passes over a table built once, in place of a binary
# search or a per-window recurrence.  (L. Devroye, Non-Uniform Random Variate
# Generation, 1986, III.2; the guide table of H.-C. Chen and Y. Asau, AIIE
# Trans. 6, 163 (1974).)

_M_SHIFT = 11
_M_END = 1 << 53                 # a threshold that no m reaches
_GUIDE_BITS = 12
_GUIDE_SHIFT = 53 - _GUIDE_BITS


class _Inversion(NamedTuple):
    """Sorted thresholds on m, one row per key, and their guide table.

    ``thresholds`` holds the rows flat, each padded with ``_M_END`` to a
    power-of-two ``width`` that leaves at least one pad.  ``guide[r <<
    _GUIDE_BITS | g]`` counts the thresholds of row r at or below ``g <<
    _GUIDE_SHIFT``, the first m of bucket g, in the smallest unsigned dtype
    that holds ``width``.
    """

    thresholds: np.ndarray
    guide: np.ndarray
    width: int


def _inversion(rows) -> _Inversion:
    width = 1 << max(len(row) for row in rows).bit_length()
    thresholds = np.full((len(rows), width), _M_END, dtype=np.int64)
    for r, row in enumerate(rows):
        thresholds[r, :len(row)] = row
    # Threshold t counts in every bucket from the first one whose first m
    # reaches it, ceil(t / 2^_GUIDE_SHIFT), on: each row is the run of 0s up
    # to its first threshold's bucket, then of 1s up to its second's, ...
    buckets = 1 << _GUIDE_BITS
    first = np.minimum(-(-thresholds >> _GUIDE_SHIFT), buckets)
    counts = np.arange(width + 1, dtype=np.min_scalar_type(width))
    runs = np.diff(first, axis=1, prepend=0, append=buckets)
    guide = np.repeat(np.tile(counts, len(rows)), runs.ravel())
    return _Inversion(thresholds.ravel(), guide, width)


def _count_at_or_below(inv: _Inversion, m: np.ndarray, rows=None) -> np.ndarray:
    """Per window, the number of thresholds of its row at or below its m.

    ``m`` is int64 in [0, 2^53); ``rows`` gives each window's row (default:
    row 0 for all).  The guide entry counts the thresholds at or below the
    first m of the window's bucket; each pass adds one threshold inside the
    bucket for the windows whose m reaches it.  Every row ends in ``_M_END``,
    so the passes stop, and after the first one only the windows that stepped
    are looked at again.
    """
    key = m >> _GUIDE_SHIFT
    if rows is None:
        # take() is several times slower with indices narrower than intp.
        at = inv.guide.take(key).astype(np.intp)
    else:
        row = rows.astype(np.intp)
        key |= row << _GUIDE_BITS
        at = row << (inv.width.bit_length() - 1)      # flat index of the row's start
        at += inv.guide.take(key)
    step = m >= inv.thresholds.take(at)
    at += step
    active = np.flatnonzero(step)
    while active.size:
        active = active[m[active] >= inv.thresholds.take(at[active])]
        at[active] += 1
    if rows is not None:
        at &= inv.width - 1
    return at


def _m(raw: np.ndarray) -> np.ndarray:
    """The m of raw 64-bit draws, as int64 (in place)."""
    raw >>= _M_SHIFT
    return raw.view(np.int64)


def _raw_limit(t) -> Optional[np.uint64]:
    """For a threshold t = :func:`_threshold` of p, the largest raw word
    whose m lies below t, or None where t = 0 and none does.  m = raw >> 11
    < t exactly where raw < t * 2^11, and t * 2^11 - 1 fits 64 bits for
    every t up to 2^53, so a comparison of raw words needs no shift."""
    t = int(t)
    return np.uint64((t << _M_SHIFT) - 1) if t else None


def _threshold(p) -> np.ndarray:
    """``ceil(p * 2^53)`` as int64, for p >= 0, or every p of an array, up
    to 2^10: the m with ``m * 2^-53 < p`` are exactly those below it.
    ``p * 2^53`` is exact, and for an integer m and a real x, m < x exactly
    where m < ceil(x)."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.int64)


def _photon_inversion(cdf: np.ndarray) -> _Inversion:
    """``min(searchsorted(cdf, u, "right"), cdf.size - 1)`` as a count over
    m: ``cdf[j] <= m * 2^-53`` exactly where ``_threshold(cdf[j]) <= m``, and
    leaving out the last entry caps the count."""
    return _inversion([_threshold(cdf[:-1])])


class _BinomialInversion:
    """``Generator.binomial(n, p)`` for one p in (0, 1/2], as thresholds on m.

    Where p * n <= 30, NumPy (``random_binomial_inversion``) reads one uniform
    U for each window with n > 0 and none where n = 0.  It sets q = 1 - p,
    px_0 = exp(n log q), px_k = ((n - k + 1) p px_{k-1}) / (k q), and returns
    the first k at which the running U_k = fl(U_{k-1} - px_{k-1}) satisfies
    U_k <= px_k.  Past ``bound`` = min(n, np + 10 sqrt(npq + 1)) it restarts
    with a fresh uniform.  fl(U - c) is non-decreasing in U, so the U that
    reach k form an upward-closed set: the count is a step function of U.
    Its thresholds are found exactly, once per n, by running the chain
    backwards from U_{k-1} = nextafter(px_{k-1}, inf) with the least double
    that each subtraction maps at or above its target.  Row n holds
    tau_{n,1} .. tau_{n,bound} and then the restart threshold
    tau_{n,bound+1}.  The chain is evaluated in the same double operations,
    with ``math.exp`` and ``math.log`` from the C library NumPy calls.

    Rows are built lazily, up to the largest n a chunk draws, and kept: one
    table per p serves every run of the process (:func:`_binomial_inversion`),
    and chunks and runs drawn in threads share it under a lock.
    """

    def __init__(self, p: float):
        self.p = p
        # The largest n looked up: NumPy's p * n <= 30.0, and at most 255, so
        # that the guide stays within 1 MB.
        self.n_limit = int(min(30.0 / p + 1.0, 255.0))
        while p * self.n_limit > 30.0:
            self.n_limit -= 1
        self._lock = threading.Lock()
        self._rows = []
        self._tables = None

    def _thresholds(self, ns):
        p = self.p
        q = 1.0 - p
        bounds = [int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1))) for n in ns]
        size = max(bounds) + 1
        px = np.empty((len(ns), size))
        px[:, 0] = [math.exp(n * math.log(q)) for n in ns]
        count = np.array(ns, dtype=float)
        for k in range(1, size):
            # Beyond n + 1 the factor is negative and px is -0.0; those
            # columns lie past the row's bound and are cut below.
            px[:, k] = (count - k + 1) * p * px[:, k - 1] / (k * q)
        # Column k - 1 of least starts as the least U_{k-1} above px_{k-1};
        # folding in the subtractions j = k - 2 .. 0 makes it the least U_0
        # that reaches k.
        least = np.nextafter(px, np.inf)
        for j in range(size - 2, -1, -1):
            c = px[:, j:j + 1]
            target = least[:, j + 1:]
            u = target + c
            while (short := u - c < target).any():
                u[short] = np.nextafter(u, np.inf)[short]
            while (fits := (lower := np.nextafter(u, -np.inf)) - c >= target).any():
                u[fits] = lower[fits]
            least[:, j + 1:] = u
        taus = np.minimum(_threshold(least), _M_END)
        return [row[:bound + 1] for row, bound in zip(taus, bounds)]

    def tables(self, top: int) -> Tuple[_Inversion, int]:
        """The inversion over rows 0 .. at least ``top`` and the least
        restart threshold of rows 1 .. ``top``."""
        with self._lock:
            if len(self._rows) <= top:
                self._rows += self._thresholds(range(len(self._rows), top + 1))
                self._tables = _inversion(self._rows)
            restart = min((int(row[-1]) for row in self._rows[1:top + 1]), default=_M_END)
            return self._tables, restart


@functools.lru_cache(maxsize=4)
def _binomial_inversion(p: float) -> Optional[_BinomialInversion]:
    """p's inversion table, or None where NumPy does not invert (p = 0 or
    p > 1/2: it returns 0 without a draw, or inverts at 1 - p).

    Its rows are a function of (n, p) alone, so each p's table is kept for
    the process: p = 1/2 (the Z split) and the last three misalignments.  A
    table holds at most 256 rows of at most 86 thresholds, and its guide at
    most 256 * 4096 one-byte counts: 1.4 MB at its largest (p near 0.12),
    so the cache holds under 6 MB.
    """
    return _BinomialInversion(p) if 0.0 < p <= 0.5 else None


def _photon_counts(bits: np.random.Philox, count: int, cdf_z: np.ndarray,
                   cdf_x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Photons at the Z and the X arm, one uniform of the photon stream
    ``bits`` per window, each ``min(searchsorted(cdf, u, "right"), cdf.size
    - 1)`` exactly."""
    invs = [_photon_inversion(cdf) for cdf in ((cdf_z,) if cdf_x is cdf_z else (cdf_z, cdf_x))]
    counts = [np.empty(count, dtype=np.min_scalar_type(inv.width - 1)) for inv in invs]
    for lo in range(0, count, _BLOCK):
        m = _m(bits.random_raw(min(_BLOCK, count - lo)))
        for out, inv in zip(counts, invs):
            out[lo:lo + m.size] = _count_at_or_below(inv, m)
    return counts[0], counts[-1]


def _binomial(stream: Callable[[int], np.random.Philox], stream_id: int, n: np.ndarray,
              p: float, inversion: Optional[_BinomialInversion], where=None) -> np.ndarray:
    """``Generator(stream(stream_id)).binomial(n, p)``, by table lookup;
    ``stream`` is a chunk's :func:`_chunk_streams`.

    ``inversion`` is :func:`_binomial_inversion` of p.  The lookup reads the
    same uniforms as NumPy, one per window with n > 0, so it is exact unless
    NumPy would read others: where p * n > 30 for some n (NumPy samples by
    BTPE) or some m reaches its row's restart threshold (NumPy reads one
    more uniform, which shifts every later window).  Then, and where n
    exceeds the table's ``n_limit`` or ``inversion`` is None, the whole chunk
    is drawn by NumPy from the stream re-keyed.  Every uniform is checked
    against the restart threshold, but with ``where`` only those windows are
    looked up; the others hold a count in [0, n].

    A window with n = 0 counts 0.  Where more than 5/6 of a block's windows
    read a word, every window of the block is looked up, those without a
    word at m = 0; otherwise only the windows with a word, picked by index.
    (At 2^16 windows the split took 1.04 ms against 0.74 ms by index at
    nu = 1, 63% drawn; 0.82 ms against 1.08 ms at nu = 10.)
    """
    if inversion is not None and (top := int(n.max())) <= inversion.n_limit:
        inv, restart = inversion.tables(top)
        bits = stream(stream_id)
        out = np.zeros(n.size, dtype=n.dtype)
        for lo in range(0, n.size, _BLOCK):
            span = slice(lo, lo + _BLOCK)
            drawn = n[span] > 0
            m = _m(bits.random_raw(np.count_nonzero(drawn)))   # one per drawn window
            if m.size and m.max() >= restart:
                break
            if where is None and 6 * m.size > 5 * drawn.size:
                dense = np.zeros(drawn.size, dtype=np.int64)
                dense[drawn] = m
                del m        # before the lookup's temporaries, to keep the peak down
                out[span] = _count_at_or_below(inv, dense, n[span])
                continue
            if where is None:
                at = np.flatnonzero(drawn)
            else:
                # A window's word is at its index less the windows before it
                # that read none; masking the drawn windows by ``where`` took
                # several times longer.
                at = np.flatnonzero(where[span] & drawn)
                m = m.take(at - np.searchsorted(np.flatnonzero(~drawn), at))
            at += lo
            out[at] = _count_at_or_below(inv, m, n.take(at))
        else:
            return out
    return np.random.Generator(stream(stream_id)).binomial(n, p)


class _ChunkDraws(NamedTuple):
    """One chunk's randomness, reduced to what its windows read.

    Per detector (0, 1, +, -): ``base`` flags its signal or dark fires,
    ``cand`` holds the windows whose afterpulse draw lies below ``1 - P_all``,
    the only draws :func:`_afterpulse_pass` reads, and ``u_cand`` those draws.
    """

    is_x: np.ndarray
    base: Tuple[np.ndarray, ...]
    cand: Tuple[np.ndarray, ...]
    u_cand: Tuple[np.ndarray, ...]
    fill: np.ndarray


class _Thresholds(NamedTuple):
    """A run's uniform comparisons as :func:`_threshold` of their p.

    ``basis`` is that of the X-basis fraction; per detector (0, 1, +, -),
    ``click[k][j]`` that of its click probability with j photons, ``dark[k]``
    that of its dark rate and ``afterpulse[k]`` that of its ``1 - P_all``.
    """

    basis: np.ndarray
    click: Tuple[np.ndarray, ...]
    dark: Tuple[np.ndarray, ...]
    afterpulse: Tuple[np.ndarray, ...]


def _chunk_draws(config: PulseTrainConfig, seed: int, chunk: int, count: int,
                 cdf_z: np.ndarray, cdf_x: np.ndarray, thresholds: _Thresholds,
                 binomials) -> _ChunkDraws:
    """All randomness of one chunk, drawn from its keyed streams.

    The basis, signal, dark and afterpulse streams are each drawn ``_BLOCK``
    windows at a time as raw words, and each block is reduced before the
    next is drawn.  A uniform u = m * 2^-53 lies below p exactly where its m
    = ``random_raw() >> 11`` lies below :func:`_threshold` of p, so each
    comparison is one of integers against ``thresholds`` that decides as the
    float comparison would.  The basis, dark and afterpulse words, each
    compared with one threshold, are compared unshifted with its
    :func:`_raw_limit`.  Where that threshold is 0 no window reads the
    stream (no X window, no dark fire, no afterpulse), and it is not drawn.
    The candidates' draws are kept as the floats m * 2^-53, which are exact.

    The photon counts, the split of Z photons between "0" and "1" and the
    misaligned X photons are exact table inversions of the same m, from
    which ``Generator.binomial`` also forms u (:func:`_photon_counts`,
    :func:`_binomial`).  ``binomials`` holds the :class:`_BinomialInversion`
    of p = 1/2 and of the misalignment, or None.  Exactness rests on three
    things: the lookups read the same m; the binomial tables replay NumPy's
    inversion algorithm operation for operation; and where NumPy would not
    invert (p = 0 or p > 1/2, p * n > 30, or a restart), or n is past the
    table's rows, the chunk's draw falls back to ``Generator.binomial``.

    A Z window masks the "+" and "-" signal.  So the flip stream is read at
    every window with n_x > 0, as NumPy reads it, but looked up only in X
    windows, and the "+" and "-" signal streams are drawn at every window,
    which keeps every later word in place, but compared only in X windows.

    The streams come from one bit generator, re-keyed for each
    (:func:`_chunk_streams`), and each is read to its end before the next.
    """
    spans = [slice(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]
    stream = _chunk_streams(seed, chunk)

    def draws(stream_id: int, raw: bool = False):
        """The stream's m, or its raw words, one span at a time."""
        bits = stream(stream_id)
        for span in spans:
            words = bits.random_raw(span.stop - span.start)
            yield span, (words if raw else _m(words))

    is_x = np.zeros(count, dtype=bool)
    if (basis := _raw_limit(thresholds.basis)) is not None:
        for span, words in draws(STREAM_BASIS, raw=True):
            np.less_equal(words, basis, out=is_x[span])
    is_z = ~is_x
    x_index = np.flatnonzero(is_x)
    x_spans = np.searchsorted(x_index, [span.start for span in spans] + [count])
    n_z, n_x = _photon_counts(stream(STREAM_PHOTON), count, cdf_z, cdf_x)
    split, flip = binomials
    n_0 = _binomial(stream, STREAM_SPLIT, n_z, 0.5, split)
    minus = _binomial(stream, STREAM_FLIP, n_x, config.misalignment, flip, is_x).take(x_index)
    # Photons at detectors 0 and 1 in every window, at + and - in the X
    # windows; a difference is formed only for its detector's lookup.
    photons = (lambda: n_0, lambda: n_z - n_0, lambda: n_x.take(x_index) - minus, lambda: minus)
    base, cand, u_cand = [], [], []
    for k in range(4):
        n_k, table = photons[k](), thresholds.click[k]
        dark, limit = _raw_limit(thresholds.dark[k]), _raw_limit(thresholds.afterpulse[k])
        if k < 2:
            fired = np.empty(count, dtype=bool)
            for span, m in draws(STREAM_SIGNAL[k]):
                # take() is several times slower with indices narrower than intp.
                np.less(m, table.take(n_k[span].astype(np.intp)), out=fired[span])
            # A detector of the other arm holds no photons: click probability 0.
            fired &= is_z
        else:
            fired = np.zeros(count, dtype=bool)
            clicks = table.take(n_k.astype(np.intp))
            for (span, m), lo, hi in zip(draws(STREAM_SIGNAL[k]), x_spans, x_spans[1:]):
                at = x_index[lo:hi]
                fired[at] = m.take(at - span.start) < clicks[lo:hi]
        if dark is not None:
            for span, words in draws(STREAM_DARK[k], raw=True):
                fired[span] |= words <= dark
        base.append(fired)
        hits, u_hits = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
        if limit is not None:
            for span, words in draws(STREAM_AFTERPULSE[k], raw=True):
                hit = np.flatnonzero(words <= limit)
                u_hits.append((words[hit] >> _M_SHIFT) * 2.0**-53)
                hits.append(hit + span.start)
        cand.append(np.concatenate(hits))
        u_cand.append(np.concatenate(u_hits))
    fill = _stream_bits(stream(STREAM_FILL), count)
    return _ChunkDraws(is_x, tuple(base), tuple(cand), tuple(u_cand), fill)


def _resolve_chunk(d: _ChunkDraws, coeffs, carries, codes, offset: int):
    """Afterpulse passes, click codes and raw bits of one chunk.

    ``coeffs[k]`` and ``carries[k]`` are detector k's lag coefficients and
    fired history; the carries are replaced by the chunk's.  The chunk's
    :class:`ClickRecords` codes are written into ``codes`` at ``offset``.
    Returns the chunk's (bits, fill flags, window indices) and its counts of
    singles, doubles, Z windows, X windows, X windows where only "-" fires
    and X doubles.
    """
    fires, aps = [], []
    for k in range(4):
        fired, ap, carries[k] = _afterpulse_pass(d.base[k], d.cand[k], d.u_cand[k],
                                                 coeffs[k], carries[k])
        fires.append(fired)
        aps.append(ap)

    is_x = d.is_x
    x_windows = np.flatnonzero(is_x)
    code = codes[offset:offset + is_x.size]
    np.left_shift(is_x.view(np.uint8), 4, out=code)
    # Each click and afterpulse bit is the active arm's: "0"/"1" in Z
    # windows, "+"/"-" in X windows.
    for shift, z_fires, x_fires in zip((3, 2), fires[:2], fires[2:]):
        code |= np.where(is_x, x_fires, z_fires).view(np.uint8) << shift
    for bit, z_aps, x_aps in zip((2, 1), aps[:2], aps[2:]):
        code[z_aps[~is_x[z_aps]]] |= bit
        code[x_aps[is_x[x_aps]]] |= bit

    # A Z window with a click gives one bit: the clicking detector of a
    # single, the fill bit of a double.
    detected = fires[0] | fires[1]
    detected &= ~is_x
    index = np.flatnonzero(detected)
    bits = fires[1].take(index)
    double = fires[0].take(index)
    double &= bits
    bits = bits.view(np.uint8)
    np.copyto(bits, d.fill.take(index), where=double)
    n_double = int(np.count_nonzero(double))
    plus, minus = fires[2].take(x_windows), fires[3].take(x_windows)
    counts = (index.size - n_double, n_double, is_x.size - x_windows.size, x_windows.size,
              int(np.count_nonzero(minus & ~plus)), int(np.count_nonzero(minus & plus)))
    index += offset
    return (bits, double, index), counts


def _photon_cdf(source: PhotonDistribution, transmittance: float) -> np.ndarray:
    dist = (source if transmittance == 1.0
            else bernoulli_transform(source, transmittance))
    return np.cumsum(dist.probs)


def _click_prob(eta: float, photons: np.ndarray) -> np.ndarray:
    return 1.0 - np.power(1.0 - eta, photons)


def simulate(config: PulseTrainConfig, threads: int = 1) -> SimulationResult:
    """Run the pulse train; an identical config, ``seed`` included, gives
    identical output.

    ``threads`` parallelizes the per-chunk randomness generation only; the
    afterpulse recursion is applied chunk after chunk with carried history, so
    the result does not depend on the thread count.

    Memory.  The result holds one click code per pulse and 10 bytes per raw
    bit (the bit, its fill flag and its window index).  Beyond it one thread
    holds one chunk at a time: while it is drawn one block of ``_BLOCK`` raw
    words and a few one-byte arrays of one entry per window,
    then its reduced draws, about 6 bytes per window plus 16 per afterpulse
    candidate, and the arrays of its afterpulse passes.  The chunk's raw
    bits are taken by index from the Z windows with a click.  With
    ``threads`` > 1 up to ``threads`` chunks are in flight: each holds its
    reduced draws, and each one being drawn its own block and one-byte arrays.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    dets = config.dets
    spec_coeffs = {spec: _coefficient_array(spec) for spec in {det.afterpulse for det in dets}}
    spec_limits = {spec: _threshold(1.0 - _survival_floor(c)) for spec, c in spec_coeffs.items()}
    coeffs = [spec_coeffs[det.afterpulse] for det in dets]
    carries = [np.zeros(c.size, dtype=bool) for c in coeffs]

    cdf_z = _photon_cdf(config.source, config.t_z)
    cdf_x = (cdf_z if config.t_x == config.t_z
             else _photon_cdf(config.source, config.t_x))
    photon_range = np.arange(max(cdf_z.size, cdf_x.size))
    thresholds = _Thresholds(
        basis=_threshold(config.x_fraction),
        click=tuple(_threshold(_click_prob(det.efficiency, photon_range)) for det in dets),
        dark=tuple(_threshold(det.dark_rate) for det in dets),
        afterpulse=tuple(spec_limits[det.afterpulse] for det in dets))
    binomials = (_binomial_inversion(0.5), _binomial_inversion(config.misalignment))

    n_pulses = config.pulses
    chunk_size = config.chunk_size
    n_chunks = (n_pulses + chunk_size - 1) // chunk_size
    chunk_counts = [min(chunk_size, n_pulses - c * chunk_size) for c in range(n_chunks)]
    codes = np.empty(n_pulses, dtype=np.uint8)

    def draws_for(chunk: int) -> _ChunkDraws:
        return _chunk_draws(config, config.seed, chunk, chunk_counts[chunk], cdf_z, cdf_x,
                            thresholds, binomials)

    pool = None
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor    # loaded only for a pool
        pool = ThreadPoolExecutor(max_workers=threads)
    parts, totals = [], (0,) * 6
    try:
        pending = {}
        for chunk in range(n_chunks):
            if pool is not None:
                for ahead in range(chunk, min(chunk + threads, n_chunks)):
                    if ahead not in pending:
                        pending[ahead] = pool.submit(draws_for, ahead)
            # The draws live only inside this call, so the chunk's inputs are
            # gone before the next chunk is drawn.
            part, counts = _resolve_chunk(
                pending.pop(chunk).result() if pool is not None else draws_for(chunk),
                coeffs, carries, codes, chunk * chunk_size)
            parts.append(part)
            totals = tuple(map(sum, zip(totals, counts)))
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    bits, fill_mask, window_index = (np.concatenate(col) for col in zip(*parts))
    n_single, n_double, z_windows, x_windows, minus_only, x_doubles = totals
    eq_hat = ((minus_only + 0.5 * x_doubles) / x_windows) if x_windows else math.nan
    clicks = ClickRecords(codes)
    stream = BitStream(bits=bits, fill_mask=fill_mask, window_index=window_index,
                       z_windows=z_windows, x_windows=x_windows,
                       n_single=n_single, n_double=n_double)
    return SimulationResult(clicks=clicks, bits=stream, eq_empirical=eq_hat)


def z_window_bits(clicks: ClickRecords) -> Tuple[np.ndarray, np.ndarray]:
    """Per-generation-window bit array plus its single-click validity mask.

    Suitable for the masked autocorrelation estimator: index position equals
    window position within the generation basis.
    """
    z = ~clicks.basis_is_x
    d0 = clicks.d0[z]
    d1 = clicks.d1[z]
    return d1.astype(float), d0 ^ d1


# ---------------------------------------------------------------------------
# Randomness extraction

def _next_5_smooth(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the padded length scipy.fft.next_fast_len
    gives real transforms."""
    best = 1 << (max(n, 1) - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# Points per block of the four-step transforms, and at most N / 4 (half a
# spectrum), so their scratch arrays stay small next to the two spectra.
_FFT_BLOCK = 1 << 14


class _FourStep(NamedTuple):
    """An N = rows x cols grid of the four-step FFT and its twiddle factors:
    ``hi[k1, h]`` = w^(k1 * span * h) and ``lo[k1, l]`` = w^(k1 * l) with
    w = exp(-2 pi i / N), so w^(k1 j2) = hi[k1, j2 // span] lo[k1, j2 % span]."""
    size: int
    rows: int
    cols: int
    span: int
    hi: np.ndarray
    lo: np.ndarray
    block: int


def _four_step(min_size: int) -> _FourStep:
    """The grid of the smallest even 5-smooth N >= min_size.  ``rows`` is the
    even divisor of N nearest sqrt(N): the one with the least |rows^2 - N|,
    the smaller on a tie."""
    size = 2 * _next_5_smooth(-(-min_size // 2))
    divisors = [1]
    for p in (2, 3, 5):
        k = 0
        while size % p ** (k + 1) == 0:
            k += 1
        divisors = [d * p ** i for d in divisors for i in range(k + 1)]
    rows = min((d for d in divisors if d % 2 == 0), key=lambda d: (abs(d * d - size), d))
    cols = size // rows
    span = max(d for d in divisors if d * d <= cols and cols % d == 0)
    k1 = np.arange(rows // 2 + 1)[:, None]
    scale = -2.0 * np.pi / size

    def factor(j2):
        # k1 j2 < N / 2 is an exact integer, so each angle is rounded once
        return np.exp(1j * (scale * (k1 * j2)))

    return _FourStep(size, rows, cols, span, factor(np.arange(0, cols, span)),
                     factor(np.arange(span)), min(_FFT_BLOCK, size // 4))


def _on_grid(v: np.ndarray, grid: _FourStep) -> np.ndarray:
    """The 0/1 bytes ``v`` zero-padded to whole rows of the grid: element j
    sits at [j // cols, j % cols]."""
    full = -(-v.size // grid.cols)
    padded = np.zeros(full * grid.cols, dtype=np.uint8)
    padded[:v.size] = v
    return padded.reshape(full, grid.cols)


def _spectrum(padded: np.ndarray, grid: _FourStep) -> np.ndarray:
    """The DFT of the ``_on_grid`` bytes ``padded`` zero-padded to N, as the
    (rows/2 + 1) x cols array whose [k1, k2] entry is X[k1 + rows k2]."""
    rows, cols = grid.rows, grid.cols
    spectrum = np.empty((rows // 2 + 1, cols), dtype=complex)
    # Column blocks bound the float copy that rfft makes of the bytes.
    width = max(1, grid.block // rows)
    for c in range(0, cols, width):
        spectrum[:, c:c + width] = np.fft.rfft(padded[:, c:c + width], rows, axis=0)
    by_span = spectrum.reshape(rows // 2 + 1, cols // grid.span, grid.span)
    height = max(1, grid.block // cols)
    for k in range(0, rows // 2 + 1, height):
        by_span[k:k + height] *= grid.hi[k:k + height, :, None]
        by_span[k:k + height] *= grid.lo[k:k + height, None, :]
        spectrum[k:k + height] = np.fft.fft(spectrum[k:k + height], axis=1)
    return spectrum


def _inverse(spectrum: np.ndarray, grid: _FourStep) -> np.ndarray:
    """The real length-N sequence, in natural order, whose ``_spectrum``
    layout is ``spectrum``; overwrites ``spectrum``."""
    rows, cols = grid.rows, grid.cols
    by_span = spectrum.reshape(rows // 2 + 1, cols // grid.span, grid.span)
    hi, lo = grid.hi.conj(), grid.lo.conj()
    height = max(1, grid.block // cols)
    for k in range(0, rows // 2 + 1, height):
        spectrum[k:k + height] = np.fft.ifft(spectrum[k:k + height], axis=1)
        by_span[k:k + height] *= hi[k:k + height, :, None]
        by_span[k:k + height] *= lo[k:k + height, None, :]
    return np.fft.irfft(spectrum, rows, axis=0).ravel()


def extract(bits, output_len: int, extractor_seed: int) -> np.ndarray:
    """Two-universal Toeplitz hash of a 0/1 bit sequence.

    The binary Toeplitz matrix T[i, j] = r[n-1+i-j] is generated from a keyed
    Philox stream of n + output_len - 1 bits; the product T x over GF(2) is a
    convolution reduced mod 2.  Deterministic in (bits, seed, output_len); the
    caller is responsible for choosing output_len within the entropy budget.

    The convolution is circular, of the smallest even 5-smooth length
    N >= r.size.  Output i needs the linear convolution at k = n - 1 + i <=
    r.size - 1; the circular one adds the linear terms at k + N, k + 2N, ...,
    and k + N >= n - 1 + r.size exceeds the last linear index n + r.size - 2,
    so those outputs do not alias.  That holds for every N >= r.size, so
    rounding up to an even N (for an even number of rows below) changes no
    output bit, even where r.size is an odd 5-smooth number.

    Each DFT of length N is Bailey's four-step FFT on an N = rows x cols grid
    (rows even, near sqrt(N); see ``_four_step``).  Input j = cols j1 + j2
    sits at [j1, j2] of a row-major grid, so with w = exp(-2 pi i / N),

        X[k1 + rows k2] = sum_j2 w^(rows j2 k2) w^(j2 k1) sum_j1 x[j] w^(cols j1 k1):

    a real FFT of length rows down each column (k1 <= rows/2 suffices, as X
    is Hermitian), the twiddle w^(k1 j2), then an FFT of length cols along
    each row, which leaves X[k1 + rows k2] at [k1, k2].  Both inputs' spectra
    come out in that same permuted layout, so the pointwise product needs no
    transpose: it is the convolution's spectrum in that layout.  The inverse
    runs the steps backwards (inverse FFT along rows, the conjugate twiddle,
    an inverse real FFT down columns, valid as the result is real) and lands
    at [j1, j2] again, so the row-major ravel is the convolution in natural
    order.  The transforms work on blocks of rows or columns, so the peak
    memory is about the two spectra, 16 N bytes.

    The exact convolution is integer, so rint recovers it whenever the float
    error stays below 1/2; the check keeps it under 0.1 at every one of the
    N points and raises ``PrecisionError`` otherwise.
    """
    x = np.asarray(bits, dtype=np.uint8)
    if x.ndim != 1:
        raise ParameterError("bit input must be one-dimensional")
    if np.any(x > 1):
        raise ParameterError("bit input must be 0/1 valued")
    if output_len < 0:
        raise ParameterError(f"output_len must be >= 0, got {output_len}")
    _check_seed("extractor_seed", extractor_seed)
    n = x.size
    if output_len > n:
        raise ParameterError(f"output_len {output_len} exceeds input length {n}")
    if output_len == 0:
        return np.zeros(0, dtype=np.uint8)
    size = n + output_len - 1               # the length of r
    grid = _four_step(size)
    spectrum = _spectrum(_on_grid(x, grid), grid)
    spectrum *= _spectrum(_on_grid(_stream_bits(
        _stream(extractor_seed, STREAM_EXTRACTOR, 0), size), grid), grid)
    conv_f = _inverse(spectrum, grid)
    del spectrum
    conv = np.rint(conv_f)
    np.subtract(conv_f, conv, out=conv_f)
    if float(np.max(np.abs(conv_f, out=conv_f))) > 0.1:
        raise PrecisionError("FFT convolution lost integer precision")
    del conv_f
    return (conv[n - 1:n - 1 + output_len].astype(np.int64) & 1).astype(np.uint8)
