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
reproducible for a fixed (config, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .detector_model import AfterpulseSpec, DetectorParams
from .errors import DegenerateError, ParameterError
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
DEFAULT_CHUNK = 1 << 18


def _stream(seed: int, stream_id: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, ((stream_id << 32) | chunk) & _MASK64],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PulseTrainConfig:
    """Everything one reproducible simulation run depends on."""

    pulses: int
    source: PhotonDistribution
    det_0: DetectorParams
    det_1: DetectorParams
    det_plus: Optional[DetectorParams] = None
    det_minus: Optional[DetectorParams] = None
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
        if self.det_plus is None:
            object.__setattr__(self, "det_plus",
                               dataclasses.replace(self.det_0, label="+"))
        if self.det_minus is None:
            object.__setattr__(self, "det_minus",
                               dataclasses.replace(self.det_1, label="-"))
        for det in (self.det_0, self.det_1, self.det_plus, self.det_minus):
            if det.afterpulse.window_depth is None:
                raise ParameterError(
                    "simulation requires a finite afterpulse window_depth "
                    f"(detector {det.label!r} has unlimited history)"
                )

    def to_dict(self) -> dict:
        return {
            "pulses": self.pulses,
            "source": self.source.to_dict(),
            "det_0": self.det_0.to_dict(),
            "det_1": self.det_1.to_dict(),
            "det_plus": self.det_plus.to_dict(),
            "det_minus": self.det_minus.to_dict(),
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


_CSV_BLOCK_ROWS = 1 << 16

# Row suffix ",basis,d0,d1,ap0,ap1\n" for the flag code
# is_x << 4 | d0 << 3 | d1 << 2 | ap0 << 1 | ap1.
_ROW_SUFFIX = np.frombuffer(b"".join(
    f",{'X' if c & 16 else 'Z'},{c >> 3 & 1},{c >> 2 & 1},{c >> 1 & 1},{c & 1}\n".encode()
    for c in range(32)), dtype=np.uint8).reshape(32, 11)


class ClickRecords:
    """Columnar per-pulse outcomes: basis, active-arm clicks and afterpulses."""

    CSV_HEADER = "index,basis,d0,d1,ap0,ap1"

    def __init__(self, basis_is_x, d0, d1, ap0, ap1):
        self.basis_is_x = np.asarray(basis_is_x, dtype=bool)
        self.d0 = np.asarray(d0, dtype=bool)
        self.d1 = np.asarray(d1, dtype=bool)
        self.ap0 = np.asarray(ap0, dtype=bool)
        self.ap1 = np.asarray(ap1, dtype=bool)
        n = self.basis_is_x.size
        for name in ("d0", "d1", "ap0", "ap1"):
            if getattr(self, name).size != n:
                raise ParameterError("click columns must have equal length")

    def __len__(self) -> int:
        return self.basis_is_x.size

    def to_csv(self, path, header_comment: Optional[str] = None) -> None:
        """Write one ``index,basis,d0,d1,ap0,ap1`` row per pulse.

        ``basis`` is ``Z`` or ``X``; the four flags are ``0``/``1``.  A truthy
        ``header_comment`` is written first as a ``# ...`` line.  Every row
        whose index has w decimal digits is exactly w + 11 bytes long, so the
        rows of one decimal-width band are built as a ``uint8`` byte block:
        index digits by repeated ``% 10``, the rest by a lookup of the five
        flags in a 32-row suffix table.  Blocks hold at most
        ``_CSV_BLOCK_ROWS`` rows, so beyond one code byte per pulse the
        writer needs a few MB, whatever the pulse count.
        """
        codes = np.zeros(len(self), dtype=np.uint8)
        for shift, col in zip((4, 3, 2, 1, 0), (self.basis_is_x, self.d0, self.d1,
                                                self.ap0, self.ap1)):
            codes |= col.view(np.uint8) << shift
        with open(path, "wb") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n".encode("utf-8"))
            fh.write((self.CSV_HEADER + "\n").encode("utf-8"))
            start, width = 0, 1
            while start < codes.size:
                band_end = min(codes.size, 10 ** width)
                for lo in range(start, band_end, _CSV_BLOCK_ROWS):
                    hi = min(lo + _CSV_BLOCK_ROWS, band_end)
                    block = np.empty((hi - lo, width + _ROW_SUFFIX.shape[1]),
                                     dtype=np.uint8)
                    index = np.arange(lo, hi, dtype=np.int64)
                    for digit in range(width - 1, -1, -1):
                        block[:, digit] = index % 10 + ord("0")
                        index //= 10
                    block[:, width:] = _ROW_SUFFIX[codes[lo:hi]]
                    fh.write(block.tobytes())
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

    def sidecar(self, seed: int, config_hash: str) -> dict:
        return {
            "seed": seed,
            "config_hash": config_hash,
            "bit_count": int(self.bits.size),
            "n_single": int(self.n_single),
            "n_double": int(self.n_double),
            "z_windows": int(self.z_windows),
            "x_windows": int(self.x_windows),
        }


class SimulationResult(NamedTuple):
    clicks: ClickRecords
    bits: BitStream
    eq_empirical: float


def _coefficient_array(spec: AfterpulseSpec) -> np.ndarray:
    depth = spec.window_depth
    if depth is None or depth == 0:
        return np.zeros(0)
    coeffs = np.array([spec.coefficient(j) for j in range(1, depth + 1)])
    while coeffs.size and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs


def _survival_floor(coeffs: np.ndarray) -> float:
    """P_all: every ``1 - c_j`` multiplied in one after another in
    ascending-lag order, the order :func:`_afterpulse_pass` uses."""
    return math.prod((1.0 - coeffs).tolist())


def _afterpulse_pass(base: np.ndarray, u_ap: np.ndarray, coeffs: np.ndarray,
                     carry: np.ndarray,
                     p_all: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve afterpulse-induced fires within one chunk.

    ``base`` holds signal/dark fires, ``carry`` the final fires of the
    previous ``len(coeffs)`` windows and ``p_all`` is
    ``_survival_floor(coeffs)``.  Fires only ever propagate forward, so
    iterating the hazard to its (unique) fixed point reproduces the sequential
    evaluation exactly.  A window afterpulses where ``u_ap < 1 - survive``,
    ``survive`` being the product of ``1 - c_j`` over the lags j at which it
    sees a fire, taken in ascending-lag order.

    Candidates.  Only windows with ``u_ap < 1 - p_all`` can afterpulse.  Every
    factor ``f_j = fl(1 - c_j)`` lies in [0, 1], rounded multiplication is
    monotone in each operand, and ``fl(x * f) <= x`` for x >= 0, f <= 1.  So,
    by induction over the lags, a window's running product over its fired lags
    never falls below the running product over all lags: ``survive >= p_all``.
    ``fl(1 - s)`` is non-increasing in s, so ``u_ap < 1 - survive`` implies
    ``u_ap < 1 - p_all``.  Every other window keeps ``ap`` False whatever
    fires.

    Rounds.  Window w sees the positions w .. w + m - 1 of ``carry + fires``,
    position p at lag w + m - p.  The fired positions' ranks bound each
    candidate's fires in reach (two ``searchsorted`` calls), and round k
    multiplies in the factor of each candidate's k-th smallest fired lag.  The
    factors meet in ascending-lag order and the lags without a fire contribute
    an exact 1.0, so ``survive``, and with it fires, ``ap`` and carry, are
    bit-identical to the product over every lag of every window.

    Iterations.  Fires only grow from one iteration to the next, and by the
    argument above a product over more fired lags is no larger, so a
    candidate that afterpulses keeps doing so.  Later iterations therefore
    recompute only the candidates that have not afterpulsed yet, and shift
    their ranks by the number of new fires below them.

    Cost and memory.  An iteration costs O(chunk + candidates * (log chunk +
    fires in reach)); the candidates' fires in reach never outnumber the
    depth * fires factors that scattering every fire into every window it
    reaches would multiply.  Memory is O(chunk + depth): a few arrays of at
    most one entry per window, no (candidate x fire) matrix.
    """
    m = coeffs.size
    n = base.size
    if m == 0:
        return base.copy(), np.zeros(n, dtype=bool), carry
    factors = 1.0 - coeffs
    cand = np.flatnonzero(u_ap < 1.0 - p_all)
    # Candidate w sees positions w .. w + m - 1 of carry + fires; its factor
    # for position p is factors[w + m - 1 - p].
    reach = cand + (m - 1)
    fires = base.copy()
    ap = np.zeros(n, dtype=bool)
    fired = np.flatnonzero(np.concatenate((carry, fires)))
    first = np.searchsorted(fired, cand)
    top = np.searchsorted(fired, reach, side="right")
    while cand.size:
        # Order the candidates by fires in reach, most first, so that each
        # round's candidates are a prefix; round k takes fired[top - 1 - k],
        # the k-th smallest lag.
        count = top - first
        order = np.argsort(-count)
        prefix = np.searchsorted(-count[order], -np.arange(count.max()))
        pos = top[order] - 1
        at = reach[order]
        survive = np.ones(cand.size)
        index = np.empty(cand.size, dtype=np.intp)
        f = np.empty(cand.size)
        for k in prefix.tolist():
            np.subtract(at[:k], fired[pos[:k]], out=index[:k])
            np.take(factors, index[:k], out=f[:k])
            survive[:k] *= f[:k]
            pos[:k] -= 1
        hit = np.empty(cand.size, dtype=bool)
        hit[order] = u_ap[cand[order]] < (1.0 - survive)
        ap[cand[hit]] = True
        added = cand[hit & ~fires[cand]]
        if added.size == 0:
            break
        fires[added] = True
        cand, reach, first, top = cand[~hit], reach[~hit], first[~hit], top[~hit]
        added += m
        fired = np.flatnonzero(np.concatenate((carry, fires)))
        first += np.searchsorted(added, cand)
        top += np.searchsorted(added, reach, side="right")
    new_carry = np.concatenate((carry, fires))[-m:]
    return fires, ap, new_carry


def _chunk_draws(config: PulseTrainConfig, seed: int, chunk: int, count: int,
                 cdf_z: np.ndarray, cdf_x: np.ndarray) -> dict:
    """All randomness of one chunk, drawn from its keyed streams."""
    d = {}
    d["u_basis"] = _stream(seed, STREAM_BASIS, chunk).random(count)
    u_photon = _stream(seed, STREAM_PHOTON, chunk).random(count)
    d["n_z"] = np.minimum(np.searchsorted(cdf_z, u_photon, side="right"),
                          cdf_z.size - 1)
    d["n_x"] = (d["n_z"] if cdf_x is cdf_z
                else np.minimum(np.searchsorted(cdf_x, u_photon, side="right"),
                                cdf_x.size - 1))
    d["n_split"] = _stream(seed, STREAM_SPLIT, chunk).binomial(d["n_z"], 0.5)
    d["n_flip"] = _stream(seed, STREAM_FLIP, chunk).binomial(
        d["n_x"], config.misalignment)
    d["u_signal"] = [_stream(seed, s, chunk).random(count) for s in STREAM_SIGNAL]
    d["u_dark"] = [_stream(seed, s, chunk).random(count) for s in STREAM_DARK]
    d["u_ap"] = [_stream(seed, s, chunk).random(count) for s in STREAM_AFTERPULSE]
    d["fill"] = _stream(seed, STREAM_FILL, chunk).integers(
        0, 2, size=count, dtype=np.uint8)
    return d


def _photon_cdf(source: PhotonDistribution, transmittance: float) -> np.ndarray:
    dist = (source if transmittance == 1.0
            else bernoulli_transform(source, transmittance))
    return np.cumsum(dist.probs)


def _click_prob(eta: float, photons: np.ndarray) -> np.ndarray:
    return 1.0 - np.power(1.0 - eta, photons)


def simulate(config: PulseTrainConfig, seed: Optional[int] = None,
             threads: int = 1) -> SimulationResult:
    """Run the pulse train; identical (config, seed) gives identical output.

    ``threads`` parallelizes the per-chunk randomness generation only; the
    afterpulse recursion is applied chunk after chunk with carried history, so
    the result does not depend on the thread count.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    if seed is None:
        seed = config.seed
    dets = (config.det_0, config.det_1, config.det_plus, config.det_minus)
    coeffs = {spec: _coefficient_array(spec) for spec in {det.afterpulse for det in dets}}
    p_all = {spec: _survival_floor(c) for spec, c in coeffs.items()}
    carries = [np.zeros(coeffs[det.afterpulse].size, dtype=bool) for det in dets]

    cdf_z = _photon_cdf(config.source, config.t_z)
    cdf_x = (cdf_z if config.t_x == config.t_z
             else _photon_cdf(config.source, config.t_x))

    n_pulses = config.pulses
    chunk_size = config.chunk_size
    n_chunks = (n_pulses + chunk_size - 1) // chunk_size
    chunk_counts = [min(chunk_size, n_pulses - c * chunk_size) for c in range(n_chunks)]

    rec_d0 = np.zeros(n_pulses, dtype=bool)
    rec_d1 = np.zeros(n_pulses, dtype=bool)
    rec_ap0 = np.zeros(n_pulses, dtype=bool)
    rec_ap1 = np.zeros(n_pulses, dtype=bool)
    rec_is_x = np.zeros(n_pulses, dtype=bool)

    bit_parts, fill_parts, index_parts = [], [], []
    n_single = n_double = z_windows = x_windows = 0
    minus_only = 0
    half_errors = 0.0

    def draws_for(chunk: int) -> dict:
        return _chunk_draws(config, seed, chunk, chunk_counts[chunk], cdf_z, cdf_x)

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        pending = {}
        for chunk in range(n_chunks):
            if pool is not None:
                for ahead in range(chunk, min(chunk + threads, n_chunks)):
                    if ahead not in pending:
                        pending[ahead] = pool.submit(draws_for, ahead)
                d = pending.pop(chunk).result()
            else:
                d = draws_for(chunk)
            count = chunk_counts[chunk]
            offset = chunk * chunk_size
            is_x = d["u_basis"] < config.x_fraction
            is_z = ~is_x

            n0 = d["n_split"]
            n1 = d["n_z"] - n0
            n_minus = d["n_flip"]
            n_plus = d["n_x"] - n_minus
            photons = (
                np.where(is_z, n0, 0), np.where(is_z, n1, 0),
                np.where(is_x, n_plus, 0), np.where(is_x, n_minus, 0),
            )

            fires, aps = [], []
            for k, det in enumerate(dets):
                signal = d["u_signal"][k] < _click_prob(det.efficiency, photons[k])
                base = signal | (d["u_dark"][k] < det.dark_rate)
                spec = det.afterpulse
                fired, ap, carries[k] = _afterpulse_pass(
                    base, d["u_ap"][k], coeffs[spec], carries[k], p_all[spec])
                fires.append(fired)
                aps.append(ap)

            rec_is_x[offset:offset + count] = is_x
            rec_d0[offset:offset + count] = np.where(is_x, fires[2], fires[0])
            rec_d1[offset:offset + count] = np.where(is_x, fires[3], fires[1])
            rec_ap0[offset:offset + count] = np.where(is_x, aps[2], aps[0])
            rec_ap1[offset:offset + count] = np.where(is_x, aps[3], aps[1])

            single = is_z & (fires[0] ^ fires[1])
            double = is_z & fires[0] & fires[1]
            detected = single | double
            if detected.any():
                bit_parts.append(np.where(double, d["fill"],
                                          fires[1].astype(np.uint8))[detected])
                fill_parts.append(double[detected])
                index_parts.append(offset + np.nonzero(detected)[0])
            n_single += int(single.sum())
            n_double += int(double.sum())
            z_windows += int(is_z.sum())
            x_windows += int(is_x.sum())
            minus_only += int((is_x & fires[3] & ~fires[2]).sum())
            half_errors += 0.5 * int((is_x & fires[3] & fires[2]).sum())
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if bit_parts:
        bits = np.concatenate(bit_parts)
        fill_mask = np.concatenate(fill_parts)
        window_index = np.concatenate(index_parts)
    else:
        bits = np.zeros(0, dtype=np.uint8)
        fill_mask = np.zeros(0, dtype=bool)
        window_index = np.zeros(0, dtype=np.int64)

    eq_hat = ((minus_only + half_errors) / x_windows) if x_windows else math.nan
    clicks = ClickRecords(rec_is_x, rec_d0, rec_d1, rec_ap0, rec_ap1)
    stream = BitStream(bits=bits, fill_mask=fill_mask, window_index=window_index,
                       z_windows=z_windows, x_windows=x_windows,
                       n_single=n_single, n_double=n_double)
    return SimulationResult(clicks=clicks, bits=stream, eq_empirical=eq_hat)


# ---------------------------------------------------------------------------
# Empirical statistics


def empirical_click_stats(clicks: ClickRecords) -> Tuple[float, float, int]:
    """(single-click ratio, double-click ratio, window count) in the Z basis."""
    z = ~clicks.basis_is_x
    n = int(z.sum())
    if n == 0:
        raise DegenerateError("no generation-basis windows")
    single = int((clicks.d0[z] ^ clicks.d1[z]).sum())
    double = int((clicks.d0[z] & clicks.d1[z]).sum())
    return single / n, double / n, n


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

_DIRECT_CONV_LIMIT = 1 << 22  # n*output_len above this switches to FFT


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


def extract(bits, output_len: int, extractor_seed: int) -> np.ndarray:
    """Two-universal Toeplitz hash of a bit sequence.

    The binary Toeplitz matrix T[i, j] = r[n-1+i-j] is generated from a keyed
    Philox stream of n + output_len - 1 bits; the product T x over GF(2) is a
    convolution reduced mod 2.  Deterministic in (bits, seed, output_len); the
    caller is responsible for choosing output_len within the entropy budget.
    """
    if isinstance(bits, BitStream):
        x = bits.bits
    else:
        x = np.asarray(bits, dtype=np.uint8)
    if x.ndim != 1:
        raise ParameterError("bit input must be one-dimensional")
    if np.any(x > 1):
        raise ParameterError("bit input must be 0/1 valued")
    if output_len < 0:
        raise ParameterError(f"output_len must be >= 0, got {output_len}")
    n = x.size
    if output_len > n:
        raise ParameterError(f"output_len {output_len} exceeds input length {n}")
    if output_len == 0:
        return np.zeros(0, dtype=np.uint8)
    rng = _stream(extractor_seed, STREAM_EXTRACTOR, 0)
    r = rng.integers(0, 2, size=n + output_len - 1, dtype=np.uint8)
    if n * output_len <= _DIRECT_CONV_LIMIT:
        conv = np.convolve(x.astype(np.int64), r.astype(np.int64))
    else:
        # Real FFTs at the padded length scipy.signal.fftconvolve uses.  The
        # exact convolution is integer, so rint recovers it whenever the
        # float error stays below 1/2; the check below keeps it under 0.1.
        size = n + r.size - 1
        fast = _next_5_smooth(size)
        conv_f = np.fft.irfft(np.fft.rfft(x.astype(float), fast)
                              * np.fft.rfft(r.astype(float), fast), fast)[:size]
        conv = np.rint(conv_f).astype(np.int64)
        if float(np.max(np.abs(conv_f - conv))) > 0.1:
            raise ArithmeticError("FFT convolution lost integer precision")
    return (conv[n - 1:n - 1 + output_len] & 1).astype(np.uint8)
