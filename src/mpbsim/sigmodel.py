"""Array signal synthesis for a DS-SS system under structured interference.

Everything upstream of the beamformer lives here: ULA steering vectors,
31-chip Gold codes, the SOI pulse train, four interferer families (BPSK
white, tones, periodical noise, multiple-access multipath), AWGN, and the
per-symbol blocked data matrices X(k).

Two synthesizers share the random streams. iter_blocks builds the full
L x N block X(k) of every symbol and is kept as the reference.
projected_sum returns only the second-order sums of the projections
X(k) B* onto an N x M basis B, which is all the beamformer consumes,
without ever forming X(k). It takes a whole sweep grid at once: one
scenario and the points (soi_power, mc_stream) that a sweep moves, and
nothing else. What no point changes (paths, steering, the projected loads,
the noise colouring, chip tables) is built once per grid, each point draws
its own streams, and the rest is stacked over the grid.

Randomness discipline: interferer *realization* parameters (tone phases,
periodical-noise segments) derive from the scenario seed alone, so every
point of a sweep sees the same ones: realize_paths draws them wherever they
are used, and a Scenario carries no drawing. Per-symbol randomness
(data bits, white chips) and receiver noise derive from counter-based
Philox streams keyed by (seed, tag, mc_stream, index...), making synthesis
a pure function of the scenario and independent of how work is
partitioned. A stream's key is the one numpy's SeedSequence hashes from
that entropy, and a Philox stream is fully defined by its key and counter.
Every stream is its own Philox, built by _philox where it is drawn, in
both synthesizers. The +-1 streams are read straight off the raw Philox
words by the one reader _stream_bits, at any bit that starts a counter
step: a Philox is positioned by its counter, so no read depends on an
earlier one. projected_sum reads them CHUNK symbols at a time, each chunk
alone, so a point's memory does not grow with K.
SOI and MAI bits go through _bits: bit i is the top bit of the i-th 32-bit
half, low half first, which is the draw of Generator.integers(0, 2) on the
same stream. _bits keeps them as booleans, true where the bit is -1.
iter_blocks multiplies by them as +-1 floats (soi_bits, _mai_bit_streams);
projected_sum reads the booleans (_chunk_negs). A white path packs
a whole symbol into one half word (_white_bits): chip n is bit n of the
half shifted right by one, which is the draw of
Generator.integers(0, 2**31, dtype=np.uint32). iter_blocks unpacks those
chips; projected_sum never does, and looks up the projection of each byte
of chips in a table instead. The streams are the same in both
synthesizers, so the signal part of projected_sum equals the sums of the
projected full blocks to rounding. projected_sum builds it from the few
scalar temporal sources the rows share rather than from the rows, and
when every source is +-1 or constant it counts where the sources agree in
sign instead of summing symbol by symbol. Two periodic paths share a
source only when the one coherence rule, coherent, says so. Receiver noise
is drawn where it is used: as L x N white chips in iter_blocks, and in
projected_sum as one exact draw of the noise sums given the signal
(complex Wishart, Goodman 1963, through Bartlett's decomposition, Bartlett
1933). Both give the same law of the sums, but they are different draws.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la

BATCH = 4096  # symbols per synthesis batch; fixed so streams never depend on partitioning
CHUNK = 256 * BATCH  # symbols per read of a +-1 stream in projected_sum; a multiple of BATCH

# stream tags (entropy-pool components, must stay distinct)
_TAG_REALIZATION = 101
_TAG_SOI_BITS = 102
_TAG_MAI_BITS = 103
_TAG_WHITE = 104
_TAG_NOISE = 105
_TAG_NOISE_SUMS = 107


# -----------------------
# Geometry and steering
# -----------------------

@dataclass(frozen=True)
class ArrayGeometry:
    """A uniform linear array of element_count elements, spacing wavelengths
    apart. The steering phase 2 pi spacing l sin(theta) must stay finite at
    the last element, so 2 pi spacing (element_count - 1) must be finite."""
    element_count: int
    spacing: float = 0.5  # in wavelengths

    def __post_init__(self):
        if self.element_count < 2:
            raise ValueError(f"element_count must be at least 2, got {self.element_count}")
        if not (0 < self.spacing and
                math.isfinite(2.0 * math.pi * self.spacing * (self.element_count - 1))):
            raise ValueError(f"spacing must be positive and finite, with a finite phase "
                             f"2 pi spacing (element_count - 1), got {self.spacing}")


def _check_doa(doa_deg, name: str) -> None:
    """The one direction rule, of the specs and steering: off endfire, where
    the array loses angular resolution and the model breaks down."""
    if not abs(doa_deg) < 90.0:
        raise ValueError(f"{name} must satisfy |doa| < 90 deg, got {doa_deg}")


def steering(doa_deg: float, geometry: ArrayGeometry) -> np.ndarray:
    """ULA steering vector a(theta); unit-modulus entries so ||a||^2 = L.

    a[l] = exp(j*2*pi*spacing*l*sin(theta)), for |doa_deg| < 90 (_check_doa).
    """
    _check_doa(doa_deg, "doa_deg")
    l_idx = np.arange(geometry.element_count)
    phase = 2.0 * math.pi * geometry.spacing * math.sin(math.radians(doa_deg))
    return np.exp(1j * phase * l_idx)


# -----------------------
# Gold codes (31 chips)
# -----------------------

def _m_sequence(recurrence_lags: tuple, degree: int = 5) -> np.ndarray:
    """Binary m-sequence from a Fibonacci LFSR, all-ones initial fill."""
    period = 2 ** degree - 1
    bits = [1] * degree
    for n in range(degree, period):
        bits.append(int(np.bitwise_xor.reduce([bits[n - lag] for lag in recurrence_lags])))
    return np.array(bits[:period], dtype=np.int64)


GOLD_LENGTH = 31  # chips per Gold code: the processing gain N of every SOI

# preferred pair of degree-5 feedback polynomials: x^5+x^2+1 and x^5+x^4+x^3+x^2+1
_M1 = _m_sequence((3, 5))
_M2 = _m_sequence((1, 2, 3, 5))


def _check_gold_index(index, name: str) -> None:
    """The one Gold code index rule: an integer (not a bool) in [0, 33)."""
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {index!r}")
    if not 0 <= index < 33:
        raise ValueError(f"{name} must be in [0, 33), got {index}")


def gold31(pair_index: int) -> np.ndarray:
    """31-chip +-1 Gold code number pair_index from the degree-5 preferred pair.

    Indices 0..30 are m1 xor (m2 cyclically shifted by the index); 31 and 32
    are the two m-sequences themselves. Distinct indices give distinct codes
    and every distinct pair has periodic cross-correlation in {-1, -9, 7}.
    """
    _check_gold_index(pair_index, "pair_index")
    if pair_index < 31:
        bits = np.bitwise_xor(_M1, np.roll(_M2, -pair_index))
    elif pair_index == 31:
        bits = _M1
    else:
        bits = _M2
    return (1 - 2 * bits).astype(np.float64)


# -----------------------
# Specs
# -----------------------

@dataclass(frozen=True)
class SoiSpec:
    """The spread-spectrum signal of interest: Gold code number gold_index at
    doa_deg, with linear power, normally set through SNR = N * P0.

    The code is gold31(gold_index), read through the code property and never
    stored. The synthesizer draws i.i.d. +-1 data from the scenario seed.
    Each field is checked by its one rule when the spec is built.
    """
    gold_index: int
    doa_deg: float = 0.0
    power: float = 1.0

    def __post_init__(self):
        _check_gold_index(self.gold_index, "gold_index")
        _check_doa(self.doa_deg, "doa_deg")
        _check_soi_power(self.power)

    @property
    def code(self) -> np.ndarray:
        return gold31(self.gold_index)


def _check_soi_power(power) -> None:
    """The SOI power rule, of a SoiSpec and of each point of projected_sum."""
    if not 0 <= power < math.inf:
        raise ValueError(f"power must be >= 0 and finite, got {power}")


def _check_mc_stream(mc_stream) -> None:
    """The mc_stream rule of each point of projected_sum: an int in
    [0, 2**32), one 32-bit word of its streams' entropy, as _philox takes
    it. A larger int does not fit that word, and split into several words
    it could make the entropy of one stream that of another."""
    if not isinstance(mc_stream, (int, np.integer)) or not 0 <= mc_stream < 2 ** 32:
        raise ValueError(f"mc_stream must be an int in [0, 2**32), got {mc_stream!r}")


KINDS = ("bpsk_white", "tone", "periodical_noise", "mai_multipath")


@dataclass(frozen=True)
class InterfererSpec:
    """One interference source.

    kind selects the family; power is linear *per steering direction* (each
    multipath ray carries power * gain^2). Tone frequency is in cycles/chip
    (offset_Hz / chip_rate). MAI rays share one random +-1 data stream
    spread by another user's Gold code. Every field is checked when the
    spec is built, and an error names it, a per-ray one with the ray's index.
    A tone's phase 2 pi normalized_offset N, and an MAI ray's power
    power * gain^2, must come out finite (and the power positive), or the
    run would overflow after the checks.
    """
    kind: str
    doa_deg: float = 0.0
    power: float = 1.0
    normalized_offset: float = 0.0          # tone only
    user_code: int = 1                      # mai only: gold31 index
    path_delays: tuple = ()                 # mai only: chips
    path_doas: tuple = ()                   # mai only: degrees
    path_gains: tuple | None = None         # mai only: amplitude per ray (default all 1)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0 < self.power < math.inf:
            raise ValueError(f"power must be positive and finite, got {self.power}")
        _check_doa(self.doa_deg, "doa_deg")
        for j, doa in enumerate(self.path_doas):
            _check_doa(doa, f"path_doas[{j}]")
        for j, gain in enumerate(self.path_gains or ()):
            if not 0 < gain < math.inf:
                raise ValueError(f"path_gains[{j}] must be positive and finite, got {gain}")
            # the ray power as realize_paths forms it; a default gain of 1 keeps power
            if self.kind == "mai_multipath" and not 0 < self.power * gain * gain < math.inf:
                raise ValueError(f"path_gains[{j}] must give a ray power power * gain^2 "
                                 f"in (0, inf), got {gain} at power {self.power}")
        if self.kind == "tone" and \
                not math.isfinite(2.0 * math.pi * self.normalized_offset * GOLD_LENGTH):
            raise ValueError(f"normalized_offset must be finite, with a finite phase "
                             f"2 pi normalized_offset N, got {self.normalized_offset}")
        if self.kind == "mai_multipath":
            rays = len(self.path_delays)
            if not rays:
                raise ValueError("path_delays must list at least one ray")
            for name, per_ray in (("path_doas", self.path_doas), ("path_gains", self.path_gains)):
                if per_ray is not None and len(per_ray) != rays:
                    raise ValueError(f"{name} must hold one entry per path delay "
                                     f"({rays}), got {len(per_ray)}")
            _check_gold_index(self.user_code, "user_code")
            for j, d in enumerate(self.path_delays):
                if not 0 <= d < GOLD_LENGTH:
                    raise ValueError(f"path_delays[{j}] must lie in [0, {GOLD_LENGTH}), got {d}")
            gains = self.path_gains or (1.0,) * rays
            object.__setattr__(self, "path_gains", tuple(map(float, gains)))


@dataclass(frozen=True)
class Scenario:
    """One array, SOI and interferer set, and the Monte Carlo key of its data.

    Powers are in units of the receiver noise power: every element's noise
    is CN(0, 1), so an SOI power P0 has SNR N * P0 and an interferer power
    is its INR.
    """
    geometry: ArrayGeometry
    soi: SoiSpec
    interferers: tuple
    symbols: int = 1000
    seed: int = 0
    mc_stream: int = 0  # distinguishes Monte Carlo streams across sweep points

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if self.symbols < 1:
            raise ValueError("symbols must be >= 1")


# -----------------------
# Realized directional paths
# -----------------------

@dataclass(frozen=True)
class RealizedPath:
    """One steering direction of one interferer with its realization drawn.

    family "periodic": the block-k row is waveform * block_phase^k.
    family "mai": the block-k row is b(k)*head + b(k-1)*tail where b is the
    +-1 stream identified by stream_index.
    family "white": i.i.d. +-1 chips from stream_index, 31 per half word.
    """
    family: str
    doa_deg: float
    power: float
    stream_index: int
    waveform: np.ndarray | None = None
    block_phase: complex = 1.0 + 0.0j
    head: np.ndarray | None = None
    tail: np.ndarray | None = None


def coherent(rho_a: complex, rho_b: complex) -> bool:
    """Whether two periodic paths of block phases rho_a and rho_b are coherent.

    This is the one coherence rule. projected_sum gives coherent paths one
    temporal ramp, and the closed-form Phi (mpb) and the waveform route to
    boundedness (theory) keep cross terms only between coherent paths. It
    holds only for equal phases, so it never merges ramps that differ and
    the simulation stays exact. realize_paths takes the block phase from
    frac(f N), so every on-grid offset f = k/N gets exactly 1.
    """
    return rho_a == rho_b


def _philox(seed: int, tag: int, mc_stream: int, *index: int) -> np.random.Philox:
    """The Philox bit generator keyed by (seed, tag, mc_stream, *index), the
    one way a stream is built.

    Its key is the one numpy's SeedSequence hashes from the words of
    [seed, tag, mc_stream, *index]: the seed's by numpy's integer rule, and
    one word per tail entry, each below 2**32. The tail is passed as one
    uint32 array, which has exactly those words and which numpy coerces
    once, instead of int by int.
    """
    tail = np.array([tag, mc_stream, *index], dtype=np.uint32)
    return np.random.Philox(np.random.SeedSequence([seed, tail]))


def _stream(seed: int, tag: int, mc_stream: int, *index: int) -> np.random.Generator:
    """The Philox stream keyed by (seed, tag, mc_stream, *index)."""
    return np.random.Generator(_philox(seed, tag, mc_stream, *index))


def realize_paths(scenario: Scenario) -> list:
    """Expand interferers into directional paths with realizations drawn.

    Depends on the scenario seed only (not mc_stream), so every point of an
    SNR sweep sees the same tone phases and noise segments. Only tones and
    periodical noise draw, each from its own realization stream, which is
    built only for them. A tone's block phase e^{i 2 pi f N} is taken from
    the fractional part of f N, so an integer f N gives exactly 1.
    """
    n = GOLD_LENGTH
    paths = []
    for idx, sp in enumerate(scenario.interferers):
        if sp.kind == "bpsk_white":
            paths.append(RealizedPath("white", sp.doa_deg, sp.power, idx))
        elif sp.kind == "tone":
            phi0 = _stream(scenario.seed, _TAG_REALIZATION, idx).uniform(0.0, 2.0 * math.pi)
            wave = np.exp(1j * (phi0 + 2.0 * math.pi * sp.normalized_offset * np.arange(n)))
            cycles = sp.normalized_offset * n
            rho = cmath.exp(2j * math.pi * (cycles - round(cycles)))
            paths.append(RealizedPath("periodic", sp.doa_deg, sp.power, idx,
                                      waveform=wave, block_phase=rho))
        elif sp.kind == "periodical_noise":
            rng = _stream(scenario.seed, _TAG_REALIZATION, idx)
            seg = rng.normal(size=n) + 1j * rng.normal(size=n)
            seg *= math.sqrt(n) / math.sqrt(float(np.sum(np.abs(seg) ** 2)))  # exact unit power
            paths.append(RealizedPath("periodic", sp.doa_deg, sp.power, idx, waveform=seg))
        else:  # mai_multipath
            code = gold31(sp.user_code)
            for d, doa, g in zip(sp.path_delays, sp.path_doas, sp.path_gains):
                head = np.zeros(n)
                tail = np.zeros(n)
                head[d:] = code[:n - d]
                tail[:d] = code[n - d:]
                paths.append(RealizedPath("mai", doa, sp.power * g * g, idx,
                                          head=head, tail=tail))
    return paths


def steering_matrix(paths, geometry: ArrayGeometry) -> np.ndarray:
    """L x D matrix whose columns are the path steering vectors."""
    if not paths:
        return np.zeros((geometry.element_count, 0), dtype=np.complex128)
    return np.stack([steering(p.doa_deg, geometry) for p in paths], axis=1)


# -----------------------
# Block synthesis
# -----------------------

def _halves(raw: np.random.Philox, count: int) -> np.ndarray:
    """The next count 32-bit halves of a Philox's raw 64-bit words, low half
    of each word first, as uint32: the order in which Philox serves its
    32-bit draws. They are read through a little-endian view, so that the
    order does not depend on the machine's byte order. The Philox must not
    have served a 32-bit draw: a Generator would first spend a half word
    left over from it, and random_raw does not see it.
    """
    words = raw.random_raw((count + 1) // 2).astype("<u8", copy=False)
    return words.view("<u4")[:count]


def _bits(raw: np.random.Philox, count: int) -> np.ndarray:
    """The next count bits of a Philox as booleans, equal to a Generator's
    integers(0, 2, size=count) on it; a set bit stands for the +-1 value -1.

    This serves the SOI and MAI bit streams, through _stream_bits; white
    chips are packed by _white_bits. integers(0, 2) keeps the top bit of
    each 32-bit draw (Lemire's bounded method never rejects for a range of
    two), so the bits are the signs of the raw halves (_halves).
    """
    return _halves(raw, count).view("<i4") < 0


def _stream_bits(seed: int, tag: int, mc_stream: int, index: int,
                 start: int, count: int) -> np.ndarray:
    """Bits start .. start+count-1 of the +-1 stream keyed by
    (seed, tag, mc_stream, index), as _bits reads them from its start.

    Philox is counter-based: one counter step makes four 64-bit words, or
    eight bits, so the stream is positioned by advancing its fresh Philox
    start // 8 steps, and no bit before start is read. start must be a
    multiple of 8, as every CHUNK and BATCH boundary is.
    """
    if start % 8:
        raise ValueError(f"start must be a multiple of 8, got {start}")
    raw = _philox(seed, tag, mc_stream, index)
    raw.advance(start // 8)
    return _bits(raw, count)


def soi_bits(scenario: Scenario) -> np.ndarray:
    """The +-1 SOI data stream for this scenario, as float64.

    iter_blocks multiplies the blocks by it; projected_sum reads the same
    stream as booleans, a chunk at a time (_chunk_negs), and never forms
    this array.
    """
    return 1.0 - 2.0 * _stream_bits(scenario.seed, _TAG_SOI_BITS, scenario.mc_stream, 0,
                                    0, scenario.symbols)


def _mai_bit_streams(scenario: Scenario, paths) -> dict:
    """One +-1 stream of length K+1 per MAI interferer index among paths
    (entry 0 = b(-1)), in the order of the paths."""
    return {i: 1.0 - 2.0 * _stream_bits(scenario.seed, _TAG_MAI_BITS, scenario.mc_stream, i,
                                        0, scenario.symbols + 1)
            for i in dict.fromkeys(p.stream_index for p in paths if p.family == "mai")}


def _white_bits(raw: np.random.Philox, count: int) -> np.ndarray:
    """The packed chips of a white path for one synthesis batch, from the
    fresh Philox of its (mc_stream, path, batch), one uint32 per symbol:
    chip n of a symbol is 1 - 2 * (bit n of its word).

    Symbol k takes the k-th 32-bit half of the raw Philox words (_halves),
    shifted right by one. That is the draw of
    integers(0, 2**31, dtype=np.uint32) on the same fresh stream: Lemire's
    method keeps the top 31 bits of each 32-bit draw and never rejects for
    a power-of-two range. So one raw word carries two symbols, and the
    dropped low bit of each half reaches no chip.
    """
    return _halves(raw, count) >> 1


def _chip_bytes(packed: np.ndarray) -> np.ndarray:
    """The four bytes of each packed symbol, shape (count, 4), chips 0-7 first."""
    return packed.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)


def _unpack_chips(packed: np.ndarray, n: int) -> np.ndarray:
    """The +-1 chips of packed symbols, shape (count, n)."""
    bits = np.unpackbits(_chip_bytes(packed), axis=1, bitorder="little")
    return 1.0 - 2.0 * bits[:, :n]


def _chip_tables(proj: np.ndarray) -> np.ndarray:
    """Projections of every byte of chips onto an N x M basis, (4, M, 256).

    Entry [j, :, v] is sum_b (1 - 2 * bit b of v) * proj[8 j + b] over the
    chips 8 j + b < N, so the projection chips @ proj of a packed symbol is
    the sum of the four entries its bytes pick. Bit 31 of a packed symbol,
    and every bit past N, meets a zero row and reaches no chip.
    """
    padded = np.zeros((32, proj.shape[1]), dtype=np.complex128)
    padded[:proj.shape[0]] = proj
    signs = 1.0 - 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                      axis=1, bitorder="little")
    return np.stack([(signs @ padded[8 * j:8 * j + 8]).T for j in range(4)])


def _check_include(include) -> None:
    unknown = set(include) - {"soi", "interference", "noise"}
    if unknown:
        raise ValueError(f"unknown components {sorted(unknown)}")


def iter_blocks(scenario: Scenario, include=("soi", "interference", "noise")):
    """Yield (k0, X) with X of shape (B, L, N): blocks k0 .. k0+B-1, B <= BATCH.

    include selects which additive components are synthesized; the random
    streams consumed by each component are unaffected by the selection, so
    soi-only plus rest-only reproduces the full synthesis to rounding.

    White-chip and AWGN streams are keyed per batch of the fixed BATCH
    symbols, so the output is a pure function of the scenario.
    """
    _check_include(include)
    geo = scenario.geometry
    big_l, n = geo.element_count, GOLD_LENGTH
    k_total = scenario.symbols
    paths = realize_paths(scenario)
    want_soi = "soi" in include
    want_int = "interference" in include and paths
    want_noise = "noise" in include

    if want_soi:
        bits0 = soi_bits(scenario)
        a0 = steering(scenario.soi.doa_deg, geo)
        soi_outer = math.sqrt(scenario.soi.power) * np.outer(a0, scenario.soi.code)
    if want_int:
        steer = steering_matrix(paths, geo)
        mai_bits = _mai_bit_streams(scenario, paths)

    for bi, k0 in enumerate(range(0, k_total, BATCH)):
        nb = min(BATCH, k_total - k0)
        x = np.zeros((nb, big_l, n), dtype=np.complex128)
        if want_soi:
            x += bits0[k0:k0 + nb, None, None] * soi_outer[None, :, :]
        if want_int:
            for pi, p in enumerate(paths):
                amp = math.sqrt(p.power)
                if p.family == "white":
                    s = _unpack_chips(_white_bits(_philox(
                        scenario.seed, _TAG_WHITE, scenario.mc_stream, p.stream_index, bi), nb), n)
                elif p.family == "periodic":
                    rho_k = np.exp(1j * cmath.phase(p.block_phase) * np.arange(k0, k0 + nb))
                    s = rho_k[:, None] * p.waveform[None, :]
                else:  # mai
                    b = mai_bits[p.stream_index]
                    cur = b[k0 + 1:k0 + nb + 1]
                    prev = b[k0:k0 + nb]
                    s = cur[:, None] * p.head[None, :] + prev[:, None] * p.tail[None, :]
                x += amp * steer[None, :, pi, None] * s[:, None, :]
        if want_noise:
            rng = _stream(scenario.seed, _TAG_NOISE, scenario.mc_stream, bi)
            sd = math.sqrt(0.5)
            x += sd * (rng.normal(size=(nb, big_l, n)) + 1j * rng.normal(size=(nb, big_l, n)))
        yield k0, x


def _cn(rng: np.random.Generator, out: np.ndarray, gauss: np.ndarray, where=True) -> None:
    """Set out to i.i.d. CN(0, 1) entries, (g0 + i g1) sqrt(1/2) for g drawn
    by rng.standard_normal into gauss, shape (2, *out.shape). Only the
    entries where `where` holds are set; the rest keep their value."""
    rng.standard_normal(out=gauss)
    np.multiply(gauss[0], math.sqrt(0.5), out=out.real, where=where)
    np.multiply(gauss[1], math.sqrt(0.5), out=out.imag, where=where)


def _wishart_factor(rng: np.random.Generator, out: np.ndarray, gauss: np.ndarray,
                    lower: np.ndarray, shapes: np.ndarray) -> None:
    """Set out, a zero dim x min(dim, dof) matrix, to A with A A^H ~ CW_dim(dof, I).

    For dof >= dim this is Bartlett's lower-triangular factor, in its complex
    form: |A_ii|^2 ~ Gamma(dof - i, 1) for i = 0 .. dim-1 and i.i.d. CN(0, 1)
    below the diagonal, where the mask lower holds. Otherwise it is a
    dim x dof CN(0, 1) matrix. gauss is _cn's buffer, shapes holds the
    dof - i, and both serve every point of a grid.
    """
    dim, cols = out.shape
    if cols < dim:
        _cn(rng, out, gauss)
        return
    _cn(rng, out, gauss, where=lower)
    np.fill_diagonal(out, np.sqrt(rng.standard_gamma(shapes)))


def _chunk_negs(seed: int, keys, mc_stream: int, k0: int, n: int) -> dict:
    """Where each +-1 source among projected_sum's keys is -1 at symbols
    k0 .. k0+n-1 of mc_stream's point: n booleans per "soi" and "mai" key.

    Each source is read from its own _philox stream at its own counter
    (_stream_bits), so any chunk of any point is read alone. The SOI reads
    bits k0 .. k0+n-1; an MAI user reads b(k0-1) .. b(k0+n-1), entries
    k0 .. k0+n of its stream, once for its b(k) and b(k-1) keys.
    """
    negs = {}
    for key in keys:
        if key[0] == "soi":
            negs[key] = _stream_bits(seed, _TAG_SOI_BITS, mc_stream, 0, k0, n)
        elif key[0] == "mai" and key[2] == 0:
            neg = _stream_bits(seed, _TAG_MAI_BITS, mc_stream, key[1], k0, n + 1)
            negs[key], negs[("mai", key[1], 1)] = neg[1:], neg[:-1]  # b(k), b(k-1)
    return negs


def _count_gram(seed: int, k_total: int, stream: int, keys) -> np.ndarray:
    """Z = sum_k z z^H of projected_sum's sources at the point of one
    mc_stream, when each is +-1 or the constant 1: the "soi" and "mai" keys
    are +-1 and read from where they are -1 (_chunk_negs), and the one
    other key is the constant ramp.

    A product of two such sources is -1 exactly where one of them is, so
    Z_ab = K - 2 count(neg_a xor neg_b), and the diagonal is K. The counts
    are taken off K one chunk of CHUNK symbols at a time, each chunk read
    at its own counter, and every partial result is an exact integer.
    These are the integers _batch_gram reaches by summing the products in
    float64, so the two give the same complex128 matrix, bit for bit.
    """
    z_gram = np.full((len(keys), len(keys)), k_total, dtype=np.complex128)
    for k0 in range(0, k_total, CHUNK):
        chunk = _chunk_negs(seed, keys, stream, k0, min(CHUNK, k_total - k0))
        flips = [chunk.get(key, False) for key in keys]  # the constant 1 is never -1
        for a, b in itertools.combinations(range(len(keys)), 2):
            flipped = 2 * np.count_nonzero(flips[a] ^ flips[b])
            z_gram[a, b] -= flipped
            z_gram[b, a] -= flipped
        del chunk, flips  # the next chunk is read with this one freed
    return z_gram


def _batch_gram(seed: int, k_total: int, streams, keys, proj: np.ndarray) -> np.ndarray:
    """Z = sum_k z z^H of projected_sum's sources at every point of a grid,
    summed batch by batch: shape (P, q', q') for the P mc_streams in streams.

    keys name the sources in the order of U's columns: "soi" and "mai" keys
    are read as the chunk of CHUNK symbols that a batch starts (_chunk_negs)
    and made +-1 one batch slice at a time, a "ramp" key holds its block
    phase, and a "white" key stands for the M projected chip rows of one
    white path, whose chips are drawn per batch from the seed's _philox.
    The chip tables, the ramp steps and the buffers serve every point.
    """
    if any(key[0] == "white" for key in keys):
        tables = _chip_tables(proj)
    # e^{i phi (k0 + j)} = e^{i phi k0} e^{i phi j}: the exps of one batch
    # serve every batch. Equal to the complex power of the unit-modulus
    # block phase to rounding, and exactly 1 for phi = 0.
    j = np.arange(min(BATCH, k_total))
    steps = {key[1]: np.exp(1j * cmath.phase(key[1]) * j)
             for key in keys if key[0] == "ramp"}
    m = proj.shape[1]
    width = sum(m if key[0] == "white" else 1 for key in keys)
    # z, its conjugate and one white lookup, filled in place batch by batch
    # and point by point: arrays allocated per batch are large enough to be
    # mapped and faulted in anew on every batch. A partial batch fills the
    # leading part of each, which is contiguous too.
    rows = (width, width, m)
    flat = [np.empty(r * len(j), dtype=np.complex128) for r in rows]

    z_gram = np.zeros((len(streams), width, width), dtype=np.complex128)
    for stream, point_gram in zip(streams, z_gram):
        for bi, k0 in enumerate(range(0, k_total, BATCH)):
            nb = min(BATCH, k_total - k0)
            at = k0 % CHUNK  # where the batch starts in its chunk of the +-1 streams
            if not at:
                chunk = None  # the last chunk goes before the next one is read
                chunk = _chunk_negs(seed, keys, stream, k0, min(CHUNK, k_total - k0))
            z, z_conj, lookup = (buf[:r * nb].reshape(r, nb) for buf, r in zip(flat, rows))
            row = 0
            for key in keys:
                if key[0] == "white":
                    # the sum from 0 of the four byte lookups; mode "clip"
                    # writes out unbuffered, and a byte never leaves a
                    # 256-entry table
                    raw = _philox(seed, _TAG_WHITE, stream, key[1], bi)
                    octets = _chip_bytes(_white_bits(raw, nb))
                    chips = z[row:row + m]
                    chips[...] = 0.0
                    for b in range(4):
                        np.take(tables[b], octets[:, b], axis=1, out=lookup, mode="clip")
                        chips += lookup
                    row += m
                elif key in chunk:
                    z[row] = 1.0 - 2.0 * chunk[key][at:at + nb]
                    row += 1
                else:  # ramp
                    z[row] = cmath.exp(1j * cmath.phase(key[1]) * k0) * steps[key[1]][:nb]
                    row += 1
            np.conjugate(z, out=z_conj)
            point_gram += z @ z_conj.T
    return z_gram


def _coloured(colour: np.ndarray, w: np.ndarray, big_l: int) -> np.ndarray:
    """C W for C = colour kron I_L, a stack W (P, L M, c): colour on the (P, M, L c) view."""
    return (colour @ w.reshape(len(w), len(colour), big_l * w.shape[-1])).reshape(w.shape)


def _steered(steer: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """T X for T[(j, l), (p, j')] = steer[l, p] * (j == j') and a stack X
    (P, paths M, c): the (L x paths) steer on the (P, paths, M c) view."""
    (big_l, paths), (count, _, c) = steer.shape, x.shape
    y = (steer @ x.reshape(count, paths, m * c)).reshape(count, big_l, m, c)
    return y.swapaxes(1, 2).reshape(count, big_l * m, c)


def projected_sum(scenario: Scenario, basis: np.ndarray,
                  include=("soi", "interference", "noise"), points=None) -> np.ndarray:
    """S = sum_k y(k) y(k)^H over all K symbols, an (L M) x (L M) matrix, of
    the scenario or at every point of a sweep grid.

    points, when given, is a non-empty sequence of (soi_power, mc_stream),
    the two things a sweep moves; a power obeys SoiSpec's rule. The result
    is then a stack of shape (P, L M, L M), each slice bitwise equal to the
    sum of the scenario with that SOI power and mc_stream computed alone.
    Without points, the scenario's own (soi.power, mc_stream) is the one
    point, unstacked. Per call, the paths (drawn from the seed by
    realize_paths), the steering, U (all but the SOI column's sqrt(P0)),
    chol(B^H B) and the chip tables are built once, so a whole grid shares them.
    Each point draws its own streams: the SOI and MAI bits, the white chips
    when Z is summed per symbol, then W1 and W2 from its noise stream. Each
    stream is its own Philox, built by _philox where it is drawn, and a
    point's mc_stream must be an int in [0, 2**32). The +-1 streams are read
    CHUNK symbols at a time, each chunk at its own Philox counter
    (_chunk_negs), so a point holds one chunk of them, whatever K is, and no
    chunk depends on having read the one before; a K of at most CHUNK is
    one read per stream.
    Everything else (U Z U^H, eigh(G), T R^H + C W1, the Gram products and
    the Hermitian fold) is stacked over the grid.

    y(k) stacks the M columns of X(k) basis*, so the (j, j') block of S is
    sum_k (X(k) b_j*) (X(k) b_j'*)^H for basis columns b_j and b_j'.

    Every signal component of X(k) is a steering vector times a length-N
    temporal row: the SOI first (when included), then every interference
    path. The signal part is T G T^H, with G = sum_k f f^H the Gram matrix
    of the P M rows f(k) projected onto the basis and T the steering of
    each row into its basis column. Each row is in turn a fixed projected
    loading times a scalar temporal source, f(k) = U z(k), and the q
    sources are shared where the rows share a stream:
      - the SOI bits;
      - b(k) and b(k-1) of each MAI user, for all of that user's rays;
      - one ramp e^{i phi k} per class of coherent periodic paths (the
        rule coherent: equal block phases e^{i phi}), the constant 1 when
        phi = 0, as for every on-grid tone and all periodical noise;
      - the M projected chip rows of each white path.
    So G = U Z U^H with Z = sum_k z z^H. The streams are those of
    iter_blocks, and the signal part agrees with the sums of the projected
    full blocks to rounding. Z is summed one of two ways:
      - Counted (_count_gram), when every source is +-1 (SOI bits, b(k),
        b(k-1)) or the constant 1, as on periodical noise, on-grid tones
        and MAI. Each entry is K minus twice the number of symbols where
        exactly one of its two sources is -1, read off the boolean streams
        (_chunk_negs) and summed chunk by chunk. No source is formed as
        floats.
      - Per symbol (_batch_gram), when any source is a white path or a
        ramp that is not constant. It sums z z^H over batches of BATCH
        symbols, so a symbol costs q^2 work instead of (P M)^2. A white
        path's chips are never unpacked: its M rows are the sum of four
        lookups, one per byte of its packed symbol, in tables of exact +-1
        projections that are built once per grid from the basis and shared
        by every white path and point (_chip_tables). The batch buffers
        serve every point, and hold one point's batch at a time.
    The two ways give the same bytes. The batch loop sums products of +-1
    and 1 in float64, so every partial sum of a counted source set is an
    exact integer below 2^53, whatever the order. The loop is kept whole
    where it is taken: summing the same product in other blocks would move
    its rounding, and eigh(G) below turns rounding into visible moves of
    the draw.

    Receiver noise, of unit power, is never drawn symbol by symbol. Per
    symbol it is C z(k), with C = chol(B^H B) kron I_L and z(k) ~
    CN(0, I_LM): white noise seen through the basis, correlated between
    non-orthogonal columns. Write G = R^H R with R of r = min(PM, K) rows. Given the signal
    rows, the noise sums then have the exact law
        sum_k z f^H = W1 R,   sum_k z z^H = W1 W1^H + W2,
    with W1 an LM x r matrix of i.i.d. CN(0, 1) entries and, independent of
    it, W2 ~ CW_LM(K - r, I), the complex Wishart law (Goodman, Ann. Math.
    Statist. 34, 1963). This follows from the unitary invariance of z: the
    rows' span and its complement split the K symbols into r and K - r
    independent dimensions. W2 is drawn by Bartlett's decomposition
    (Bartlett, 1933), so the noise costs O((LM)^2) draws whatever K is.
    Assembled, S = V V^H + C W2 C^H with V = T R^H + C W1.
    C and T are applied by their structure (_coloured, _steered), never formed.
    Any R with R^H R = G gives the same law; it is taken from an
    eigendecomposition of G with rounding-negative eigenvalues set to 0.

    The noise draws come from one stream per point (its mc_stream), not per
    batch. Sums of one point for different bases or components share that
    stream and are not independent of each other.
    """
    _check_include(include)
    grid = [(scenario.soi.power, scenario.mc_stream)] if points is None else list(points)
    if not grid:
        raise ValueError("points must hold at least one (soi_power, mc_stream)")
    powers, streams = zip(*grid)
    for power, stream in grid:
        _check_soi_power(power)
        _check_mc_stream(stream)
    geo = scenario.geometry
    big_l, n, k_total = geo.element_count, GOLD_LENGTH, scenario.symbols
    basis = np.asarray(basis, dtype=np.complex128)
    if basis.ndim != 2 or basis.shape[0] != n:
        raise ValueError(f"basis must be N x M with N={n}, got shape {basis.shape}")
    m = basis.shape[1]
    proj = basis.conj()
    paths = realize_paths(scenario) if "interference" in include else []
    want_soi = "soi" in include
    steer = steering_matrix(paths, geo)
    if want_soi:
        steer = np.column_stack([steering(scenario.soi.doa_deg, geo), steer])
    pm = steer.shape[1] * m
    loads = {}  # source key -> U's columns for it, (P M) x (1, or M for a white path)

    def load(key, p, block):
        u = loads.setdefault(key, np.zeros((pm, block.shape[1]), dtype=np.complex128))
        u[p * m:(p + 1) * m] += block

    if want_soi:  # column 0; its rows 0..M-1, sqrt(P0) c0 B*, are added per point
        load(("soi",), 0, np.zeros((m, 1)))
    for p, path in enumerate(paths, start=int(want_soi)):
        amp = math.sqrt(path.power)
        if path.family == "white":
            load(("white", path.stream_index), p, amp * np.eye(m))
        elif path.family == "periodic":
            key = next((k for k in loads if k[0] == "ramp"
                        and coherent(k[1], path.block_phase)), ("ramp", path.block_phase))
            load(key, p, amp * (path.waveform @ proj)[:, None])
        else:  # mai: b(k) on the head, b(k-1) on the tail
            load(("mai", path.stream_index, 0), p, amp * (path.head @ proj)[:, None])
            load(("mai", path.stream_index, 1), p, amp * (path.tail @ proj)[:, None])
    gram = np.zeros((len(streams), pm, pm), dtype=np.complex128)
    if loads:
        u = np.repeat(np.hstack(list(loads.values()))[None], len(streams), axis=0)
        if want_soi:
            u[:, :m, 0] += np.sqrt(powers)[:, None] * (scenario.soi.code @ proj)
        keys = list(loads)
        if all(key[0] in ("soi", "mai") or key[0] == "ramp" and coherent(key[1], 1.0)
               for key in keys):
            z_gram = np.stack([_count_gram(scenario.seed, k_total, stream, keys)
                               for stream in streams])
        else:
            z_gram = _batch_gram(scenario.seed, k_total, streams, keys, proj)
        gram = u @ z_gram @ la._h(u)
    dim = big_l * m
    if "noise" not in include:
        total = la._h(_steered(steer, la._h(_steered(steer, gram, m)), m))  # (T (T G)^H)^H
    else:
        r = min(pm, k_total)
        lam, vec = np.linalg.eigh(gram)
        r_h = vec[..., pm - r:] * np.sqrt(np.maximum(lam[..., None, pm - r:], 0.0))  # R^H
        colour = np.linalg.cholesky(basis.conj().T @ basis)
        w1 = np.empty((len(streams), dim, r), dtype=np.complex128)
        w2 = np.zeros((len(streams), dim, min(dim, k_total - r)), dtype=np.complex128)
        # buffers, mask and Gamma shapes of the noise draw, for every point
        gauss1, gauss2 = (np.empty((2, *w.shape[1:])) for w in (w1, w2))
        lower = np.tri(dim, k=-1, dtype=bool)
        shapes = k_total - r - np.arange(dim)
        for stream, w1_point, w2_point in zip(streams, w1, w2):
            rng = _stream(scenario.seed, _TAG_NOISE_SUMS, stream)
            _cn(rng, w1_point, gauss1)
            _wishart_factor(rng, w2_point, gauss2, lower, shapes)
        # (P, LM, LM) temporaries released as soon as they are used
        rest = _coloured(colour, w2, big_l)
        del w2
        total = rest @ la._h(rest)
        del rest
        signal_and_cross = _steered(steer, r_h, m) + _coloured(colour, w1, big_l)
        total += signal_and_cross @ la._h(signal_and_cross)
    total += la._h(total)
    total *= 0.5
    return total[0] if points is None else total


def synth_blocks(scenario: Scenario, include=("soi", "interference", "noise")) -> np.ndarray:
    """All K blocks as one (K, L, N) array; see iter_blocks for the streaming form."""
    return np.concatenate([x for _, x in iter_blocks(scenario, include=include)], axis=0)
