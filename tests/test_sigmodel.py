import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mpbsim import linalg as la
from mpbsim import sigmodel as sm


GEO8 = sm.ArrayGeometry(8)


# ---------- steering ----------

def test_steering_broadside_is_all_ones():
    a = sm.steering(0.0, GEO8)
    assert np.allclose(a, 1.0)
    assert abs(np.vdot(a, a).real - 8.0) < 1e-14


def test_steering_thirty_degrees_two_elements():
    a = sm.steering(30.0, sm.ArrayGeometry(2, spacing=0.5))
    assert np.allclose(a, [1.0, 1j])


def test_steering_rejects_endfire():
    for doa in (90.0, -90.0, 120.0):
        with pytest.raises(ValueError):
            sm.steering(doa, GEO8)


@given(st.floats(-89.99, 89.99))
def test_steering_norm_is_element_count(doa):
    a = sm.steering(doa, GEO8)
    assert abs(np.vdot(a, a).real - 8.0) < 1e-12


# ---------- Gold codes ----------

def test_gold_autocorrelation_peak():
    for idx in (0, 1, 17, 32):
        c = sm.gold31(idx)
        assert c.shape == (31,)
        assert set(np.unique(c)) <= {-1.0, 1.0}
        assert int(c @ c) == 31


def test_gold_cross_correlation_three_valued():
    """Periodic cross-correlations of distinct codes take values in {-1,-9,7}."""
    codes = [sm.gold31(i) for i in range(33)]
    allowed = {-1, -9, 7}
    for i, j in itertools.combinations(range(33), 2):
        ci, cj = codes[i], codes[j]
        for lag in range(31):
            corr = int(ci @ np.roll(cj, lag))
            assert corr in allowed, (i, j, lag, corr)


def test_gold_codes_distinct_and_range_checked():
    codes = [tuple(sm.gold31(i)) for i in range(33)]
    assert len(set(codes)) == 33
    with pytest.raises(ValueError):
        sm.gold31(33)
    with pytest.raises(ValueError):
        sm.gold31(-1)


# ---------- Specs ----------

@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_specs_reject_non_finite_and_non_positive_values(bad):
    """Each spec rejects what the config layer rejects: a NaN or infinite
    spacing, ray gain or power would reach steering or the model as a
    silent NaN."""
    with pytest.raises(ValueError, match="spacing must be positive and finite"):
        sm.ArrayGeometry(8, bad)
    with pytest.raises(ValueError, match=r"^path_gains\[1\] must be positive and finite"):
        sm.InterfererSpec("mai_multipath", path_delays=(0, 3), path_doas=(0.0, 20.0),
                          path_gains=(1.0, bad))
    with pytest.raises(ValueError, match="power must be positive and finite"):
        sm.InterfererSpec("tone", power=bad)
    if bad != 0.0:  # a silent SOI is allowed
        with pytest.raises(ValueError, match="power must be >= 0 and finite"):
            sm.SoiSpec(0, power=bad)


@pytest.mark.parametrize("bad", [-1, 33])
def test_soi_rejects_a_gold_index_out_of_range(bad):
    with pytest.raises(ValueError, match="gold_index"):
        sm.SoiSpec(bad)


@pytest.mark.parametrize("build, field", [
    (lambda: sm.SoiSpec(0, doa_deg=90.0), "doa_deg"),
    (lambda: sm.SoiSpec(0, doa_deg=math.nan), "doa_deg"),
    (lambda: sm.InterfererSpec("tone", doa_deg=-90.0), "doa_deg"),
    (lambda: sm.InterfererSpec("mai_multipath", path_delays=(0, 3), path_doas=(0.0, 95.0)),
     r"path_doas\[1\]"),
    (lambda: sm.InterfererSpec("mai_multipath", path_delays=(0, 31), path_doas=(0.0, 20.0)),
     r"path_delays\[1\]"),
    (lambda: sm.InterfererSpec("mai_multipath", path_delays=(0, 3), path_doas=(0.0,)),
     "path_doas"),
    (lambda: sm.ArrayGeometry(1), "element_count"),
    (lambda: sm.steering(90.0, GEO8), "doa_deg"),
], ids=["soi-endfire", "soi-nan", "interferer-endfire", "mai-path-doa", "mai-delay",
        "mai-ray-count", "one-element", "steering"])
def test_specs_reject_a_bad_field_when_built(build, field):
    """Each spec checks its fields when built and names the field, a ray's
    with its index: the SOI and every source direction by the one DOA rule
    that steering applies too, and an MAI ray's path delay within one code
    length."""
    with pytest.raises(ValueError, match=f"^{field} must"):
        build()


def _mai(user_code):
    return sm.InterfererSpec("mai_multipath", user_code=user_code, path_delays=(0,),
                             path_doas=(0.0,))


@pytest.mark.parametrize("build, field", [
    (lambda: sm.gold31(2.5), "pair_index"),
    (lambda: sm.gold31(True), "pair_index"),
    (lambda: sm.SoiSpec(31.5), "gold_index"),
    (lambda: sm.SoiSpec(False), "gold_index"),
    (lambda: _mai(40), "user_code"),
    (lambda: _mai(2.5), "user_code"),
    (lambda: sm.InterfererSpec("tone", normalized_offset=math.nan), "normalized_offset"),
    (lambda: sm.InterfererSpec("tone", normalized_offset=-math.inf), "normalized_offset"),
], ids=["gold31-fraction", "gold31-bool", "soi-fraction", "soi-bool", "mai-range",
        "mai-fraction", "tone-nan", "tone-inf"])
def test_specs_reject_a_bad_code_index_or_tone_offset(build, field):
    """A Gold code index is an integer in [0, 33), by one rule for gold31, the
    SOI and an MAI user, and a tone offset is finite: each spec rejects
    what would otherwise round to another code or fail deep in realize_paths,
    naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        build()


def test_soi_code_is_its_gold_code():
    assert np.array_equal(sm.SoiSpec(2).code, sm.gold31(2))


# ---------- SOI and interferer waveforms ----------
#
# Every steering vector has entry 1 at the reference element, so element 0
# of the synthesized blocks carries the unscaled chip sequence (unit powers)
# of whatever the scenario holds.

def _wave_scenario(interferers=(), symbols=1):
    return sm.Scenario(GEO8, sm.SoiSpec(0), interferers, symbols=symbols, seed=5)


def _chips(scenario, include=("interference",)):
    """Element-0 chips of every block, flattened to one sequence."""
    return sm.synth_blocks(scenario, include=include)[:, 0, :].reshape(-1)


def test_tone_zero_offset_is_constant():
    s = _chips(_wave_scenario((sm.InterfererSpec("tone", normalized_offset=0.0),), 7))
    assert np.abs(np.abs(s) - 1.0).max() < 1e-12
    assert np.abs(s - s[0]).max() < 1e-12


def test_periodical_noise_tiles_with_period_31():
    sc = _wave_scenario((sm.InterfererSpec("periodical_noise"),), 5)
    s = _chips(sc)
    assert np.array_equal(s[:31], sm.realize_paths(sc)[0].waveform)
    assert np.array_equal(s[:31], s[31:62])
    assert np.array_equal(s[:31], s[124:155])


def test_bpsk_white_is_uncorrelated():
    s = _chips(_wave_scenario((sm.InterfererSpec("bpsk_white"),), 3226)).real
    bound = 3.0 / np.sqrt(s.size)
    for lag in (1, 2, 5):
        rho = np.mean(s[lag:] * s[:-lag])
        assert abs(rho) <= bound, (lag, rho)


def test_mai_rows_share_one_delayed_stream():
    """The ray delayed by 4 chips is the undelayed ray shifted by 4 chips,
    across symbol boundaries: both rays carry one data stream."""
    ints = (sm.InterfererSpec("mai_multipath", user_code=1, path_delays=(0, 4),
                              path_doas=(10.0, -30.0)),)
    sc = _wave_scenario(ints, 10)
    blocks = sm.synth_blocks(sc, include=("interference",))
    # separate the two rays through their steering vectors: (K, 2, N)
    rays = np.linalg.pinv(sm.steering_matrix(sm.realize_paths(sc), GEO8)) @ blocks
    s = rays.transpose(1, 0, 2).reshape(2, -1)
    assert np.abs(np.abs(s) - 1.0).max() < 1e-12
    assert np.abs(s[1, 4:] - s[0, :-4]).max() < 1e-12


def test_interferer_unit_power_all_kinds():
    kinds = [
        sm.InterfererSpec("bpsk_white"),
        sm.InterfererSpec("tone", normalized_offset=0.37),
        sm.InterfererSpec("periodical_noise"),
        sm.InterfererSpec("mai_multipath", user_code=2, path_delays=(3,),
                          path_doas=(20.0,)),
    ]
    for spec in kinds:
        s = _chips(_wave_scenario((spec,), 3226))
        p = np.mean(np.abs(s) ** 2)
        assert 0.98 <= p <= 1.02, (spec.kind, p)


def test_block_phase_is_exactly_one_on_the_grid():
    """Every on-grid offset k/31 has block phase exactly 1; off the grid the
    phase is e^{i 2 pi f N} to 1e-15. The reference reduces f N modulo 1 in
    exact rational arithmetic."""
    for k in range(-15, 16):
        tone = sm.InterfererSpec("tone", normalized_offset=k / 31.0)
        assert sm.realize_paths(_wave_scenario((tone,)))[0].block_phase == 1.0 + 0.0j, k
    for f in (0.05, -0.13, 0.37, 0.45, -0.4999, 1e-3, 1 / 62, 2 / 31 + 1e-9):
        tone = sm.InterfererSpec("tone", normalized_offset=f)
        rho = sm.realize_paths(_wave_scenario((tone,)))[0].block_phase
        ref = cmath.exp(2j * math.pi * float(Fraction(f * 31) % 1))
        assert abs(rho - ref) < 1e-15, (f, abs(rho - ref))


# ---------- block synthesis ----------

def _scenario(**over):
    base = dict(
        geometry=GEO8,
        soi=sm.SoiSpec(0, power=2.0),
        interferers=(),
        symbols=50,
        seed=3,
    )
    base.update(over)
    return sm.Scenario(**base)


def test_synth_blocks_soi_only_is_exact():
    sc = _scenario()
    blocks = sm.synth_blocks(sc, include=("soi",))
    assert blocks.shape == (50, 8, 31)
    bits = sm.soi_bits(sc)
    assert set(bits[[0, 7, 49]]) == {-1.0, 1.0}  # both signs are checked
    a0 = sm.steering(0.0, GEO8)
    for k in (0, 7, 49):
        expect = np.sqrt(2.0) * bits[k] * np.outer(a0, sm.gold31(0))
        assert np.abs(blocks[k] - expect).max() < 1e-12


def test_synth_blocks_noise_moments():
    sc = _scenario(symbols=500, soi=sm.SoiSpec(0, power=0.0))
    blocks = sm.synth_blocks(sc, include=("noise",))
    var = np.mean(np.abs(blocks) ** 2)
    assert abs(var - 1.0) / 1.0 < 0.02


def test_synth_blocks_deterministic():
    sc = _scenario(interferers=(sm.InterfererSpec("periodical_noise",
                                                  doa_deg=30.0, power=100.0),))
    b1 = sm.synth_blocks(sc)
    b2 = sm.synth_blocks(sc)
    assert np.array_equal(b1, b2)


def test_mc_stream_changes_noise_not_realization():
    ints = (sm.InterfererSpec("periodical_noise", doa_deg=30.0, power=100.0),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=50.0,
                              normalized_offset=2.0 / 31.0))
    sc_a = _scenario(interferers=ints, mc_stream=0)
    sc_b = _scenario(interferers=ints, mc_stream=1)
    pa = sm.realize_paths(sc_a)
    pb = sm.realize_paths(sc_b)
    # the drawn interference realization is a function of the seed alone
    for ra, rb in zip(pa, pb):
        if ra.waveform is not None:
            assert np.array_equal(ra.waveform, rb.waveform)
    na = sm.synth_blocks(sc_a, include=("noise",))
    nb = sm.synth_blocks(sc_b, include=("noise",))
    assert not np.array_equal(na, nb)


def test_component_split_sums_to_whole():
    """Separately synthesized components add up to the full blocks (same streams)."""
    sc = _scenario(symbols=40,
                   interferers=(sm.InterfererSpec("bpsk_white", doa_deg=30.0,
                                                  power=10.0),))
    whole = sm.synth_blocks(sc)
    soi = sm.synth_blocks(sc, include=("soi",))
    rest = sm.synth_blocks(sc, include=("interference", "noise"))
    assert np.abs(whole - (soi + rest)).max() < 1e-12


def test_iter_blocks_batch_starts():
    sc = _scenario(symbols=sm.BATCH + 904)
    blocks = list(sm.iter_blocks(sc, include=("soi",)))
    starts = [k0 for k0, _ in blocks]
    sizes = [x.shape[0] for _, x in blocks]
    assert starts == [0, sm.BATCH] and sizes == [sm.BATCH, 904]


@pytest.mark.parametrize("count", [sm.BATCH, 1697, 3, 1])
def test_white_bits_are_the_integers_stream(count):
    """The packed white chips read off the raw Philox words equal numpy's
    integers(0, 2**31) draw from the same stream, one draw per symbol, and
    chip n of a symbol is bit n of its draw. Odd counts leave the last half
    word unused. numpy is the reference, so a numpy that changes integers
    fails here."""
    sc = _scenario()
    packed = sm._white_bits(sm._philox(sc.seed, sm._TAG_WHITE, sc.mc_stream, 2, 5), count)
    rng = sm._stream(sc.seed, sm._TAG_WHITE, sc.mc_stream, 2, 5)
    ref = rng.integers(0, 2**31, size=count, dtype=np.uint32)
    assert np.array_equal(packed, ref)
    bits = (ref[:, None] >> np.arange(31, dtype=np.uint32)) & 1
    assert np.array_equal(sm._unpack_chips(packed, 31), 1 - 2 * bits.astype(np.int64))


def test_chip_tables_are_exact_byte_projections():
    """The four byte-table lookups of a packed symbol sum to its unpacked
    chips times basis*, for all 256 values in each byte position, and bit 31
    of a packed symbol reaches no chip."""
    basis = _complex_basis(42, m=3)
    tables = sm._chip_tables(basis.conj())
    values = np.arange(256, dtype=np.uint32)
    rest = np.uint32(0x5A3C96E1)  # the other bytes
    for j in range(4):
        byte = np.uint32(255 << 8 * j)
        packed = (rest & ~byte) | (values << np.uint32(8 * j))
        octets = sm._chip_bytes(packed)
        got = sum(tables[i][:, octets[:, i]] for i in range(4)).T
        ref = sm._unpack_chips(packed, 31) @ basis.conj()
        assert np.abs(got - ref).max() < 1e-13, j
    top = np.uint32(1 << 31)
    assert np.array_equal(tables[3, :, 128:], tables[3, :, :128])
    assert np.array_equal(sm._unpack_chips(values | top, 31), sm._unpack_chips(values, 31))


def test_soi_and_mai_bits_are_the_integers_stream():
    sc = _scenario(symbols=1697, interferers=(
        sm.InterfererSpec("mai_multipath", doa_deg=10.0, path_delays=(3,),
                          path_doas=(10.0,)),))
    soi = sm._stream(sc.seed, sm._TAG_SOI_BITS, sc.mc_stream, 0).integers(0, 2, size=1697)
    assert np.array_equal(sm.soi_bits(sc), 1 - 2 * soi)
    mai = sm._stream(sc.seed, sm._TAG_MAI_BITS, sc.mc_stream, 0).integers(0, 2, size=1698)
    assert np.array_equal(sm._mai_bit_streams(sc, sm.realize_paths(sc))[0], 1 - 2 * mai)


def _complex_basis(seed, m=2):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((31, m)) + 1j * rng.standard_normal((31, m))
    return basis / np.linalg.norm(basis, axis=0)


def test_projected_sum_signal_part_is_sum_of_outer_products():
    """Without noise the sum is the Gram of the stacked snapshot columns
    X(k) basis*, off-diagonal (j, j') blocks included.

    The reference projects the full blocks of synth_blocks, which shares
    the random streams but none of the projection code. K spans one full
    batch and a partial one; the complex basis pins the conjugation
    convention.
    """
    ints = (sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=10.0),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=20.0,
                              normalized_offset=3.0 / 31.0),
            sm.InterfererSpec("mai_multipath", doa_deg=10.0, power=3.0,
                              path_delays=(3, 5), path_doas=(10.0, -20.0)))
    sc = _scenario(symbols=sm.BATCH + 904, interferers=ints)
    basis = _complex_basis(38)
    include = ("soi", "interference")
    y = sm.synth_blocks(sc, include=include) @ basis.conj()
    stacked = y.transpose(0, 2, 1).reshape(y.shape[0], -1)  # column j, element l
    ref = stacked.T @ stacked.conj()
    got = sm.projected_sum(sc, basis, include=include)
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_projected_sum_shared_sources_match_full_blocks():
    """Every way projected_sum shares a temporal source between rows, against
    the projected full blocks.

    Two tones at one offset share a ramp, a tone at -0.13 cycles/chip has a
    block phase far from 1, the periodical noise rides the constant source,
    the rays of each of two MAI users share that user's b(k) and b(k-1), and
    each of two white paths has its own chip rows. K spans two full batches
    and a partial one.
    """
    ints = (sm.InterfererSpec("tone", doa_deg=-40.0, power=20.0, normalized_offset=0.05),
            sm.InterfererSpec("tone", doa_deg=25.0, power=5.0, normalized_offset=0.05),
            sm.InterfererSpec("tone", doa_deg=60.0, power=8.0, normalized_offset=-0.13),
            sm.InterfererSpec("periodical_noise", doa_deg=-15.0, power=12.0),
            sm.InterfererSpec("mai_multipath", doa_deg=10.0, power=3.0, user_code=1,
                              path_delays=(3, 5), path_doas=(10.0, -20.0)),
            sm.InterfererSpec("mai_multipath", doa_deg=-55.0, power=6.0, user_code=7,
                              path_delays=(0, 11), path_doas=(-55.0, 35.0),
                              path_gains=(1.0, 0.5)),
            sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=10.0),
            sm.InterfererSpec("bpsk_white", doa_deg=-70.0, power=4.0))
    sc = _scenario(symbols=2 * sm.BATCH + 17, interferers=ints)
    basis = _complex_basis(41, m=3)
    include = ("soi", "interference")
    y = sm.synth_blocks(sc, include=include) @ basis.conj()
    stacked = y.transpose(0, 2, 1).reshape(y.shape[0], -1)
    ref = stacked.T @ stacked.conj()
    got = sm.projected_sum(sc, basis, include=include)
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


_PN = sm.InterfererSpec("periodical_noise", doa_deg=-15.0, power=12.0)
_MAI_A = sm.InterfererSpec("mai_multipath", doa_deg=10.0, power=3.0, user_code=1,
                           path_delays=(0, 7), path_doas=(10.0, -20.0))
_MAI_B = sm.InterfererSpec("mai_multipath", doa_deg=-55.0, power=6.0, user_code=7,
                           path_delays=(11,), path_doas=(35.0,))
_ON_GRID = tuple(sm.InterfererSpec("tone", doa_deg=d, power=5.0, normalized_offset=f)
                 for d, f in ((30.0, 1.0 / 31.0), (-50.0, -3.0 / 31.0), (-20.0, 0.0)))

# (interferers, include) of every source set the count route serves
_COUNTED = {
    "soi+pn": ((_PN,), ("soi", "interference")),
    "soi+on-grid-tones": (_ON_GRID, ("soi", "interference")),
    "soi+mai": ((_MAI_A,), ("soi", "interference")),
    "two-mai": ((_MAI_A, _MAI_B), ("soi", "interference", "noise")),
    "interference-only": ((_PN, _MAI_B), ("interference",)),
    "soi-only": ((_PN, _MAI_A), ("soi",)),
}


def _spy(monkeypatch, name) -> list:
    """Record (args, result) of every call of sm.<name>."""
    calls, orig = [], getattr(sm, name)

    def spy(*args):
        result = orig(*args)
        calls.append((args, result))
        return result
    monkeypatch.setattr(sm, name, spy)
    return calls


@pytest.mark.parametrize("symbols", [1, 2, 17, sm.BATCH, 2 * sm.BATCH + 17])
@pytest.mark.parametrize("case", sorted(_COUNTED))
def test_count_route_is_the_integer_gram(case, symbols, monkeypatch):
    """On a source set of +-1 and constant sources, projected_sum counts Z
    instead of running the batch loop. Z equals, exactly, the Gram of the
    sources computed in integers from soi_bits and _mai_bit_streams, and
    its bytes equal those of the batch loop on the same sources."""
    interferers, include = _COUNTED[case]
    sc = _scenario(symbols=symbols, interferers=interferers)
    basis = _complex_basis(43)
    counted = _spy(monkeypatch, "_count_gram")
    looped = _spy(monkeypatch, "_batch_gram")
    sm.projected_sum(sc, basis, include=include)
    assert len(counted) == 1 and not looped
    (keys, negs, k_total), z_gram = counted[0]
    assert k_total == symbols

    soi_bits = sm.soi_bits(sc).astype(np.int64)
    mai = {i: b.astype(np.int64)
           for i, b in sm._mai_bit_streams(sc, sm.realize_paths(sc)).items()}
    rows = []
    for key in keys:
        if key[0] == "soi":
            rows.append(soi_bits)
        elif key[0] == "mai":  # entry 0 of the stream is b(-1)
            rows.append(mai[key[1]][1 - key[2]:symbols + 1 - key[2]])
        else:
            assert key[0] == "ramp" and key[1] == 1.0
            rows.append(np.ones(symbols, dtype=np.int64))
    rows = np.array(rows)
    ref = rows @ rows.T
    assert z_gram.dtype == np.complex128
    assert np.array_equal(z_gram.real, ref) and not np.any(z_gram.imag)
    [loop] = sm._batch_gram(sc, [sc.mc_stream], keys, [negs], basis.conj(),
                            functools.partial(sm._philox, sc.seed))
    assert np.array_equal(loop.view(np.uint64), z_gram.view(np.uint64))


def test_count_route_exactly_when_every_source_is_pm1_or_constant(monkeypatch):
    """The presets whose sources are all +-1 or constant (fig4b, fig4c,
    fig4d, fig6) never enter the batch loop; white chips (fig4a) and a ramp
    that is not constant do, and then nothing is counted."""
    from mpbsim import harness, mpb

    counted = _spy(monkeypatch, "_count_gram")
    looped = _spy(monkeypatch, "_batch_gram")
    for name, route in (("fig4a-bpsk3", looped), ("fig4b-pn2", counted),
                        ("fig4c-tones5", counted), ("fig4d-mai3", counted),
                        ("fig6-pn2", counted)):
        config = harness.preset(name)
        sc = harness.scenario_at(config, 10.0, stream=1)
        sc = sm.Scenario(sc.geometry, sc.soi, sc.interferers,
                         symbols=300, seed=sc.seed, mc_stream=1)
        counted.clear()
        looped.clear()
        mpb.accumulate_cov_pair(sc, harness.bases_for(config))
        assert len(route) == 1 and len(counted) + len(looped) == 1, name
    off_grid = sm.InterfererSpec("tone", doa_deg=60.0, power=8.0, normalized_offset=0.05)
    for ints in ((off_grid,), (_PN, off_grid, _MAI_A)):
        counted.clear()
        looped.clear()
        sm.projected_sum(_scenario(symbols=300, interferers=ints), _complex_basis(44))
        assert len(looped) == 1 and not counted, ints


def test_iter_projected_matches_projected_blocks():
    """projected_sum's batched projection equals the full blocks times basis*,
    batch by batch.

    Each batch's share is the sum over the scenario cut after that batch
    minus the sum over the scenario cut before it; the streams are keyed so
    that cutting K leaves the kept symbols unchanged. K spans one full batch
    and a partial one; the complex basis pins the conjugation convention.
    """
    ints = (sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=10.0),
            sm.InterfererSpec("tone", doa_deg=-40.0, power=20.0,
                              normalized_offset=3.0 / 31.0),
            sm.InterfererSpec("mai_multipath", doa_deg=10.0, power=3.0,
                              path_delays=(3, 5), path_doas=(10.0, -20.0)))
    sc = _scenario(symbols=sm.BATCH + 904, interferers=ints)
    basis = _complex_basis(36)
    include = ("soi", "interference")
    full = list(sm.iter_blocks(sc, include=include))
    assert [k0 for k0, _ in full] == [0, sm.BATCH]
    before = 0.0
    for k0, x in full:
        cut = _scenario(symbols=k0 + x.shape[0], interferers=ints)
        upto = sm.projected_sum(cut, basis, include=include)
        y = x @ basis.conj()
        stacked = y.transpose(0, 2, 1).reshape(y.shape[0], -1)
        ref = stacked.T @ stacked.conj()
        assert np.abs((upto - before) - ref).max() < 1e-12 * np.abs(ref).max()
        before = upto


@pytest.mark.parametrize("big_l, m", [(8, 2), (64, 3)])
def test_structured_operators_equal_their_dense_forms(big_l, m):
    """projected_sum applies sigma C = colour kron I_L and the block-sparse
    steering T by reshape and matmul, as _coloured and _steered. On a
    41-point grid they equal the dense products C W, T X and T G T^H to
    rounding: the BLAS kernels behind the two shapes may round differently."""
    rng = np.random.default_rng(big_l + m)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    paths, count = 5, 41
    steer = cn(big_l, paths)
    basis = _complex_basis(46, m)
    colour = np.linalg.cholesky(basis.conj().T @ basis)
    dense_c = np.kron(colour, np.eye(big_l))
    dense_t = np.zeros((big_l * m, paths * m), dtype=complex)
    for j, el, p in itertools.product(range(m), range(big_l), range(paths)):
        dense_t[j * big_l + el, p * m + j] = steer[el, p]
    w, x, g = cn(count, big_l * m, 7), cn(count, paths * m, 3), cn(count, paths * m, paths * m)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert close(sm._coloured(colour, w, big_l), dense_c @ w)
    assert close(sm._steered(steer, x, m), dense_t @ x)
    t_g_th = la._h(sm._steered(steer, la._h(sm._steered(steer, g, m)), m))
    assert close(t_g_th, dense_t @ g @ la._h(dense_t))


def test_empty_grid_is_rejected():
    """points, when given, stack the sums over at least one (soi_power,
    mc_stream); an empty grid is an error, not an empty stack."""
    sc = _scenario(interferers=(_PN, _MAI_A), symbols=300)
    grid = sm.projected_sum(sc, _complex_basis(45), points=[(2.0, 0), (9.0, 1)])
    assert grid.shape == (2, 16, 16)
    with pytest.raises(ValueError, match="at least one"):
        sm.projected_sum(sc, _complex_basis(45), points=[])


@pytest.mark.parametrize("power", [-1.0, math.nan])
def test_grid_point_power_obeys_the_soi_rule(power):
    """A point's SOI power is checked as SoiSpec checks its own, with the
    same message."""
    sc = _scenario(interferers=(_PN,), symbols=300)
    with pytest.raises(ValueError, match=r"^power must be >= 0 and finite, got") as spec:
        sm.SoiSpec(0, power=power)
    with pytest.raises(ValueError) as point:
        sm.projected_sum(sc, _complex_basis(45), points=[(2.0, 0), (power, 1)])
    assert str(point.value) == str(spec.value)


@pytest.mark.parametrize("stream", [-1, 2 ** 32, 1.0, "1"])
def test_grid_point_mc_stream_is_one_key_word(stream):
    """A point's mc_stream is one 32-bit word of its streams' keys: an int
    in [0, 2**32). Anything else is an error that names it, not a stream
    drawn from a truncated or wrapped key."""
    sc = _scenario(interferers=(_PN,), symbols=300)
    with pytest.raises(ValueError, match=r"^mc_stream must be an int in \[0, 2\*\*32\)"):
        sm.projected_sum(sc, _complex_basis(45), points=[(2.0, 0), (2.0, stream)])


# ---------- keyed streams ----------

_SEEDS = st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)
_WORD = st.integers(0, 2 ** 32 - 1)


_EDGE_TAILS = [(107, 0), (102, 3, 0), (104, 2 ** 32 - 1, 7, 0), (103, 0, 2 ** 32 - 1)]


@given(_SEEDS, st.lists(st.lists(_WORD, min_size=2, max_size=4).map(tuple),
                        min_size=1, max_size=12))
@example(0, _EDGE_TAILS)
@example(2 ** 32 - 1, _EDGE_TAILS)
@example(2 ** 32, _EDGE_TAILS)
@example(2 ** 64 - 1, _EDGE_TAILS)
def test_bulk_keys_are_the_seedsequence_keys(seed, tails):
    """The keys that _philox_keys hashes in one pass are those of numpy's
    Philox(SeedSequence([seed, *tail])), for entropies of 3 to 5 ints and
    one- and two-word seeds. A stream that _KeyedStreams serves gives that
    Philox's raw words, and its Generator draws: numpy is the reference."""
    keys = sm._philox_keys(seed, tails)
    streams = sm._KeyedStreams(seed, tails)
    shapes = np.array([0.5, 3.0, 4093.0])
    for tail, key in zip(tails, keys):
        ref = np.random.Philox(np.random.SeedSequence([seed, *tail]))
        assert np.array_equal(key, ref.state["state"]["key"]), tail
        assert np.array_equal(streams(*tail).random_raw(5), ref.random_raw(5)), tail
        rng = np.random.Generator(streams(*tail))
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *tail])))
        assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7)), tail
        assert np.array_equal(rng.standard_gamma(shapes), ref.standard_gamma(shapes)), tail


@given(_WORD, _WORD, _WORD, _WORD)
def test_seedsequence_pads_a_short_entropy_with_zeros(a, b, c, d):
    """numpy hashes an entropy of fewer than four words as if padded with
    zeros, so [a, b, c] and [a, b, c, 0] give one state; _philox_keys pads
    the same way. Past four words a zero counts: [a, b, c, d] and
    [a, b, c, d, 0] differ. So two streams whose entropies differ only by
    trailing zeros can share a key, which the grid test below rules out."""
    def state(entropy):
        return np.random.SeedSequence(entropy).generate_state(4)
    assert np.array_equal(state([a, b, c]), state([a, b, c, 0]))
    assert not np.array_equal(state([a, b, c, d]), state([a, b, c, d, 0]))
    short, padded = sm._philox_keys(a, [(b, c), (b, c, 0)])
    assert np.array_equal(short, padded)


# one path of every source family: a white path, an off-grid tone, on-grid
# tones (the constant source), periodical noise and two MAI users
_EVERY_FAMILY = (sm.InterfererSpec("bpsk_white", doa_deg=30.0, power=10.0),
                 sm.InterfererSpec("tone", doa_deg=60.0, power=8.0, normalized_offset=-0.13),
                 *_ON_GRID, _PN, _MAI_A, _MAI_B)


def _record_served(monkeypatch):
    """Make projected_sum record every stream its _KeyedStreams serves, as
    (tail, key), and the tails each one keyed."""
    served, keyed = [], []

    class Recording(sm._KeyedStreams):
        def __init__(self, seed, tails):
            super().__init__(seed, tails)
            keyed.append(set(self._keys))

        def __call__(self, *tail):
            served.append((tail, tuple(self._keys[tail])))
            return super().__call__(*tail)
    monkeypatch.setattr(sm, "_KeyedStreams", Recording)
    return served, keyed


@pytest.mark.parametrize("name", ["fig4a-bpsk3", "fig4b-pn2", "fig4c-tones5", "fig4d-mai3",
                                  "fig6-pn2", "every-family"])
def test_every_stream_of_a_grid_has_its_own_key(name, monkeypatch):
    """Each stream one projected_sum grid draws is served once, from a key
    no other stream of the grid has, and the grid keys exactly the streams
    it draws. This covers the five presets' sweeps and a scenario with
    every source family, at 3 points and a K of two full batches and a
    partial one, so the white streams of every batch are keyed too."""
    from dataclasses import replace

    from mpbsim import harness

    served, keyed = _record_served(monkeypatch)
    symbols = 2 * sm.BATCH + 17
    points = [(2.0, s) for s in range(3)]
    if name == "every-family":
        sc = _scenario(symbols=symbols, interferers=_EVERY_FAMILY)
        sm.projected_sum(sc, _complex_basis(47), points=points)
        users, whites = (6, 7), (0,)
        expected = {tail for s in range(3) for tail in (
            (sm._TAG_SOI_BITS, s, 0), (sm._TAG_NOISE_SUMS, s),
            *((sm._TAG_MAI_BITS, s, i) for i in users),
            *((sm._TAG_WHITE, s, i, b) for i in whites for b in range(3)))}
        assert {tail for tail, _ in served} == expected
    else:
        config = replace(harness.preset(name), symbols=symbols, snr_grid_db=(0.0, 10.0, 20.0))
        assert len(harness.run_sweep(config)) == 3
    tails = [tail for tail, _ in served]
    assert len(set(tails)) == len(tails)
    assert keyed == [set(tails)]
    assert len({key for _, key in served}) == len(served)


_ONE_PASS_CASES = {"counted": (_PN, *_ON_GRID, _MAI_A, _MAI_B), "batch": _EVERY_FAMILY}


@pytest.mark.parametrize("include", [c for r in (1, 2, 3) for c in
                                     itertools.combinations(("soi", "interference", "noise"), r)])
@pytest.mark.parametrize("case", sorted(_ONE_PASS_CASES))
def test_keyed_grid_equals_per_stream_philox(case, include, monkeypatch):
    """projected_sum, with every stream keyed in one pass and served from one
    reused Philox, equals bit for bit the same call with each stream seeded
    alone by _philox. The cases cover every source family on the counted
    and the batch route, under each include set, over a 3-point grid whose
    K spans two full batches and a partial one."""
    sc = _scenario(symbols=2 * sm.BATCH + 17, interferers=_ONE_PASS_CASES[case])
    basis = _complex_basis(48)
    points = [(2.0, 0), (0.5, 1), (8.0, 5)]
    keyed = sm.projected_sum(sc, basis, include=include, points=points)
    monkeypatch.setattr(sm, "_KeyedStreams",
                        lambda seed, tails: functools.partial(sm._philox, seed))
    alone = sm.projected_sum(sc, basis, include=include, points=points)
    assert keyed.tobytes() == alone.tobytes()


def _check_conditional_law(interferers, symbols, draws, basis):
    """Mean and entry variance of the noisy sums over independent streams.

    The signal rows of tones depend on the seed alone, so across mc_stream
    only the noise changes. Given the rows, y(k) = s(k) + n(k) with n(k) ~
    CN(0, C) and C = sigma^2 (B^H B) kron I_L, so the sum S is noncentral
    complex Wishart:
        E S = S0 + K C,
        Var S_ab = K C_aa C_bb + S0_aa C_bb + S0_bb C_aa,
    with S0 the noise-free sum. S0's diagonal enters only through the
    noise-signal cross sum, so a cross factor built from conj(G) instead of
    G (which differ when G has non-real entries) shows in the variance.
    """
    include = ("interference", "noise")
    sums = np.array([sm.projected_sum(_scenario(symbols=symbols, interferers=interferers,
                                                mc_stream=i), basis, include=include)
                     for i in range(draws)])
    s0 = sm.projected_sum(_scenario(symbols=symbols, interferers=interferers),
                          basis, include=("interference",))
    cov = np.kron(basis.conj().T @ basis, np.eye(8))
    c, d = np.diag(cov).real, np.diag(s0).real
    mean = s0 + symbols * cov
    var = symbols * np.outer(c, c) + np.outer(d, c) + np.outer(c, d)
    got_mean = sums.mean(axis=0)
    z = np.abs(got_mean - mean) / np.sqrt(var / draws)
    got_var = np.sum(np.abs(sums - got_mean) ** 2, axis=0) / (draws - 1)
    rel = np.abs(got_var / var - 1.0)
    assert z.max() < 5.0, z.max()
    assert rel.max() < 0.3, rel.max()
    return s0


def test_projected_sum_conditional_law():
    # two coherent tones: G couples them through non-real entries
    ints = tuple(sm.InterfererSpec("tone", doa_deg=doa, power=20.0,
                                   normalized_offset=2.0 / 31.0)
                 for doa in (30.0, -40.0))
    basis = _complex_basis(37)
    s0 = _check_conditional_law(ints, symbols=256, draws=400, basis=basis)
    # the cross sum, not the noise Gram, dominates the variance checked
    assert np.diag(s0).real.max() > 10.0 * 256


def test_projected_sum_law_below_wishart_dimension():
    """K - r < L M: the noise beyond the rows' span is a Gaussian Gram."""
    ints = tuple(sm.InterfererSpec("tone", doa_deg=doa, power=0.5,
                                   normalized_offset=2.0 / 31.0)
                 for doa in (30.0, -40.0))
    # r = P M = 4 rows, K - r = 6 < L M = 16
    _check_conditional_law(ints, symbols=10, draws=400, basis=_complex_basis(39))


def test_projected_sum_noise_only_bartlett_law():
    """No signal rows (r = 0) and K just above L M: the Bartlett factor alone."""
    _check_conditional_law((), symbols=17, draws=1000, basis=_complex_basis(40))
