"""Experiment orchestration: configs, presets, sweeps, patterns, eigencurves.

File-facing conventions are fixed here: angles in degrees, powers in dB,
CSV numbers with 9 significant digits, infinities spelled ``inf``. Configs
keep dB, so they round-trip through JSON exactly. dB become linear units in
``_linear`` only and go back in ``_db`` only, and a linear SNR becomes the
SOI power P0 = SNR / N in ``mpb._soi_power`` only: a sweep point's
:class:`sigmodel.Scenario` (``scenario_at``) and the model moved to its SNR
(``AnalyticModel.at_snr``) both take P0 from there.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import linalg as la
from . import mpb
from . import sigmodel as sm
from . import theory

PATTERN_STEP_DEG = 0.5

SWEEP_HEADER = ("snr_db,g_sim_db,g_theory_db,gamma0,gamma1,"
                "lambda_max_exact,lambda_max_pred,region")
PATTERN_HEADER = "scheme,theta_deg,gain_db"
EIGEN_HEADER = "snr_db,gamma0_plus1,gamma1_plus1,lambda_max_exact"

DEFAULT_SNR_GRID_DB = tuple(-30.0 + 2.0 * i for i in range(41))


class ConfigError(ValueError):
    """Configuration file or field rejected; maps to CLI exit code 1."""


def _linear(db: float) -> float:
    """10^(db / 10), inf where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _db(x: float) -> float:
    """10 log10(x), -inf for x <= 0."""
    if x <= 0.0:
        return -math.inf
    return 10.0 * math.log10(x)


# -----------------------
# Config model
# -----------------------

_SCHEME_FIELDS = {"PAPC": "position", "Maximin": "monitor_freq", "Custom": "basis_file"}


@dataclass(frozen=True)
class SchemeConfig:
    """Projection-basis choice: PAPC{position}, Maximin{monitor_freq} or
    Custom{basis_file} (an .npz with arrays h_s and h_i)."""
    name: str
    position: int = 0
    monitor_freq: float = mpb.DEFAULT_MAXIMIN_FREQ
    basis_file: str | None = None

    def __post_init__(self):
        if self.name not in ("PAPC", "Maximin", "Custom"):
            raise ConfigError(f"scheme.name must be PAPC, Maximin or Custom, "
                              f"got {self.name!r}")
        if self.name == "Custom" and not self.basis_file:
            raise ConfigError("scheme.basis_file is required for Custom")


@dataclass(frozen=True)
class InterfererConfig:
    """One interferer in file units; power is inr_db + rel_power_db.

    sigmodel.InterfererSpec owns the kinds and the fields each reads: it
    checks kind and every other field (ExperimentConfig's _specs)."""
    kind: str
    doa_deg: float = 0.0
    rel_power_db: float = 0.0
    normalized_offset: float = 0.0
    user_code: int = 1
    path_delays: tuple[int, ...] = ()
    path_doas: tuple[float, ...] = ()
    path_gains: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "path_delays", tuple(self.path_delays))
        object.__setattr__(self, "path_doas", tuple(self.path_doas))
        if self.path_gains is not None:
            object.__setattr__(self, "path_gains", tuple(self.path_gains))


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment in file units (degrees, dB).

    SNR and INR are relative to the noise power, the unit of every linear
    power. processing_gain is a file key accepted only as N =
    sm.GOLD_LENGTH, which is what every formula reads; nothing reads the
    field.

    The config checks only what no spec sees: the SNR grid, inr_db, seed,
    symbols, processing_gain, and whether a bad interferer power is named
    inr_db or rel_power_db (in _specs). Every other field is checked by
    building the sigmodel spec that owns it (_specs), and the scheme's
    fields where its bases are built (_bases_named).
    """
    scheme: SchemeConfig
    interferers: tuple[InterfererConfig, ...] = ()
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    inr_db: float = 30.0
    symbols: int = 100_000
    seed: int = 1
    element_count: int = 8
    element_spacing: float = 0.5
    processing_gain: int = 31
    gold_index: int = 0
    soi_doa_deg: float = 0.0
    out_dir: str = "."

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        object.__setattr__(self, "snr_grid_db",
                           tuple(float(s) for s in self.snr_grid_db))
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be non-empty")
        if not all(math.isfinite(s) for s in self.snr_grid_db):
            raise ConfigError(f"snr_grid_db must be finite, got {self.snr_grid_db}")
        if not math.isfinite(self.inr_db):
            raise ConfigError(f"inr_db must be finite, got {self.inr_db}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if any(b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ConfigError("snr_grid_db must be strictly ascending")
        if self.symbols < 100:
            raise ConfigError(f"symbols must be >= 100, got {self.symbols}")
        if self.processing_gain != sm.GOLD_LENGTH:
            raise ConfigError(f"processing_gain must be {sm.GOLD_LENGTH} (the Gold "
                              f"code length), got {self.processing_gain!r}")
        for s in self.snr_grid_db:
            if not 0.0 < mpb._soi_power(_linear(s)) < math.inf:
                raise ConfigError(f"snr_grid_db must give a finite, positive "
                                  f"linear power, got {s} dB")
        _specs(self, 1.0)  # the SOI power of a grid point obeys the SNR rule above


def _named(where: str, renames: dict, spec, **fields):
    """spec(**fields), its ValueError raised as a ConfigError that names the
    config field: where (the config object's path) and the field renamed."""
    try:
        return spec(**fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{where}{renames.get(name, name)} {rest}") from exc


def _specs(config: ExperimentConfig, soi_power: float) -> tuple:
    """(geometry, SOI, interferers): the config's sigmodel specs, with the
    SOI at soi_power. Each spec checks its own fields when built."""
    geometry = _named("", {"spacing": "element_spacing"}, sm.ArrayGeometry,
                      element_count=config.element_count, spacing=config.element_spacing)
    soi = _named("", {"doa_deg": "soi_doa_deg"}, sm.SoiSpec, gold_index=config.gold_index,
                 doa_deg=config.soi_doa_deg, power=soi_power)
    ints = []
    for i, ic in enumerate(config.interferers):
        power = _linear(config.inr_db + ic.rel_power_db)
        if not 0.0 < power < math.inf:
            field = ("inr_db" if not 0.0 < _linear(config.inr_db) < math.inf
                     else f"interferers[{i}].rel_power_db")
            raise ConfigError(f"{field} must give a finite, positive linear power, got "
                              f"inr_db + interferers[{i}].rel_power_db = "
                              f"{config.inr_db} + {ic.rel_power_db} dB")
        ints.append(_named(f"interferers[{i}].", {}, sm.InterfererSpec, kind=ic.kind,
                           doa_deg=ic.doa_deg, power=power, user_code=ic.user_code,
                           normalized_offset=ic.normalized_offset, path_delays=ic.path_delays,
                           path_doas=ic.path_doas, path_gains=ic.path_gains))
    return geometry, soi, tuple(ints)


def _field_types(cls) -> dict:
    return {f.name: f.type for f in fields(cls)}


# field name -> annotation: the config file's keys and their JSON types
_SCHEME_KEYS = _field_types(SchemeConfig)
_INTERFERER_KEYS = _field_types(InterfererConfig)
_TOP_KEYS = _field_types(ExperimentConfig)


def _is(types):
    # JSON true and false are Python bools, which are ints
    return lambda v: isinstance(v, types) and not isinstance(v, bool)


_JSON_TYPES = {"int": (_is(int), "an integer", "integers"),
               "float": (_is((int, float)), "a number", "numbers"),
               "str": (_is(str), "a string", "strings")}


def _check_fields(d, allowed: dict, where: str) -> None:
    """Reject a non-object, an unknown key or a value of the wrong JSON type,
    naming the field. Values typed by a config class are the caller's."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(d) - allowed.keys())
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    for key, value in d.items():
        ann = allowed[key].removesuffix(" | None")
        if value is None and ann != allowed[key]:
            continue
        item = ann[len("tuple["):-len(", ...]")] if ann.startswith("tuple[") else None
        is_kind, one, many = _JSON_TYPES.get(item or ann, (lambda v: True, "", ""))
        if item is None:
            ok, want = is_kind(value), one
        else:
            ok = isinstance(value, (list, tuple)) and all(map(is_kind, value))
            want = f"a list of {many}" if many else "a list"
        if not ok:
            name = key if where == "config" else f"{where}.{key}"
            raise ConfigError(f"{name} must be {want}, got {value!r}")


def config_from_dict(d: dict) -> ExperimentConfig:
    _check_fields(d, _TOP_KEYS, "config")
    kw = dict(d)
    scheme_d = kw.pop("scheme", {"name": "Maximin"})
    if isinstance(scheme_d, str):
        scheme_d = {"name": scheme_d}
    _check_fields(scheme_d, _SCHEME_KEYS, "scheme")
    ints = kw.pop("interferers", [])
    for i, it in enumerate(ints):
        _check_fields(it, _INTERFERER_KEYS, f"interferers[{i}]")
    try:
        return ExperimentConfig(scheme=SchemeConfig(**scheme_d),
                                interferers=tuple(InterfererConfig(**it) for it in ints),
                                **kw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every field of the config as JSON values: the dict json.load reads
    from the file save_config writes, so tuples become lists.

    config_from_dict reads it back to an equal config, and it takes a dict
    or file that omits any field with a default.
    """
    return json.loads(json.dumps(asdict(config)))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


# -----------------------
# Presets
# -----------------------

def _preset_fig4a() -> ExperimentConfig:
    ints = tuple(InterfererConfig("bpsk_white", doa_deg=d)
                 for d in (30.0, -40.0, 50.0))
    return ExperimentConfig(scheme=SchemeConfig("Maximin"), interferers=ints)


def _preset_pn2() -> ExperimentConfig:
    ints = tuple(InterfererConfig("periodical_noise", doa_deg=d)
                 for d in (30.0, -40.0))
    return ExperimentConfig(scheme=SchemeConfig("Maximin"), interferers=ints)


def _preset_fig6() -> ExperimentConfig:
    # pattern depths are realization-dependent; this seed fixes a noise
    # segment whose above-threshold interferer nulls clear 30 dB
    return replace(_preset_pn2(), seed=81)


def _preset_fig4c() -> ExperimentConfig:
    # tone offsets 100, -300, 0, 400, -100 kHz at a 3.1 MHz chip rate
    offsets = (1.0 / 31.0, -3.0 / 31.0, 0.0, 4.0 / 31.0, -1.0 / 31.0)
    doas = (30.0, -50.0, -20.0, 19.0, 45.0)
    ints = tuple(InterfererConfig("tone", doa_deg=d, normalized_offset=f)
                 for d, f in zip(doas, offsets))
    return ExperimentConfig(scheme=SchemeConfig("Maximin"), interferers=ints)


def _preset_fig4d() -> ExperimentConfig:
    ints = (InterfererConfig("mai_multipath", doa_deg=30.0, user_code=1,
                             path_delays=(3, 5, 4),
                             path_doas=(30.0, -20.0, -50.0)),)
    return ExperimentConfig(scheme=SchemeConfig("Maximin"), interferers=ints)


PRESETS = {
    "fig4a-bpsk3": _preset_fig4a,
    "fig4b-pn2": _preset_pn2,
    "fig4c-tones5": _preset_fig4c,
    "fig4d-mai3": _preset_fig4d,
    "fig6-pn2": _preset_fig6,
}


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{', '.join(sorted(PRESETS))}") from None


def preset_names() -> list:
    return sorted(PRESETS)


# -----------------------
# Config -> model objects
# -----------------------

def scenario_at(config: ExperimentConfig, snr_db: float,
                stream: int = 0) -> sm.Scenario:
    """Linear-unit Scenario for one sweep point; stream keys the per-point RNG."""
    p0 = mpb._soi_power(_linear(snr_db))
    return sm.Scenario(*_specs(config, p0), config.symbols, config.seed, stream)


def _bases_named(config: ExperimentConfig, name: str) -> mpb.ProjectionBases:
    """The bases of scheme name, from the config's fields if it is the config's
    scheme and else the defaults; a failure is a ConfigError naming the field.
    A Custom file must hold the bases of the config's code (mpb.check_built_for)."""
    scheme = config.scheme if config.scheme.name == name else SchemeConfig(name)
    code = sm.gold31(config.gold_index)
    try:
        if name == "PAPC":
            return mpb.papc_bases(code, scheme.position)
        if name == "Maximin":
            return mpb.maximin_bases(code, scheme.monitor_freq)
        try:
            data = np.load(scheme.basis_file, allow_pickle=False)
        except ValueError as exc:
            # numpy takes a file in neither of its formats for a pickle, and
            # its message advises loading it unsafely; bases hold no objects
            raise OSError("not a numpy .npz file") from exc
        if isinstance(data, np.ndarray):
            raise OSError("an .npy file holds one array, not the .npz arrays h_s and h_i")
        with data:
            h_s, h_i = data["h_s"], data["h_i"]
        bases = mpb.ProjectionBases(np.asarray(h_s, dtype=np.complex128),
                                    np.asarray(h_i, dtype=np.complex128), "Custom")
        mpb.check_built_for(bases, code)
        return bases
    except (OSError, KeyError) as exc:
        raise ConfigError(f"cannot read custom basis file "
                          f"{scheme.basis_file!r}: {exc}") from exc
    except ValueError as exc:
        field, text = _SCHEME_FIELDS[name], str(exc)
        raise ConfigError(f"scheme.{text}" if text.startswith(field + " ") else
                          f"scheme.{field} must give valid bases: {text}") from exc


def bases_for(config: ExperimentConfig) -> mpb.ProjectionBases:
    return _bases_named(config, config.scheme.name)


# -----------------------
# Sweep
# -----------------------

@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    g_sim_db: float
    g_theory_db: float
    gamma0: float
    gamma1: float
    lambda_max_exact: float
    lambda_max_pred: float
    region: str
    error: str | None = None  # "Type: message" of a failed point; not in the CSV


def _fmt(x) -> str:
    return x if isinstance(x, str) else f"{float(x):.9g}"


def _create(path, newline=None):
    """path opened for writing, its directory made first if missing; an
    out_dir that cannot hold it is a ConfigError."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"out_dir must be a writable directory, "
                          f"cannot write {str(path)!r}: {exc}") from exc


def _write_lines(path, header: str, lines) -> None:
    with _create(path, newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_sweep_csv(rows, path) -> None:
    _write_lines(path, SWEEP_HEADER,
                 (",".join(_fmt(v) for v in (r.snr_db, r.g_sim_db,
                                             r.g_theory_db, r.gamma0, r.gamma1,
                                             r.lambda_max_exact,
                                             r.lambda_max_pred, r.region))
                  for r in rows))


_NUMERIC_ERRORS = (la.LinAlgError, ValueError, ArithmeticError)
_PROBE = "0 dB probe"


def _stage(name: str, solve, *args):
    """solve(*args), an error raised again as its type, prefixed by name."""
    try:
        return solve(*args)
    except _NUMERIC_ERRORS as exc:
        raise type(exc)(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class _Probe:
    """A config's 0 dB probe: its scenario, bases, analytic model and gamma_1.

    gamma_1, G_U and the thresholds do not depend on the SOI power, so one
    probe serves every SNR of a sweep, the eigencurves and the report. It
    keeps the L^3 work (the model's Q pair, gamma_1); whatever uses the
    scenario draws the interferer paths from its seed (sm.realize_paths).
    Its solves, and the thresholds where called, fail as the _stage _PROBE.
    """
    scenario: sm.Scenario
    bases: mpb.ProjectionBases
    model: mpb.AnalyticModel
    gamma1: float

    def thresholds(self) -> theory.Thresholds:
        """Thresholds from G_U, with G_L filled in whenever SNR_T0 > 0
        (gamma_1 > 0), where the curve has a failure branch."""
        m = self.model
        th = theory.thresholds(self.gamma1, m.beta, sm.GOLD_LENGTH, m.a0.shape[0],
                               theory.g_upper(m.q_s, m.q_i, m.a0, qs_quad=m.qs_quad))
        if th.snr_t0 > 0.0:
            th = replace(th, g_l=theory.g_lower_oracle(m))
        return th


def _probe(config: ExperimentConfig) -> _Probe:
    scenario = scenario_at(config, 0.0, stream=0)
    bases = bases_for(config)
    model = _stage(_PROBE, mpb.analytic_cov, scenario, bases)
    return _Probe(scenario, bases, model, _stage(_PROBE, theory.gamma1, model))


def _by_point(solve, count: int) -> list:
    """solve(points), points a slice of a grid of count points, per point.

    The grid is solved as one stack. If that raises, each point is solved
    from its one-point slice, which equals its point alone bit for bit, and
    a failed point holds the exception it raises alone in place of a value.
    """
    try:
        return list(solve(slice(None)))
    except _NUMERIC_ERRORS:
        solved = []
        for i in range(count):
            try:
                solved.extend(solve(slice(i, i + 1)))
            except _NUMERIC_ERRORS as exc:
                solved.append(exc)
        return solved


def _solve_points(pair, model: mpb.AnalyticModel, grid: np.ndarray) -> list:
    """(g_sim_db, lambda_max_exact, lambda_max_pred) per point of a grid of
    linear SNRs, each the value its stage gives there or the exception the
    stage raises at that point alone.

    pair is the points' stacked sample pairs (R_S, R_I), or the exception
    their synthesis raised, which every g_sim_db then holds. Each stage
    moves the probe's model to the SNRs of the slice it solves. The
    weights and their G, the exact pencil and the mismatch spectrum are
    each one stacked solve through its own _by_point, so a point that one
    stage fails keeps the values of the others. A stage's error is
    prefixed by its _stage: "sample pencil", "exact pencil" or "mismatch
    spectrum". The sample pencil first checks its sample matrices and
    names one that is not finite.
    """
    def sample(s):
        one = mpb.CovariancePair(pair.r_s[s], pair.r_i[s])
        la._check_finite(one.r_s, "sample R_S")
        la._check_finite(one.r_i, "sample R_I")
        at = model.at_snr(grid[s])
        return [_db(g) for g in _stage("sample pencil", lambda: mpb.analytic_g(
            mpb.solve_weights(one, at.a0).w, at))]

    def exact(s):
        return [float(lm) for lm in _stage("exact pencil", theory.exact_lambda_max,
                                           model.at_snr(grid[s]))]

    def predicted(s):
        return [float(sp.lambda_max_pred) for sp in _stage(
            "mismatch spectrum", theory.mismatch_spectrum, model.at_snr(grid[s]))]

    count = len(grid)
    g_sim = [pair] * count if isinstance(pair, Exception) else _by_point(sample, count)
    return list(zip(g_sim, _by_point(exact, count), _by_point(predicted, count)))


def run_sweep(config: ExperimentConfig, workers: int = 1,
              out_path=None) -> list:
    """Simulated-vs-theory sweep over the config's SNR grid.

    Deterministic for a fixed (config, seed): every point derives its own
    RNG streams from (seed, point index), in the calling process. One
    mpb.accumulate_cov_pair call synthesizes every point's sample pair, and
    _solve_points solves each of its stages through _by_point: as one
    stack, and if that raises, point by point, so a point keeps the error
    its stage raises alone and every other value. If synthesis raises,
    every point's g_sim_db carries its error. A point with an error gets
    region "Error", keeps the first one on the row (in the order of the
    columns), shows nan in the failed columns, and the sweep continues.
    workers (at least 1) bounds the processes a sweep may use; one always
    meets it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    probe = _probe(config)
    grid_lin = [_linear(s) for s in config.snr_grid_db]
    curve = theory.operating_curve(probe.model, _stage(_PROBE, probe.thresholds), grid_lin)
    grid = np.array(grid_lin)
    points = list(zip(probe.model.at_snr(grid).soi_power.tolist(), range(len(grid))))
    try:
        pair = mpb.accumulate_cov_pair(probe.scenario, probe.bases, points=points)
    except _NUMERIC_ERRORS as exc:
        pair = exc

    rows = []
    for snr_db, values, (snr_lin, g_theory, region) in zip(
            config.snr_grid_db, _solve_points(pair, probe.model, grid), curve):
        failed = [v for v in values if isinstance(v, Exception)]
        err = f"{type(failed[0]).__name__}: {failed[0]}" if failed else None
        g_sim_db, lam_exact, lam_pred = (math.nan if isinstance(v, Exception) else v
                                         for v in values)
        g0 = theory.gamma0(snr_lin, config.element_count, probe.model.beta)
        rows.append(SweepRow(
            snr_db=snr_db,
            g_sim_db=g_sim_db,
            g_theory_db=_db(g_theory),
            gamma0=g0, gamma1=probe.gamma1,
            lambda_max_exact=lam_exact, lambda_max_pred=lam_pred,
            region="Error" if err else region, error=err))
    if out_path is not None:
        write_sweep_csv(rows, out_path)
    return rows


# -----------------------
# Array patterns
# -----------------------

def run_pattern(config: ExperimentConfig, snr_db: float, out_path=None) -> list:
    """(scheme, theta_deg, gain_db) rows for PAPC and Maximin at one SNR.

    Weights come from the analytic covariance pair at the stated SNR/INR so
    patterns are deterministic; both standard schemes are always emitted
    (plus Custom when configured) because pattern comparisons need the pair.
    A scheme whose covariance or weights cannot be solved fails with its
    error prefixed by the scheme's name (_stage).
    """
    thetas = [-90.0 + PATTERN_STEP_DEG * i
              for i in range(int(round(180.0 / PATTERN_STEP_DEG)) + 1)]
    names = ["PAPC", "Maximin"]
    if config.scheme.name == "Custom":
        names.append("Custom")
    sc = scenario_at(config, snr_db, stream=0)
    rows = []
    for name in names:
        model = _stage(name, mpb.analytic_cov, sc, _bases_named(config, name))
        bw = _stage(name, mpb.solve_weights, model.cov_pair(), model.a0)
        for theta, gain in mpb.array_pattern(bw.w, sc.geometry, thetas):
            rows.append((name, theta, gain))
    if out_path is not None:
        _write_lines(out_path, PATTERN_HEADER,
                     (",".join((name, _fmt(t), _fmt(g)))
                      for name, t, g in rows))
    return rows


# -----------------------
# Eigenvalue curves
# -----------------------

@dataclass(frozen=True)
class EigencurveResult:
    rows: list  # (snr_db, gamma0_plus1, gamma1_plus1, lambda_max_exact)
    empirical_snr_t0_db: float  # nan when the curves never cross


def run_eigencurves(config: ExperimentConfig, out_path=None) -> EigencurveResult:
    """gamma_0+1 / gamma_1+1 / exact lambda_max over the SNR grid.

    lambda_max is one stacked solve over the grid (theory.exact_lambda_max
    on the grid model), the same solve run_sweep makes for its column. If
    it fails, the first point that fails alone raises its error, prefixed
    by its SNR ("140 dB: ..."), for a grid of any length.
    The crossing abscissa of the two gamma curves is the empirical
    threshold SNR_T0 (log-interpolated between grid points).
    """
    probe = _probe(config)
    grid = np.array([_linear(s) for s in config.snr_grid_db])
    lams = _by_point(lambda s: theory.exact_lambda_max(probe.model.at_snr(grid[s])),
                     len(grid))
    rows = []
    for snr_db, snr, lam in zip(config.snr_grid_db, grid.tolist(), lams):
        if isinstance(lam, Exception):
            raise type(lam)(f"{snr_db:g} dB: {lam}") from lam
        g0 = theory.gamma0(snr, config.element_count, probe.model.beta)
        rows.append((snr_db, g0 + 1.0, probe.gamma1 + 1.0, float(lam)))

    cross = math.nan
    for (s_a, g0a, g1a, _), (s_b, g0b, g1b, _) in zip(rows, rows[1:]):
        da, db = g0a - g1a, g0b - g1b
        if da == 0.0:
            cross = s_a
            break
        if da < 0.0 <= db:
            frac = math.log10(g1a / g0a) / math.log10(g0b / g0a) \
                if g0b != g0a else 0.0
            cross = s_a + frac * (s_b - s_a)
            break
    if out_path is not None:
        _write_lines(out_path, EIGEN_HEADER,
                     (",".join(_fmt(v) for v in row) for row in rows))
    return EigencurveResult(rows, cross)


# -----------------------
# Analysis report
# -----------------------

_GAMMA1_INR_TABLE_DB = (10.0, 20.0, 30.0, 40.0)


def _json_safe(x):
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def analyze(config: ExperimentConfig) -> dict:
    """Threshold record, boundedness flags and the gamma_1-vs-INR table.

    One analytic model, the probe's, serves the whole report: the table
    moves it to each INR (the relative interferer powers are kept), and
    the null-space route reads its Phi matrices. The geometric route reads
    the waveforms instead, so the two flags stay independent checks.
    """
    probe = _probe(config)
    th = _stage(_PROBE, probe.thresholds)
    model = probe.model
    nf = theory.noise_free_pair(model)

    table = []
    logs = []
    for inr_db in _GAMMA1_INR_TABLE_DB:
        inr = model.inr * _linear(inr_db) / _linear(config.inr_db)
        # the probe's own INR (bit for bit) has the probe's gamma_1
        g1_i = probe.gamma1 if inr == model.inr else theory.gamma1(model.at_inr(inr))
        # the Crawford-number bound at the row's INR (the strongest path's, as
        # in noise_free_pair) presumes an infinite noise-free eigenvalue
        lb = theory.gamma1_lower_bound(nf.c_y0, inr) if nf.has_infinite else None
        table.append({"inr_db": inr_db, "gamma1_plus1": g1_i + 1.0,
                      "gamma1_lower_bound_plus1":
                          None if lb is None else lb + 1.0})
        if g1_i > 0.0:
            logs.append((inr_db / 10.0, math.log10(g1_i + 1.0)))

    slope = None
    if len(logs) >= 2:
        xs = np.array([p[0] for p in logs])
        ys = np.array([p[1] for p in logs])
        slope = float(((xs - xs.mean()) @ (ys - ys.mean()))
                      / ((xs - xs.mean()) @ (xs - xs.mean())))

    return {
        "scheme": config.scheme.name,
        "inr_db": config.inr_db,
        "beta": model.beta,
        "gamma1": probe.gamma1,
        "thresholds": {
            "snr_t0": th.snr_t0, "snr_t0_db": _db(th.snr_t0),
            "snr_t1": th.snr_t1, "snr_t1_db": _db(th.snr_t1),
            "snr_t2": th.snr_t2, "snr_t2_db": _db(th.snr_t2),
            "k0": th.k0, "p_i": th.p_i, "g_u": th.g_u, "g_l": th.g_l,
        },
        "c_y0": nf.c_y0,
        "has_infinite": nf.has_infinite,
        "infinite_count": nf.infinite_count,
        "geometric_bounded": theory.geometric_bounded(probe.scenario, probe.bases),
        "gamma1_vs_inr": table,
        "gamma1_inr_loglog_slope": slope,
    }


def write_analysis(report: dict, path) -> None:
    with _create(path) as fh:
        json.dump(_json_safe(report), fh, indent=2)
        fh.write("\n")
