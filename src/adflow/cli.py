"""Experiment harness: dataset generation, training, ablation grid, NFE sweep.

Commands:
    adflow gen-data | train-vel | train-mr | ablate | nfe-sweep | extract
        --config <path> [--out <dir>] [--seed N] [--set key=value ...]

Run configs are flat key=value text files; unknown keys are rejected and the
effective config is echoed into the output directory. Every command is a pure
function of (config, seed, inputs): re-runs emit byte-identical CSVs.

Exit codes: 0 success, 2 config error, 3 numeric divergence, 4 I/O error,
1 any other adflow error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import flowpath, metrics, mrnet, sampler, velnet
from .errors import (AdflowError, ConfigError, DivergenceError,
                     FileFormatError, ParameterError)
from .signal import (DEFAULT_HOP, DEFAULT_N_FFT, DatasetConfig,
                     StoredDataset, _stft_frames, make_dataset, read_wav,
                     spectral_record, write_lines, write_tensor, write_wav)

NFE_SWEEP_VALUES = (1, 2, 5, 10, 20)

# Largest dataset a config may ask for, in items x samples per waveform:
# 2^27 is 16,777 items of 0.5 s at 16 kHz, whose s1, e and b make a 3 GiB
# store file of float64. It bounds the disk, not memory: commands read the
# store one item or one batch at a time.
MAX_DATASET_SAMPLES = 2 ** 27


# The configs of the stages a run config feeds; each declares and checks
# its own keys.
_PARTS = (DatasetConfig, flowpath.PathParams, sampler.NfePolicy,
          velnet.TrainConfig)


def _keys(cls) -> list:
    return [(f.name, f.type, f.default) for f in dataclasses.fields(cls)]


# A run config holds every part's keys and the keys only the CLI owns, in
# effective_config.txt's order: the seed (TrainConfig's last key) first.
_data, _path, _nfe, (*_train, _seed) = map(_keys, _PARTS)
RunConfig = dataclasses.make_dataclass("RunConfig", [
    _seed, ("n_train", "int", 500), ("n_eval", "int", 50), *_data,
    ("n_fft", "int", DEFAULT_N_FFT), ("hop", "int", DEFAULT_HOP), *_path,
    *_nfe, *_train, ("output_dir", "str", "runs/adflow")],
    namespace={"__module__": __name__})


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            out = int(value)
        elif kind == "float":
            out = float(value)
        else:
            return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if kind == "float" and not math.isfinite(out):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return out


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value)
    return out


def load_config(path=None, overrides=None) -> RunConfig:
    """The config in `path` (defaults if None), with `overrides` applied.

    The config is checked as a whole, for every command, so a value that any
    command would reject raises ConfigError here, before anything is written
    or allocated.
    """
    values = {}
    if path is not None:
        try:
            values.update(parse_config_text(Path(path).read_text("utf-8")))
        except OSError as exc:
            raise ConfigError(f"config file {path} cannot be read: "
                              f"{exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: "
                              f"{exc}") from exc
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, str(value))
    cfg = RunConfig(**values)
    try:
        cfg.output_dir.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ConfigError(f"output_dir {cfg.output_dir!r} is not "
                          "UTF-8") from exc
    if "\0" in cfg.output_dir:
        raise ConfigError(f"output_dir {cfg.output_dir!r} holds a NUL")
    try:  # effective_config.txt must reproduce the run
        read_back = parse_config_text(f"output_dir={cfg.output_dir}")
    except ConfigError:
        read_back = None
    if read_back != {"output_dir": cfg.output_dir}:
        raise ConfigError(f"output_dir {cfg.output_dir!r} would not read "
                          "back from effective_config.txt as it is")
    try:
        # each part checks its own fields, and _stft_frames the framing
        data, *_ = [_part(cls, cfg) for cls in _PARTS]
        n_samples = data.n_samples
        _stft_frames(n_samples, cfg.n_fft, cfg.hop)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    for key in ("n_train", "n_eval"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be positive, got "
                              f"{getattr(cfg, key)}")
        if getattr(cfg, key) * n_samples > MAX_DATASET_SAMPLES:
            raise ConfigError(f"{key}={getattr(cfg, key)} items of "
                              f"{n_samples} samples are above "
                              f"{MAX_DATASET_SAMPLES} samples")
    return cfg


def _part(cls, cfg: RunConfig):
    """The `cls` config (one of `_PARTS`) built from the RunConfig fields
    of the same names."""
    return cls(**{f.name: getattr(cfg, f.name)
                  for f in dataclasses.fields(cls)})


# Each set is stored in the output directory, so the commands that share
# one directory synthesize it once, and is read from there item by item
# (see `make_dataset`).

def _train_dataset(cfg: RunConfig, out: Path) -> StoredDataset:
    return make_dataset(cfg.n_train, "uniform", _part(DatasetConfig, cfg),
                        cfg.seed, store=out / "train_set.adfd")


def _eval_dataset(cfg: RunConfig, out: Path) -> StoredDataset:
    # eval seed offset keeps the two sets disjoint under one config seed
    return make_dataset(cfg.n_eval, "uniform", _part(DatasetConfig, cfg),
                        cfg.seed + 1, store=out / "eval_set.adfd")


def _prepare_out(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_lines(out / "effective_config.txt",
                [f"{k}={v}" for k, v in dataclasses.asdict(cfg).items()])
    return out


def _write_csv(path: Path, header: list, rows: list) -> None:
    write_lines(path, [",".join(header)] + [",".join(row) for row in rows])


# ---------------------------------------------------------------------------
# Commands

def cmd_gen_data(cfg: RunConfig) -> Path:
    out = _prepare_out(cfg)
    data_dir = out / "dataset"
    data_dir.mkdir(exist_ok=True)
    rows = []
    for i, item in enumerate(_eval_dataset(cfg, out)):
        stem = f"item_{i:04d}"
        for tag, wav in (("x", item.x), ("e", item.e),
                         ("s1", item.s1), ("b", item.b)):
            write_wav(data_dir / f"{stem}_{tag}.wav", wav)
            write_tensor(data_dir / f"{stem}_{tag}.adft", wav.samples)
        intf = ";".join(str(ident.id_seed) for ident, _ in
                        item.spec.interferers)
        rows.append([str(i), repr(float(item.tau)),
                     str(item.spec.target.id_seed), intf,
                     repr(float(item.spec.noise_weight))])
    _write_csv(out / "manifest.csv",
               ["item_id", "tau", "target_id_seed", "interferer_id_seeds",
                "noise_weight"], rows)
    return out


def _loss_csv(path: Path, tc: velnet.TrainConfig, trace: list) -> None:
    rows = [[str(epoch), repr(float(velnet.lr_for_epoch(tc, epoch))),
             repr(float(loss))] for epoch, loss in enumerate(trace)]
    _write_csv(path, ["epoch", "lr", "loss"], rows)


def _trained_on(cfg: RunConfig) -> dict:
    """The settings both nets record: the framing and sample rate."""
    return {"feat_n_fft": cfg.n_fft, "feat_hop": cfg.hop,
            "sample_rate_hz": cfg.sample_rate_hz}


def cmd_train_vel(cfg: RunConfig) -> Path:
    out = _prepare_out(cfg)
    net = velnet.VelocityNet.create(cfg.seed, **_trained_on(cfg))
    tc = _part(velnet.TrainConfig, cfg)
    _, trace = velnet.train_velocity(net, _train_dataset(cfg, out), tc,
                                     _part(flowpath.PathParams, cfg))
    velnet.save_velnet(out / "velnet.ckpt", net)
    _loss_csv(out / "train_vel_loss.csv", tc, trace)
    return out


def cmd_train_mr(cfg: RunConfig) -> Path:
    out = _prepare_out(cfg)
    reg = mrnet.MrRegressor.create(cfg.seed + 17, **_trained_on(cfg))
    tc = _part(velnet.TrainConfig, cfg)
    _, trace = mrnet.mr_train(reg, _train_dataset(cfg, out), tc)
    mrnet.save_mrnet(out / "mrnet.ckpt", reg)
    _loss_csv(out / "train_mr_loss.csv", tc, trace)
    return out


def _check_rate(what, rate: int, trained: int) -> None:
    if rate != trained:
        raise FileFormatError(f"{what}: sample rate {rate} Hz, but the "
                              f"checkpoints were trained at {trained} Hz")


def _load_checkpoints(cfg: RunConfig, ckpt_dir=None, data_rate=None):
    """Load (velnet, mrnet); both must record one sample rate.

    `data_rate`, the rate of the audio the command will run, must be it too.
    """
    ck = Path(ckpt_dir) if ckpt_dir else Path(cfg.output_dir)
    net = velnet.load_velnet(ck / "velnet.ckpt")
    reg = mrnet.load_mrnet(ck / "mrnet.ckpt")
    if net.sample_rate_hz != reg.sample_rate_hz:
        raise FileFormatError("velnet and mrnet checkpoints were trained at "
                              "different sample rates")
    if data_rate is not None:
        _check_rate("config sample_rate_hz", data_rate, net.sample_rate_hz)
    return net, reg


# Spectral records are built once per waveform, framed for LSD (cfg.n_fft,
# cfg.hop), and live for one item. mrnet and velnet reuse them when their
# checkpoints use the same framing, and recompute otherwise.

def _record(cfg: RunConfig, w, scored: bool = False):
    """Record of a waveform; a scored one (of an estimate or a reference)
    keeps the dB matrix, so it serves both LSD and SIM."""
    return spectral_record(w, cfg.n_fft, cfg.hop, keep_db=scored)


def _scorer(cfg: RunConfig, reg, x, s1):
    """`metrics.scorer` with mrnet embeddings for SIM and the cfg framing."""
    return metrics.scorer(x, s1, lambda w: mrnet.mr_embed(reg, w),
                          cfg.n_fft, cfg.hop)


def _eval_items(cfg: RunConfig, ckpt_dir, out: Path):
    """The per-item set-up of `ablate` and `nfe-sweep`.

    Loads both checkpoints (at the config's rate), then reads the eval set,
    and yields per item (index, item, x mixed once for every lane, mrnet's
    tau_hat, the "oracle" and "net" fields, score): score(est, nfe) scores
    the estimate of a lane that took nfe steps, for this item only.
    """
    net, reg = _load_checkpoints(cfg, ckpt_dir, cfg.sample_rate_hz)
    items = _eval_dataset(cfg, out)
    pp = _part(flowpath.PathParams, cfg)
    for i, item in enumerate(items):
        x = _record(cfg, item.x, scored=True)
        e = _record(cfg, item.e)
        score = _scorer(cfg, reg, x, item.s1)
        # every passthrough is x's samples: x's record is scored once for all
        passthrough = functools.cache(lambda: score(x))
        fields = {"oracle": sampler.OracleField(item.b, item.s1, pp),
                  "net": sampler.NetField(net, e)}
        yield (i, item, x.wave, mrnet.mr_predict(reg, x, e), fields,
               lambda est, nfe: score(est) if nfe > 0 else passthrough())


def _in_lane(i: int, lane: str, extract, *args):
    """extract(*args); a divergence in it names eval item i and the lane."""
    try:
        return extract(*args)
    except DivergenceError as exc:
        raise DivergenceError(f"item {i}, {lane}: {exc}") from exc


ABLATION_SOURCES = ("oracle", "estimated", "random", "tau1", "tau0")


def cmd_ablate(cfg: RunConfig, ckpt_dir=None) -> Path:
    """Table-style grid: five MR sources x {oracle, net} fields."""
    out = _prepare_out(cfg)
    policy = _part(sampler.NfePolicy, cfg)
    rand_taus = np.random.default_rng(cfg.seed + 4242).uniform(
        size=cfg.n_eval)
    rows = []
    for i, item, x, mr_tau, fields, score in _eval_items(cfg, ckpt_dir, out):
        sources = {
            "oracle": sampler.oracle_mr(item.s1, item.b),
            "estimated": sampler.fixed_mr(mr_tau),
            "random": sampler.fixed_mr(float(rand_taus[i])),
            "tau1": sampler.fixed_mr(1.0),
            "tau0": sampler.fixed_mr(0.0),
        }
        for source_name in ABLATION_SOURCES:
            for field_name in ("oracle", "net"):
                est, tau_hat, nfe = _in_lane(
                    i, f"mr source {source_name}, field {field_name}",
                    sampler.extract_adaptive, x, item.e,
                    sources[source_name], fields[field_name], policy)
                report = metrics.EvalReport(**score(est, nfe), nfe_used=nfe,
                                            tau_true=item.tau, tau_hat=tau_hat)
                rows.append([str(i), source_name, field_name]
                            + report.csv_row())
    _write_csv(out / "ablation.csv",
               ["item_id", "mr_source", "field", *metrics.REPORT_COLUMNS],
               rows)
    return out


def _write_svg(path: Path, xs: list, series: dict, x_label: str) -> None:
    """Minimal hand-rolled SVG line chart; one polyline per series."""
    width, height, margin = 640, 400, 60
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    all_vals = [v for vals in series.values() for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    x_lo, x_hi = min(xs), max(xs)

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - lo) / (hi - lo) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<line x1="{margin}" y1="{height - margin}" '
             f'x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 15}" '
             f'text-anchor="middle">{x_label}</text>']
    for k, (name, vals) in enumerate(series.items()):
        pts = " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v in zip(xs, vals))
        color = colors[k % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="2" points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 5}" '
                     f'y="{margin + 20 * k}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    write_lines(path, parts)


def cmd_nfe_sweep(cfg: RunConfig, ckpt_dir=None, field: str = "net") -> Path:
    """Sweep max_nfe in estimated-tau mode; CSV plus an SVG line chart."""
    out = _prepare_out(cfg)
    policies = [sampler.NfePolicy(max_nfe=n, epsilon=cfg.epsilon)
                for n in NFE_SWEEP_VALUES]
    # per max_nfe, the scores of every item, in item order
    per_nfe = [[] for _ in NFE_SWEEP_VALUES]
    for i, item, x, tau_hat, fields, score in _eval_items(cfg, ckpt_dir, out):
        budgets = _in_lane(i, f"field {field}", sampler.extract_budgets,
                           x, item.e, tau_hat, fields[field], policies)
        by_nfe = {}  # budgets with one step count share one estimate
        for (est, nfe), scored in zip(budgets, per_nfe):
            if nfe not in by_nfe:
                by_nfe[nfe] = score(est, nfe)
            scored.append(by_nfe[nfe])

    def mean(scored, key):
        return float(np.mean([sc[key] for sc in scored]))

    mean_sdr = [mean(sc, "si_sdr_db") for sc in per_nfe]
    mean_lsd = [mean(sc, "lsd_db") for sc in per_nfe]
    mean_sim = [mean(sc, "sim_cosine") for sc in per_nfe]
    rows = [[str(n), repr(a), repr(b), repr(c)] for n, a, b, c in
            zip(NFE_SWEEP_VALUES, mean_sdr, mean_lsd, mean_sim)]
    _write_csv(out / "nfe_sweep.csv",
               ["max_nfe", "mean_si_sdr_db", "mean_lsd_db",
                "mean_sim_cosine"], rows)
    _write_svg(out / "nfe_sweep.svg", list(NFE_SWEEP_VALUES),
               {"SI-SDR (dB)": mean_sdr, "LSD (dB)": mean_lsd,
                "SIM x 10": [s * 10 for s in mean_sim]}, "max NFE")
    return out


def _read_wav_at(path, rate: int):
    """read_wav, rejecting a file whose sample rate is not `rate`."""
    w = read_wav(path)
    _check_rate(path, w.sample_rate_hz, rate)
    return w


def cmd_extract(cfg: RunConfig, in_path, enroll_path, out_wav,
                reference=None, ckpt_dir=None) -> dict:
    """Single-file end-to-end extraction; prints tau_hat and NFE used."""
    net, reg = _load_checkpoints(cfg, ckpt_dir)
    x = _read_wav_at(in_path, net.sample_rate_hz)
    e = _read_wav_at(enroll_path, net.sample_rate_hz)
    if reference is not None:  # a bad reference fails before any output
        s1 = _read_wav_at(reference, net.sample_rate_hz)
        if len(s1) != len(x):
            raise FileFormatError(f"{reference}: {len(s1)} samples, but "
                                  f"{in_path} has {len(x)}")
        score = _scorer(cfg, reg, x, s1)
    xr, er = _record(cfg, x), _record(cfg, e)
    est, tau_hat, nfe = sampler.extract_adaptive(
        x, e, sampler.fixed_mr(mrnet.mr_predict(reg, xr, er)),
        sampler.NetField(net, er), _part(sampler.NfePolicy, cfg))
    write_wav(out_wav, est)
    result = {"tau_hat": tau_hat, "nfe_used": nfe}
    print(f"tau_hat={tau_hat:.6f} nfe_used={nfe}")
    if reference is not None:
        result.update(score(est))
        print("si_sdr_db={si_sdr_db:.4f} "
              "si_sdr_improvement_db={si_sdr_improvement_db:.4f} "
              "lsd_db={lsd_db:.4f} sim_cosine={sim_cosine:.6f}"
              .format(**result))
    return result


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="override output_dir")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config key")
    p.add_argument("--seed", type=int)


def _overrides_from(args) -> dict:
    out = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    if args.out is not None:
        out["output_dir"] = args.out
    if args.seed is not None:
        out["seed"] = str(args.seed)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one. Sharing it is safe: parsing never changes the parser, each parse
    fills a new Namespace, and `--set`'s append action copies its default
    list before appending."""
    parser = argparse.ArgumentParser(
        prog="adflow",
        description="Adaptive mixing-ratio flow matching for target-source "
                    "extraction (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train-vel", "train-mr"):
        _add_common(sub.add_parser(name))
    for name in ("ablate", "nfe-sweep"):
        p = sub.add_parser(name)
        _add_common(p)
        p.add_argument("--checkpoints", help="directory holding *.ckpt "
                       "(default: output_dir)")
        if name == "nfe-sweep":
            p.add_argument("--field", choices=("net", "oracle"),
                           default="net")
    p = sub.add_parser("extract")
    _add_common(p)
    p.add_argument("--checkpoints")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--out-wav", dest="out_wav", required=True)
    p.add_argument("--reference")
    return parser


def run(argv=None) -> None:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config, _overrides_from(args))
    if args.command == "gen-data":
        cmd_gen_data(cfg)
    elif args.command == "train-vel":
        cmd_train_vel(cfg)
    elif args.command == "train-mr":
        cmd_train_mr(cfg)
    elif args.command == "ablate":
        cmd_ablate(cfg, args.checkpoints)
    elif args.command == "nfe-sweep":
        cmd_nfe_sweep(cfg, args.checkpoints, args.field)
    elif args.command == "extract":
        cmd_extract(cfg, args.in_path, args.enroll, args.out_wav,
                    args.reference, args.checkpoints)


def main(argv=None) -> int:
    try:
        run(argv)
        return 0
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 3
    except (OSError, FileFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except AdflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
