"""Command-line front end: verification campaigns with machine-readable reports.

Verbs: ``verify-identities``, ``complex``, ``fixture``, ``helmholtz``,
``poincare``, ``korn``.  Options may come from a JSON config document
(``--config``) with command-line flags overriding file values.  Reports are
deterministic: identical config and seed produce byte-identical output (no
timestamps or timings are embedded).

Exit codes: 0 pass, 1 verification failure, 2 usage or config error.
"""

import argparse
import dataclasses
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from . import derham
from . import fa_toolbox as fa
from . import identity_suite
from .elasticity_assembly import (
    BoundarySelection,
    DegreeTooLow,
    AssemblyError,
    build_complex,
    korn_constant,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, unreadable file."""


@dataclasses.dataclass
class RunConfig:
    """Resolved options for one command run; every field has a default."""

    command: str = ""
    seed: int = 0
    trials: int = 20
    degree: int = 3
    p: int = 4
    gt: str = "none"
    weights: str = "identity"
    tol_rank: float = None
    tol: float = 1e-10
    out: str = None
    format: str = "json"
    only: str = None
    fixture: str = None

    def to_json_dict(self):
        d = dataclasses.asdict(self)
        d.pop("out", None)
        d.pop("format", None)
        return d


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}
_WEIGHT_MODES = {"identity": "identity", "random": "random-spd", "random-spd": "random-spd"}


def _load_config_file(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    except ValueError as exc:
        raise ConfigError("config file is not valid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for field in dataclasses.fields(RunConfig):
        value = data.get(field.name, field.default)
        if value is None and field.default is None:
            continue
        kinds = (int, float) if field.type is float else field.type
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ConfigError(
                "%s must be %s, got %r" % (field.name, _TYPE_NAMES[field.type], value)
            )
    return data


def _resolve_config(args):
    values = {}
    if args.config:
        values.update(_load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    values["command"] = args.command
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc))
    for name in ("seed", "trials", "degree", "p"):
        value = getattr(cfg, name)
        if value < 0:
            raise ConfigError("%s must be a nonnegative integer" % name)
    if cfg.weights not in _WEIGHT_MODES:
        raise ConfigError(
            "weights must be identity or random-spd, got %r" % (cfg.weights,)
        )
    cfg.weights = _WEIGHT_MODES[cfg.weights]
    if cfg.format not in ("json", "csv"):
        raise ConfigError("format must be json or csv, got %r" % (cfg.format,))
    if cfg.tol_rank is not None:
        cfg.tol_rank = float(cfg.tol_rank)
        if not 0 < cfg.tol_rank < math.inf:
            raise ConfigError("tol-rank must be positive and finite")
    cfg.tol = float(cfg.tol)
    if not 0 < cfg.tol < math.inf:
        raise ConfigError("tol must be positive and finite")
    try:
        BoundarySelection.parse(cfg.gt)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def _plain(obj):
    """Recursively convert report values to plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def _report(cfg, results, tolerances):
    return _plain(
        {
            "command": cfg.command,
            "config": cfg.to_json_dict(),
            "seed": cfg.seed,
            "tolerances": tolerances,
            "version": __version__,
            "results": results,
        }
    )


def _emit(cfg, text):
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        Path(cfg.out).write_text(text)
    except OSError as exc:
        raise ConfigError("cannot write report: %s" % exc)


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(cfg, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _emit(cfg, "\n".join(lines) + "\n")


def _emit_report(cfg, results, tolerances, header, rows):
    """Emit a command's report, as the CSV `rows` under `header` or as the
    JSON report of `results`; returns EXIT_PASS."""
    if cfg.format == "csv":
        _emit_csv(cfg, header, rows)
    else:
        report = _report(cfg, results, tolerances)
        _emit(cfg, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_identities(cfg):
    only = None
    if cfg.only is not None:
        only = [token.strip() for token in cfg.only.split(",") if token.strip()]
        if not only:
            raise ConfigError("only selects no identity id")
        repeated = sorted({i for i in only if only.count(i) > 1})
        if repeated:
            raise ConfigError("only repeats %s" % ", ".join(repeated))
    try:
        reports = identity_suite.run_all(
            trials=cfg.trials, degree=cfg.degree, seed=cfg.seed, only=only
        )
    except identity_suite.UnknownIdentity as exc:
        raise ConfigError("unknown identity id %s" % exc)
    cases = []
    for r in reports:
        case = r.to_dict()
        case["id"] = case.pop("identity_id")
        cases.append(case)
    if cfg.format == "csv":
        _emit_csv(
            cfg,
            ("id", "passed", "trials", "degree", "seed", "mutated"),
            [
                (c["id"], c["passed"], c["trials"], c["degree"], c["seed"], c["mutated"])
                for c in cases
            ],
        )
    else:
        header = _report(cfg, None, {"identity": 0.0})
        header.pop("results")
        lines = [json.dumps(header, sort_keys=True)]
        lines += [json.dumps(_plain(c), sort_keys=True) for c in cases]
        _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_PASS if all(c["passed"] for c in cases) else EXIT_FAIL


def _weight_for(cfg, dim, rng):
    if cfg.weights == "random-spd":
        return fa.random_spd(dim, rng)
    return None


def _helmholtz_samples(cx, rng, trials, tol):
    """Helmholtz-split `trials` random level-1 fields drawn from `rng`."""
    g1 = cx.gram(1)
    samples = []
    for i in range(trials):
        x = rng.standard_normal(g1.dim)
        h = fa.helmholtz(x, cx, 1, tol=tol)
        nx = max(g1.norm(x), 1e-300)
        samples.append(
            {
                "sample": i,
                "residual": h.residual / nx,
                "max_pairing": max(abs(v) for v in h.pairings.values()) / nx**2,
                "harmonic_norm": g1.norm(h.x_harm),
            }
        )
    return samples


def _worst(samples, key):
    return max((s[key] for s in samples), default=0.0)


def cmd_complex(cfg):
    ec = build_complex(cfg.p, cfg.gt)
    rng = np.random.default_rng(cfg.seed)
    eps = _weight_for(cfg, ec.dims[1], rng)
    cx = ec.finite_complex(g1=eps)
    comp = cx.composition_norms()
    coh = fa.cohomology(cx, 1, tol=cfg.tol_rank)
    constants = fa.complex_constants(cx, tol=cfg.tol_rank)
    korn = korn_constant(cfg.p, cfg.gt)
    samples = _helmholtz_samples(cx, rng, cfg.trials, cfg.tol)
    worst_res = _worst(samples, "residual")
    worst_pair = _worst(samples, "max_pairing")
    results = {
        "p": cfg.p,
        "gt": BoundarySelection.parse(cfg.gt).label,
        "dims": list(ec.dims),
        "ranks": list(ec.ranks),
        "kernel_dims": list(ec.kernel_dims),
        "harmonic_dims": list(ec.harmonic_dims),
        "composition_norms": comp,
        "rational_composition_zero": ec.verify_complex_property(),
        "cohomology_dim": coh.dimension,
        "constants": {
            name: (None if rep is None else rep.constant)
            for name, rep in constants.items()
        },
        "korn_constant": korn.constant,
        "helmholtz_max_residual": worst_res,
        "helmholtz_max_pairing": worst_pair,
        "weight_mode": cfg.weights,
    }
    rows = [
        ("p", results["p"]),
        ("gt", results["gt"]),
        ("dims", " ".join(map(str, results["dims"]))),
        ("kernel_dims", " ".join(map(str, results["kernel_dims"]))),
        ("cohomology_dim", results["cohomology_dim"]),
        ("composition_norm_01", comp[0]),
        ("composition_norm_12", comp[1]),
        ("c0", results["constants"]["c0"]),
        ("c1", results["constants"]["c1"]),
        ("c2", results["constants"]["c2"]),
        ("korn_constant", results["korn_constant"]),
        ("helmholtz_max_residual", worst_res),
        ("helmholtz_max_pairing", worst_pair),
    ]
    tolerances = {"tol": cfg.tol, "tol_rank": cfg.tol_rank}
    return _emit_report(cfg, results, tolerances, ("key", "value"), rows)


def _load_fixture(cfg):
    if cfg.fixture is None:
        raise ConfigError("fixture command needs --fixture <name or path>")
    name = cfg.fixture
    if name in derham.FIXTURE_BUILDERS:
        return name, derham.cubical_complex(derham.FIXTURE_BUILDERS[name]())
    path = Path(name)
    if not path.exists():
        raise ConfigError("fixture not found: %s" % name)
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError("cannot read fixture: %s" % exc)
    except ValueError as exc:
        raise ConfigError("fixture is not valid JSON: %s" % exc)
    try:
        return path.stem, fa.FiniteComplex.from_json_dict(data)
    except KeyError as exc:
        raise ConfigError("fixture misses required field %s" % exc)
    except (fa.NotSPD, fa.NotAComplex):
        raise  # verification failure: a Gram not SPD, or A_{i+1} A_i != 0
    except fa.DimensionMismatch as exc:
        raise ConfigError("invalid fixture: %s" % exc)
    except (TypeError, ValueError) as exc:
        raise ConfigError("invalid fixture: %s" % exc)


def cmd_fixture(cfg):
    name, cx = _load_fixture(cfg)
    betti = [
        fa.cohomology(cx, n, tol=cfg.tol_rank).dimension
        for n in range(len(cx.dims))
    ]
    constants = fa.complex_constants(cx, tol=cfg.tol_rank)
    rng = np.random.default_rng(cfg.seed)
    samples = _helmholtz_samples(cx, rng, cfg.trials, cfg.tol)
    worst = _worst(samples, "residual")
    results = {
        "fixture": name,
        "dims": cx.dims,
        "betti": betti,
        "composition_norms": cx.composition_norms(),
        "constants": {
            k: (None if v is None else v.constant) for k, v in constants.items()
        },
        "helmholtz_max_residual": worst,
    }
    rows = [
        ("fixture", name),
        ("dims", " ".join(map(str, cx.dims))),
        ("betti", " ".join(map(str, betti))),
        ("helmholtz_max_residual", worst),
    ]
    tolerances = {"tol": cfg.tol, "tol_rank": cfg.tol_rank}
    return _emit_report(cfg, results, tolerances, ("key", "value"), rows)


def cmd_helmholtz(cfg):
    ec = build_complex(cfg.p, cfg.gt)
    rng = np.random.default_rng(cfg.seed)
    eps = _weight_for(cfg, ec.dims[1], rng)
    cx = ec.finite_complex(g1=eps)
    samples = _helmholtz_samples(cx, rng, cfg.trials, cfg.tol)
    results = {
        "p": cfg.p,
        "gt": BoundarySelection.parse(cfg.gt).label,
        "weight_mode": cfg.weights,
        "samples": samples,
        "max_residual": _worst(samples, "residual"),
        "max_pairing": _worst(samples, "max_pairing"),
    }
    header = ("sample", "residual", "max_pairing")
    rows = [(s["sample"], s["residual"], s["max_pairing"]) for s in samples]
    return _emit_report(cfg, results, {"tol": cfg.tol}, header, rows)


def cmd_poincare(cfg):
    ec = build_complex(cfg.p, cfg.gt)
    cx = ec.finite_complex()
    constants = fa.complex_constants(cx, tol=cfg.tol_rank)
    rows = []
    for name in ("c0", "c1", "c2"):
        rep = constants[name]
        if rep is None:
            rows.append({"label": name, "constant": None, "sharpness_residual": None})
            continue
        i = int(name[1])
        g_dom, g_cod = cx.gram(i), cx.gram(i + 1)
        x = rep.extremal
        lhs = g_dom.norm(x)
        rhs = rep.constant * g_cod.norm(cx.op(i) @ x)
        rows.append(
            {
                "label": name,
                "constant": rep.constant,
                "sigma_min": rep.sigma_min,
                "sharpness_residual": abs(lhs - rhs) / max(lhs, 1e-300),
            }
        )
    results = {
        "p": cfg.p,
        "gt": BoundarySelection.parse(cfg.gt).label,
        "constants": rows,
    }
    header = ("label", "constant", "sharpness_residual")
    table = [(r["label"], r["constant"], r["sharpness_residual"]) for r in rows]
    return _emit_report(cfg, results, {"tol_rank": cfg.tol_rank}, header, table)


def cmd_korn(cfg):
    rep = korn_constant(cfg.p, cfg.gt)
    results = rep.to_dict()
    return _emit_report(cfg, results, {}, ("key", "value"), sorted(results.items()))


_COMMANDS = {
    "verify-identities": cmd_verify_identities,
    "complex": cmd_complex,
    "fixture": cmd_fixture,
    "helmholtz": cmd_helmholtz,
    "poincare": cmd_poincare,
    "korn": cmd_korn,
}


@cache  # one parser per process: parsing leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elacomplex",
        description="Verification toolbox for the discrete elasticity complex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--p", type=int, dest="p", help="polynomial degree")
        p.add_argument("--gt", help="face selection: none, all, or e.g. X0,X1")
        p.add_argument("--seed", type=int, help="random seed (recorded in report)")
        p.add_argument("--trials", type=int, help="number of sampled fields/cases")
        p.add_argument("--degree", type=int, help="degree bound for identity inputs")
        p.add_argument(
            "--weights", help="weight mode on V1: identity or random-spd"
        )
        p.add_argument(
            "--tol-rank", type=float, dest="tol_rank", help="rank cut tolerance"
        )
        p.add_argument("--tol", type=float, help="verification tolerance")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), help="report format")
        if name == "verify-identities":
            p.add_argument("--only", help="comma-separated identity ids")
        if name == "fixture":
            p.add_argument("--fixture", help="fixture name (solid_box, torus) or path")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[cfg.command](cfg)
    except (ConfigError, DegreeTooLow) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (fa.DimensionMismatch, AssemblyError, fa.SolverFailure, fa.NotSPD) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
