"""Command-line front end: experiment orchestration and result persistence.

Subcommands: gen-graph, verify-identity, correction-decay, exponent-scan,
expander-check, criterion-report, entropy.  Every output embeds the tool
version, the resolved configuration, the master seed, and wall-clock info;
trials use RNG streams keyed by (master seed, trial index), so reruns with
the same config and seed reproduce identical scalar results.

Each subcommand declares a parameter once, as a ``(name, conversion,
default, help)`` entry that gives its flag, config key and default; a flag
overrides the config file, which overrides the default.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 all trials diverged.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from ._csvio import write_csv
from .bounds import (ALPHA_D_DEFAULT, ALPHA_MID_DEFAULT,
                     activity_bound_violations, scan_exponent)
from .bp import bethe_log_partition, solve_fixed_point, write_messages_csv
from .channel import (conditional_entropy_per_node, half_llr_magnitude,
                      sample_bsc)
from .exceptions import (AllTrialsDivergedError, BudgetError, DivergenceError,
                         PairingError)
from .graphs import (check_edge_expansion, enumerate_polymers, read_graph,
                     sample_regular_graph, write_graph)
from .loopseries import (ActivityTable, build_expansion_report,
                         convergence_criterion)
from .model import KINDS, FactorSpec, exact_log_partition


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _to_bool(text) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def _int_list(text) -> list[int]:
    return _nonempty([int(tok) for tok in text.split(",") if tok.strip()])


def _float_list(text) -> list[float]:
    return _nonempty([float(tok) for tok in text.split(",") if tok.strip()])


def _nonempty(values: list) -> list:
    """A sweep list must name at least one value; an empty one runs nothing."""
    if not values:
        raise ValueError("empty list")
    return values


def _kind(*allowed):
    """Conversion that accepts only ``allowed`` model kinds."""
    def conv(text):
        if text not in allowed:
            raise ValueError(f"unknown model kind {text!r} "
                             f"(choose from {', '.join(allowed)})")
        return text
    conv.choices = allowed
    return conv


_SEED = ("seed", int, 0, "master RNG seed")
_D = ("d", int, 3, "node degree")
_EPS = ("eps", float, 0.1, "softening (softened kind)")
_COUPLING = ("coupling", float, 0.05, "J (high-temperature kind)")
_FIELD_BOUND = ("field_bound", float, 0.2, "field bound (high-temperature)")
_ALPHA_D = ("alpha_d", float, ALPHA_D_DEFAULT, "alpha_d of the bound")
_ALPHA_MID = ("alpha_mid", float, ALPHA_MID_DEFAULT, "alpha_mid of the bound")

_COMMANDS: dict[str, tuple] = {}   # name -> (function, help, parameter table)


def _command(name: str, help: str, *table):
    def register(func):
        _COMMANDS[name] = (func, help, table)
        return func
    return register


def _load_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: bad config line {line!r}")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Flag values override config-file values override table defaults.

    A config key that no subcommand defines is rejected; keys of other
    subcommands are accepted, so one file can serve several commands.
    """
    file = _load_config_file(args.config) if args.config else {}
    known = {entry[0] for _, _, table in _COMMANDS.values() for entry in table}
    unknown = sorted(set(file) - known)
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s) "
                         f"{', '.join(unknown)}")
    cfg = {}
    for name, conv, default, _ in args.table:
        val = getattr(args, name)
        if val is None and name in file:
            try:
                val = conv(file[name])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {name}: {exc}") from None
        elif val is None:
            val = default
        cfg[name] = val
    return cfg


def _meta(command: str, cfg: dict, master_seed, t0: float) -> dict:
    return {
        "tool_version": __version__,
        "format_version": 1,
        "command": command,
        "config": dict(sorted(cfg.items())),
        "master_seed": master_seed,
        "wallclock_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": round(time.monotonic() - t0, 3),
    }


def _trials(cfg: dict, key: list, kind: str, n: int, graph=None, **solver):
    """Yield ``(t, graph, spec, params, messages)`` for each trial.

    Trial t samples a d-regular graph from seed ``[*key, t, 0]`` (unless a
    fixed ``graph`` is given) and its fields from ``[*key, t, 1]``, then
    solves BP with the ``solver`` keywords.  ``params`` echoes the model
    parameters of the trial.
    """
    for t in range(cfg["trials"]):
        g = graph if graph is not None else \
            sample_regular_graph(n, cfg["d"], [*key, t, 0])
        chan_seed = [*key, t, 1]
        if kind == "high-temperature":
            J, bound = cfg["coupling"], cfg["field_bound"]
            h = np.random.default_rng(chan_seed).uniform(-bound, bound,
                                                         g.num_edges)
            spec = FactorSpec.high_temperature(h, J)
            params = {"J": J, "field_bound": bound}
        else:
            params = {"p": cfg["p"]}
            if kind == "softened-cycle-code":
                params["eps"] = cfg["eps"]
            spec = FactorSpec(kind, sample_bsc(g, cfg["p"], chan_seed).h,
                              eps=params.get("eps", 0.0))
        yield t, g, spec, params, solve_fixed_point(g, spec, **solver)


def _mean_stderr(vals) -> tuple[float, float]:
    mean = float(np.mean(vals)) if vals else math.nan
    stderr = (float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
              if len(vals) > 1 else math.nan)
    return mean, stderr


def _check_converged(trials: int, converged: int) -> None:
    """Raise AllTrialsDivergedError if trials were asked and none converged."""
    if trials and not converged:
        raise AllTrialsDivergedError("no trial reached a BP fixed point")


# ---------------------------------------------------------------- commands


@_command("gen-graph", "sample a d-regular graph to a file",
          ("n", int, 8, "nodes"), _D, _SEED,
          ("out", str, "graph.txt", "output path"))
def cmd_gen_graph(cfg: dict) -> int:
    t0 = time.monotonic()
    g = sample_regular_graph(cfg["n"], cfg["d"], cfg["seed"])
    write_graph(g, cfg["out"])
    meta = _meta("gen-graph", cfg, cfg["seed"], t0)
    print(json.dumps({**meta, "n": g.n, "d": g.d, "num_edges": g.num_edges,
                      "components": len(g.components()), "path": cfg["out"]}))
    return 0


@_command("verify-identity", "check ln Z = Bethe + ln Z_corr per trial",
          ("n", int, 8, "nodes"), _D,
          ("model", _kind(*KINDS), "cycle-code", "model kind"),
          ("p", float, 0.45, "BSC flip probability"), _EPS, _COUPLING,
          _FIELD_BOUND, ("trials", int, 10, "number of trials"), _SEED,
          ("tol", float, 1e-12, "BP residual tolerance"),
          ("damping", float, 0.5, "BP damping in [0, 1)"),
          ("max_sweeps", int, 10_000, "BP sweep limit"),
          ("node_cap", int, 0, "polymer node cap; 0 = n"),
          ("mayer_max", int, 3, "highest Mayer order, 0..5; 0 = none"),
          ("out_dir", str, "loopexp-verify", "output directory"),
          ("graph", str, "", "fixed graph file instead of sampling"),
          ("save_messages", _to_bool, False,
           "write fixed-point message CSVs next to reports"))
def cmd_verify_identity(cfg: dict) -> int:
    seed, trials = cfg["seed"], cfg["trials"]
    t0 = time.monotonic()
    out_dir = Path(cfg["out_dir"])
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    fixed = read_graph(cfg["graph"]) if cfg["graph"] else None
    rows = []
    excluded = over_cap = 0
    max_residual = 0.0
    for t, g, spec, params, msgs in _trials(
            cfg, [seed], cfg["model"], cfg["n"], fixed, tol=cfg["tol"],
            damping=cfg["damping"], max_sweeps=cfg["max_sweeps"]):
        report = build_expansion_report(
            g, spec, msgs, node_cap=cfg["node_cap"] or None,
            mayer_max=cfg["mayer_max"],
            params={**params, "trial": t, "master_seed": seed,
                    "graph_seed": [seed, t, 0], "channel_seed": [seed, t, 1]})
        report.save_json(reports_dir / f"trial_{t:04d}.json")
        if cfg["save_messages"]:
            write_messages_csv(g, msgs, reports_dir / f"messages_{t:04d}.csv")
        residual = report.identity_residual()
        if not msgs.converged:
            excluded += 1
        elif report.exact_log_z is None or report.z_corr_all is None:
            over_cap += 1
        elif residual is not None:
            max_residual = max(max_residual, residual)
        rows.append([t, int(msgs.converged), msgs.sweeps, msgs.residual,
                     report.exact_log_z, report.bethe_total, report.z_corr_all,
                     report.ln_z_corr(), residual, report.criterion])
    meta = _meta("verify-identity", cfg, seed, t0)
    meta["excluded_not_converged"] = excluded
    meta["excluded_over_cap"] = over_cap
    write_csv(out_dir / "summary.csv", meta,
              ["trial", "converged", "sweeps", "bp_residual", "exact_log_z",
               "bethe_total", "z_corr", "ln_z_corr", "identity_residual",
               "criterion"], rows)
    print(f"trials={trials} converged={trials - excluded} "
          f"excluded={excluded} over_cap={over_cap} "
          f"max_identity_residual={max_residual:.3e}")
    print(f"reports in {reports_dir}, summary in {out_dir / 'summary.csv'}")
    _check_converged(trials, trials - excluded)
    return 0


@_command("correction-decay",
          "mean |ln Z_corr|/n versus n, with ln Z_corr = ln Z - ln Z_Bethe",
          ("n_list", _int_list, [4, 6, 8, 10, 12], "comma list of sizes"), _D,
          ("model", _kind("both", *KINDS), "both",
           "model kind; both = cycle-code and high-temperature"),
          ("p", float, 0.48, "BSC flip probability"), _COUPLING,
          _FIELD_BOUND, _EPS, ("trials", int, 50, "trials per size"), _SEED,
          ("out", str, "correction-decay.csv", "output CSV"))
def cmd_correction_decay(cfg: dict) -> int:
    """Mean |ln Z_corr|/n per size over the converged trials, with ln Z_corr
    = ln Z - ln Z_Bethe at the fixed point (no subset scan).  A converged
    trial whose sums are over the size budget is refused: it counts in
    ``excluded`` and in the ``excluded_over_cap`` metadata, and a size with
    no value leaves its mean and stderr empty."""
    seed, trials, model = cfg["seed"], cfg["trials"], cfg["model"]
    kinds = [KINDS[0], KINDS[2]] if model == "both" else [model]
    t0 = time.monotonic()
    rows = []
    refused = []    # (kind, n, trials refused, reason) per refused size
    total_converged = 0
    for kind in kinds:
        for n in cfg["n_list"]:
            vals = []
            converged = over_cap = 0
            for _, g, spec, _, msgs in _trials(cfg, [seed, n], kind, n):
                if not msgs.converged:
                    continue
                converged += 1
                try:
                    ln_z_corr = (exact_log_partition(g, spec)
                                 - bethe_log_partition(g, spec, msgs).total)
                except BudgetError as exc:
                    over_cap, reason = over_cap + 1, str(exc)
                    continue
                vals.append(abs(ln_z_corr) / n)
            total_converged += converged
            if over_cap:
                refused.append((kind, n, over_cap, reason))
            rows.append([kind, n, trials, converged, trials - len(vals),
                         *(_mean_stderr(vals) if vals else ("", ""))])
    meta = _meta("correction-decay", cfg, seed, t0)
    meta["excluded_over_cap"] = {f"{kind} {n}": count
                                 for kind, n, count, _ in refused}
    write_csv(cfg["out"], meta,
              ["model", "n", "trials", "converged", "excluded",
               "mean_abs_f_corr", "stderr"], rows)
    for row in rows:
        mean = "" if row[5] == "" else f"{row[5]:.6g}"
        print(f"model={row[0]} n={row[1]} mean|f_corr|={mean} "
              f"stderr={row[6]}")
    for kind, n, count, reason in refused:
        print(f"model={kind} n={n} refused {count} of {trials} trials: "
              f"{reason}")
    print(f"table in {cfg['out']}")
    _check_converged(trials, total_converged)
    return 0


@_command("exponent-scan", "grid scan of the large-n exponent over Delta",
          _D, ("h", float, 0.1, "field magnitude"),
          ("step", float, 0.01, "grid step"),
          ("n", int, 0, "finite size; 0 = large-n limit"), _ALPHA_D,
          _ALPHA_MID, ("out", str, "exponent-surface.csv", "output CSV"))
def cmd_exponent_scan(cfg: dict) -> int:
    t0 = time.monotonic()
    scan = scan_exponent(cfg["d"], cfg["h"], cfg["step"], n=cfg["n"] or None,
                         alpha_d=cfg["alpha_d"], alpha_mid=cfg["alpha_mid"])
    scan.write_csv(cfg["out"], meta=_meta("exponent-scan", cfg, None, t0))
    print(f"argmax={scan.argmax} max={scan.max_value:.6g} "
          f"all_negative={scan.all_negative}")
    print(f"surface in {cfg['out']}")
    return 0


@_command("expander-check", "edge-expansion verdicts over sampled graphs",
          ("n", int, 14, "nodes"), _D,
          ("samples", int, 200, "number of sampled graphs"),
          ("kappa", float, None, "expansion constant (default 0.18*d)"),
          _SEED, ("exhaustive_limit", int, 20, "largest exhaustive n"),
          ("subset_samples", int, 20_000, "subsets sampled above the limit"),
          ("out", str, "expander-check.csv", "output CSV"))
def cmd_expander_check(cfg: dict) -> int:
    seed, samples = cfg["seed"], cfg["samples"]
    if cfg["kappa"] is None:
        cfg["kappa"] = 0.18 * cfg["d"]
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.monotonic()
    rows = []
    passed = 0
    for s in range(samples):
        g = sample_regular_graph(cfg["n"], cfg["d"], [seed, s, 0])
        verdict = check_edge_expansion(
            g, cfg["kappa"], exhaustive_limit=cfg["exhaustive_limit"],
            num_samples=cfg["subset_samples"], seed=[seed, s, 1])
        passed += verdict.is_expander is True
        rows.append([s, verdict.mode, verdict.is_expander,
                     len(verdict.witness) if verdict.witness else ""])
    frac = passed / samples
    meta = _meta("expander-check", cfg, seed, t0)
    meta["pass_fraction"] = repr(frac)
    write_csv(cfg["out"], meta,
              ["sample", "mode", "is_expander", "witness_size"], rows)
    print(f"samples={samples} kappa={cfg['kappa']} pass_fraction={frac:.4f}")
    print(f"verdicts in {cfg['out']}")
    return 0


@_command("criterion-report", "convergence criterion along a parameter sweep",
          ("n", int, 10, "nodes"), _D,
          ("model", _kind(*KINDS), "high-temperature", "model kind"),
          ("values", _float_list, [0.01, 0.02, 0.05, 0.1, 0.15, 0.2],
           "comma list of sweep values (J or p)"),
          _FIELD_BOUND, _EPS, ("trials", int, 10, "trials per value"), _SEED,
          ("cap", int, 8, "polymer node cap"), _ALPHA_D, _ALPHA_MID,
          ("out", str, "criterion-report.csv", "output CSV"))
def cmd_criterion_report(cfg: dict) -> int:
    seed, trials, model = cfg["seed"], cfg["trials"], cfg["model"]
    t0 = time.monotonic()
    rows = []
    threshold = None
    total_converged = 0
    for vi, value in enumerate(cfg["values"]):
        crits = []
        violations = 0
        swept = {**cfg, "p": value, "coupling": value}
        h_sup = (half_llr_magnitude(value)
                 if model != "high-temperature" else cfg["field_bound"])
        for _, g, spec, _, msgs in _trials(swept, [seed, vi], model, cfg["n"]):
            if not msgs.converged:
                continue
            catalog = enumerate_polymers(g, cfg["cap"])
            acts = ActivityTable(g, spec, msgs).polymer_activities(catalog)
            crits.append(convergence_criterion(catalog, acts))
            if h_sup > 0:
                try:
                    violations += len(activity_bound_violations(
                        catalog, acts, h_sup, alpha_d=cfg["alpha_d"],
                        alpha_mid=cfg["alpha_mid"]))
                except ValueError:
                    violations = -1  # bound inapplicable at this h
        total_converged += len(crits)
        mean = _mean_stderr(crits)[0]
        cmax = float(np.max(crits)) if crits else math.nan
        if threshold is None and mean >= 1.0:
            threshold = value
        rows.append([value, trials, len(crits), trials - len(crits), mean,
                     cmax, violations])
    meta = _meta("criterion-report", cfg, seed, t0)
    meta["threshold_value"] = threshold
    write_csv(cfg["out"], meta,
              ["value", "trials", "converged", "excluded", "criterion_mean",
               "criterion_max", "bound_violations"], rows)
    for row in rows:
        print(f"value={row[0]} criterion_mean={row[4]:.6g} "
              f"criterion_max={row[5]:.6g}")
    print(f"threshold={'none observed' if threshold is None else threshold}")
    print(f"report in {cfg['out']}")
    _check_converged(trials, total_converged)
    return 0


@_command("entropy", "conditional entropy per node from BP",
          ("n", int, 8, "nodes"), _D,
          ("p", float, 0.45, "BSC flip probability"),
          ("trials", int, 20, "number of trials"), _SEED,
          ("bits", _to_bool, False, "report in bits instead of nats"),
          ("out", str, "entropy.csv", "output CSV"))
def cmd_entropy(cfg: dict) -> int:
    p, trials = cfg["p"], cfg["trials"]
    t0 = time.monotonic()
    unit = math.log(2.0) if cfg["bits"] else 1.0
    unit_name = "bits" if cfg["bits"] else "nats"
    rows = []
    f_vals = []
    for t, g, spec, _, msgs in _trials(cfg, [cfg["seed"]], "cycle-code",
                                       cfg["n"]):
        if not msgs.converged:
            rows.append([t, 0, "", "", "", ""])
            continue
        f_bethe = bethe_log_partition(g, spec, msgs).total / g.n
        try:
            f_exact = exact_log_partition(g, spec) / g.n
        except BudgetError:
            f_exact = None
        ent_b = conditional_entropy_per_node(f_bethe, p) / unit
        ent_e = (conditional_entropy_per_node(f_exact, p) / unit
                 if f_exact is not None else None)
        f_vals.append(f_bethe)
        rows.append([t, 1, f_bethe, f_exact, ent_b, ent_e])
    meta = _meta("entropy", cfg, cfg["seed"], t0)
    meta["excluded_not_converged"] = trials - len(f_vals)
    meta["unit"] = unit_name
    write_csv(cfg["out"], meta,
              ["trial", "converged", "f_bethe", "f_exact", "entropy_bethe",
               "entropy_exact"], rows)
    if f_vals:
        mean_f, stderr = _mean_stderr(f_vals)
        ent = conditional_entropy_per_node(mean_f, p) / unit
        print(f"trials={trials} converged={len(f_vals)} "
              f"H(X|Y)/n={ent:.6f} {unit_name} (stderr {stderr / unit:.2g})")
    print(f"table in {cfg['out']}")
    _check_converged(trials, len(f_vals))
    return 0


# ---------------------------------------------------------------- parser


_SHORT = {"n": ("-n",), "d": ("-d",), "p": ("-p",), "out": ("-o", "--out")}


@cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process (parsing does
    not change it)."""
    parser = _Parser(prog="loopexp",
                     description="Loop-series and polymer-expansion "
                                 "experiments for cycle codes on the BSC.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help, table) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help)
        for name, conv, default, text in table:
            flags = _SHORT.get(name, ("--" + name.replace("_", "-"),))
            shown = (",".join(map(str, default))
                     if isinstance(default, list) else default)
            kw = {"dest": name, "help": text if default in (None, "")
                  else f"{text} (default {shown})"}
            if conv is _to_bool:
                kw.update(action="store_const", const=True)
            elif hasattr(conv, "choices"):
                kw["choices"] = conv.choices
            else:
                kw["type"] = conv
            sp.add_argument(*flags, **kw)
        sp.add_argument("--config", help="key=value config file (flags win)")
        sp.set_defaults(func=func, table=table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_resolve(args))
    except AllTrialsDivergedError as exc:
        print(f"loopexp: {exc}", file=sys.stderr)
        return 3
    except (ValueError, BudgetError, PairingError, DivergenceError,
            OSError) as exc:
        print(f"loopexp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
