"""Command-line front end: experiment orchestration and result persistence.

Subcommands: gen-graph, verify-identity, correction-decay, exponent-scan,
expander-check, criterion-report, entropy.  Every output embeds the tool
version, the resolved configuration, the master seed, and wall-clock info;
trials use RNG streams keyed by (master seed, trial index), so reruns with
the same config and seed reproduce identical scalar results.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 all trials diverged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (ALPHA_D_DEFAULT, ALPHA_MID_DEFAULT,
                     activity_bound_violations, scan_exponent)
from .bp import bethe_log_partition, solve_fixed_point, write_messages_csv
from .channel import (P_MIN, conditional_entropy_per_node, half_llr_magnitude,
                      sample_bsc)
from .exceptions import (AllTrialsDivergedError, BudgetError, DivergenceError,
                         PairingError)
from .graphs import (check_edge_expansion, enumerate_polymers, read_graph,
                     sample_regular_graph, write_graph)
from .loopseries import (ActivityTable, build_expansion_report,
                         convergence_criterion, scan_correction)
from .model import KINDS, FactorSpec, exact_log_partition


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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


def _to_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    return str(text).lower() in ("1", "true", "yes", "on")


def _int_list(text) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _float_list(text) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


class Cfg:
    """Flag values override config-file values override defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = {}
        if getattr(args, "config", None):
            self.file = _load_config_file(args.config)
        self.resolved = {}

    def get(self, name, conv, default):
        val = getattr(self.args, name, None)
        if val is None:
            raw = self.file.get(name)
            val = default if raw is None else conv(raw)
        elif conv in (_int_list, _float_list) and isinstance(val, str):
            val = conv(val)
        self.resolved[name] = val
        return val


def _meta(command: str, cfg: Cfg, master_seed, t0: float) -> dict:
    return {
        "tool_version": __version__,
        "format_version": 1,
        "command": command,
        "config": dict(sorted(cfg.resolved.items())),
        "master_seed": master_seed,
        "wallclock_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": round(time.monotonic() - t0, 3),
    }


def _write_summary_csv(path, meta: dict, header: list[str],
                       rows: list[list]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for key, val in meta.items():
            if key == "config":
                val = json.dumps(val, sort_keys=True)
            fh.write(f"# {key}={val}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _make_instance(kind: str, graph, *, p, eps, coupling, field_bound,
                   chan_seed):
    """FactorSpec for one trial plus the per-trial parameter echo."""
    if kind == "cycle-code":
        real = sample_bsc(graph, p, chan_seed)
        return FactorSpec.cycle_code(real.h), {"p": p}
    if kind == "softened-cycle-code":
        real = sample_bsc(graph, p, chan_seed)
        return FactorSpec.softened(real.h, eps), {"p": p, "eps": eps}
    if kind == "high-temperature":
        rng = np.random.default_rng(chan_seed)
        h = rng.uniform(-field_bound, field_bound, graph.num_edges)
        return (FactorSpec.high_temperature(h, coupling),
                {"J": coupling, "field_bound": field_bound})
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------- commands


def cmd_gen_graph(args) -> int:
    cfg = Cfg(args)
    n = cfg.get("n", int, 8)
    d = cfg.get("d", int, 3)
    seed = cfg.get("seed", int, 0)
    out = cfg.get("out", str, "graph.txt")
    t0 = time.monotonic()
    g = sample_regular_graph(n, d, seed)
    write_graph(g, out)
    meta = _meta("gen-graph", cfg, seed, t0)
    print(json.dumps({**meta, "n": g.n, "d": g.d, "num_edges": g.num_edges,
                      "components": len(g.components()), "path": str(out)}))
    return 0


def cmd_verify_identity(args) -> int:
    cfg = Cfg(args)
    n = cfg.get("n", int, 8)
    d = cfg.get("d", int, 3)
    model = cfg.get("model", str, "cycle-code")
    p = cfg.get("p", float, 0.45)
    eps = cfg.get("eps", float, 0.1)
    coupling = cfg.get("coupling", float, 0.05)
    field_bound = cfg.get("field_bound", float, 0.2)
    trials = cfg.get("trials", int, 10)
    seed = cfg.get("seed", int, 0)
    tol = cfg.get("tol", float, 1e-12)
    damping = cfg.get("damping", float, 0.5)
    max_sweeps = cfg.get("max_sweeps", int, 10_000)
    exact_cap = cfg.get("exact_cap", int, 26)
    scan_cap = cfg.get("scan_cap", int, 22)
    node_cap = cfg.get("node_cap", int, 0)
    mayer_max = cfg.get("mayer_max", int, 3)
    out_dir = Path(cfg.get("out_dir", str, "loopexp-verify"))
    graph_file = cfg.get("graph", str, "")
    save_messages = cfg.get("save_messages", _to_bool, False)
    if model not in KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    t0 = time.monotonic()
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    fixed_graph = read_graph(graph_file) if graph_file else None
    rows = []
    excluded = 0
    max_residual = 0.0
    for t in range(trials):
        g = fixed_graph if fixed_graph is not None else \
            sample_regular_graph(n, d, [seed, t, 0])
        spec, params = _make_instance(model, g, p=p, eps=eps,
                                      coupling=coupling,
                                      field_bound=field_bound,
                                      chan_seed=[seed, t, 1])
        msgs = solve_fixed_point(g, spec, tol=tol, damping=damping,
                                 max_sweeps=max_sweeps)
        report = build_expansion_report(
            g, spec, msgs, exact_cap=exact_cap, scan_cap=scan_cap,
            node_cap=node_cap or None, mayer_max=mayer_max,
            params={**params, "trial": t, "master_seed": seed,
                    "graph_seed": [seed, t, 0], "channel_seed": [seed, t, 1]})
        report.save_json(reports_dir / f"trial_{t:04d}.json")
        if save_messages:
            write_messages_csv(g, msgs, reports_dir / f"messages_{t:04d}.csv")
        residual = report.identity_residual()
        if msgs.converged and residual is not None:
            max_residual = max(max_residual, residual)
        else:
            excluded += 1
        rows.append([t, int(msgs.converged), msgs.sweeps,
                     _fmt(msgs.residual), _fmt(report.exact_log_z),
                     _fmt(report.bethe_total), _fmt(report.z_corr_all),
                     _fmt(report.ln_z_corr()), _fmt(residual),
                     _fmt(report.criterion)])
    meta = _meta("verify-identity", cfg, seed, t0)
    meta["excluded_not_converged"] = excluded
    _write_summary_csv(out_dir / "summary.csv", meta,
                       ["trial", "converged", "sweeps", "bp_residual",
                        "exact_log_z", "bethe_total", "z_corr",
                        "ln_z_corr", "identity_residual", "criterion"],
                       rows)
    print(f"trials={trials} converged={trials - excluded} "
          f"excluded={excluded} max_identity_residual={max_residual:.3e}")
    print(f"reports in {reports_dir}, summary in {out_dir / 'summary.csv'}")
    if trials and excluded == trials:
        raise AllTrialsDivergedError("no trial reached a BP fixed point")
    return 0


def cmd_correction_decay(args) -> int:
    cfg = Cfg(args)
    n_list = cfg.get("n_list", _int_list, [4, 6, 8, 10, 12])
    d = cfg.get("d", int, 3)
    model = cfg.get("model", str, "both")
    p = cfg.get("p", float, 0.48)
    coupling = cfg.get("coupling", float, 0.05)
    field_bound = cfg.get("field_bound", float, 0.2)
    eps = cfg.get("eps", float, 0.1)
    trials = cfg.get("trials", int, 50)
    seed = cfg.get("seed", int, 0)
    scan_cap = cfg.get("scan_cap", int, 22)
    out = cfg.get("out", str, "correction-decay.csv")
    kinds = list(KINDS[:1]) + [KINDS[2]] if model == "both" else [model]
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
    t0 = time.monotonic()
    rows = []
    total_converged = 0
    for kind in kinds:
        for n in n_list:
            vals = []
            excluded = 0
            for t in range(trials):
                g = sample_regular_graph(n, d, [seed, n, t, 0])
                spec, _ = _make_instance(kind, g, p=p, eps=eps,
                                         coupling=coupling,
                                         field_bound=field_bound,
                                         chan_seed=[seed, n, t, 1])
                msgs = solve_fixed_point(g, spec)
                if not msgs.converged:
                    excluded += 1
                    continue
                table = ActivityTable(g, spec, msgs)
                z = scan_correction(g, table, max_edges=scan_cap).z_all
                if z <= 0:
                    excluded += 1
                    continue
                vals.append(abs(math.log(z)) / n)
            total_converged += len(vals)
            mean = float(np.mean(vals)) if vals else math.nan
            stderr = (float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
                      if len(vals) > 1 else math.nan)
            rows.append([kind, n, trials, len(vals), excluded, mean, stderr])
    meta = _meta("correction-decay", cfg, seed, t0)
    _write_summary_csv(out, meta,
                       ["model", "n", "trials", "converged", "excluded",
                        "mean_abs_f_corr", "stderr"],
                       rows)
    for row in rows:
        print(f"model={row[0]} n={row[1]} mean|f_corr|={row[5]:.6g} "
              f"stderr={_fmt(row[6])}")
    print(f"table in {out}")
    if trials and total_converged == 0:
        raise AllTrialsDivergedError("no trial reached a BP fixed point")
    return 0


def cmd_exponent_scan(args) -> int:
    cfg = Cfg(args)
    d = cfg.get("d", int, 3)
    h = cfg.get("h", float, 0.1)
    step = cfg.get("step", float, 0.01)
    n = cfg.get("n", int, 0)
    alpha_d = cfg.get("alpha_d", float, ALPHA_D_DEFAULT)
    alpha_mid = cfg.get("alpha_mid", float, ALPHA_MID_DEFAULT)
    out = cfg.get("out", str, "exponent-surface.csv")
    t0 = time.monotonic()
    scan = scan_exponent(d, h, step, n=n or None,
                         alpha_d=alpha_d, alpha_mid=alpha_mid)
    meta = _meta("exponent-scan", cfg, None, t0)
    meta["config"] = json.dumps(meta["config"], sort_keys=True)
    scan.write_csv(out, meta=meta)
    print(f"argmax={scan.argmax} max={scan.max_value:.6g} "
          f"all_negative={scan.all_negative}")
    print(f"surface in {out}")
    return 0


def cmd_expander_check(args) -> int:
    cfg = Cfg(args)
    n = cfg.get("n", int, 14)
    d = cfg.get("d", int, 3)
    samples = cfg.get("samples", int, 200)
    kappa = cfg.get("kappa", float, 0.18 * d)
    seed = cfg.get("seed", int, 0)
    exhaustive_limit = cfg.get("exhaustive_limit", int, 20)
    subset_samples = cfg.get("subset_samples", int, 20_000)
    out = cfg.get("out", str, "expander-check.csv")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.monotonic()
    rows = []
    passed = 0
    for s in range(samples):
        g = sample_regular_graph(n, d, [seed, s, 0])
        verdict = check_edge_expansion(g, kappa,
                                       exhaustive_limit=exhaustive_limit,
                                       num_samples=subset_samples,
                                       seed=[seed, s, 1])
        ok = verdict.is_expander is True
        passed += ok
        rows.append([s, verdict.mode, _fmt(verdict.is_expander),
                     len(verdict.witness) if verdict.witness else ""])
    frac = passed / samples
    meta = _meta("expander-check", cfg, seed, t0)
    meta["pass_fraction"] = repr(frac)
    _write_summary_csv(out, meta,
                       ["sample", "mode", "is_expander", "witness_size"],
                       rows)
    print(f"samples={samples} kappa={kappa} pass_fraction={frac:.4f}")
    print(f"verdicts in {out}")
    return 0


def cmd_criterion_report(args) -> int:
    cfg = Cfg(args)
    n = cfg.get("n", int, 10)
    d = cfg.get("d", int, 3)
    model = cfg.get("model", str, "high-temperature")
    values = cfg.get("values", _float_list,
                     [0.01, 0.02, 0.05, 0.1, 0.15, 0.2])
    field_bound = cfg.get("field_bound", float, 0.2)
    eps = cfg.get("eps", float, 0.1)
    trials = cfg.get("trials", int, 10)
    seed = cfg.get("seed", int, 0)
    node_cap = cfg.get("cap", int, 8)
    alpha_d = cfg.get("alpha_d", float, ALPHA_D_DEFAULT)
    alpha_mid = cfg.get("alpha_mid", float, ALPHA_MID_DEFAULT)
    out = cfg.get("out", str, "criterion-report.csv")
    if model not in KINDS:
        raise ValueError(f"unknown model kind {model!r}")
    t0 = time.monotonic()
    rows = []
    threshold = None
    for vi, value in enumerate(values):
        crits = []
        violations = 0
        excluded = 0
        for t in range(trials):
            g = sample_regular_graph(n, d, [seed, vi, t, 0])
            kw = dict(p=value, eps=eps, coupling=value,
                      field_bound=field_bound)
            spec, _ = _make_instance(model, g, chan_seed=[seed, vi, t, 1],
                                     **kw)
            msgs = solve_fixed_point(g, spec)
            if not msgs.converged:
                excluded += 1
                continue
            catalog = enumerate_polymers(g, node_cap)
            table = ActivityTable(g, spec, msgs)
            acts = table.polymer_activities(catalog)
            crits.append(convergence_criterion(catalog, acts))
            h_sup = (half_llr_magnitude(value)
                     if model != "high-temperature" else field_bound)
            if h_sup > 0:
                try:
                    violations += len(activity_bound_violations(
                        catalog, acts, h_sup,
                        alpha_d=alpha_d, alpha_mid=alpha_mid))
                except ValueError:
                    violations = -1  # bound inapplicable at this h
        mean = float(np.mean(crits)) if crits else math.nan
        cmax = float(np.max(crits)) if crits else math.nan
        if threshold is None and crits and mean >= 1.0:
            threshold = value
        rows.append([value, trials, len(crits), excluded, mean, cmax,
                     violations])
    meta = _meta("criterion-report", cfg, seed, t0)
    meta["threshold_value"] = "" if threshold is None else repr(threshold)
    _write_summary_csv(out, meta,
                       ["value", "trials", "converged", "excluded",
                        "criterion_mean", "criterion_max",
                        "bound_violations"],
                       rows)
    for row in rows:
        print(f"value={row[0]} criterion_mean={row[4]:.6g} "
              f"criterion_max={row[5]:.6g}")
    print(f"threshold={'none observed' if threshold is None else threshold}")
    print(f"report in {out}")
    return 0


def cmd_entropy(args) -> int:
    cfg = Cfg(args)
    n = cfg.get("n", int, 8)
    d = cfg.get("d", int, 3)
    p = cfg.get("p", float, 0.45)
    trials = cfg.get("trials", int, 20)
    seed = cfg.get("seed", int, 0)
    exact_cap = cfg.get("exact_cap", int, 26)
    bits = cfg.get("bits", _to_bool, False)
    out = cfg.get("out", str, "entropy.csv")
    t0 = time.monotonic()
    unit = math.log(2.0) if bits else 1.0
    unit_name = "bits" if bits else "nats"
    rows = []
    f_vals = []
    excluded = 0
    for t in range(trials):
        g = sample_regular_graph(n, d, [seed, t, 0])
        real = sample_bsc(g, p, [seed, t, 1])
        spec = FactorSpec.cycle_code(real.h)
        msgs = solve_fixed_point(g, spec)
        if not msgs.converged:
            excluded += 1
            rows.append([t, 0, "", "", "", ""])
            continue
        f_bethe = bethe_log_partition(g, spec, msgs).total / g.n
        f_exact = (exact_log_partition(g, spec, max_edges=exact_cap) / g.n
                   if g.num_edges <= exact_cap else None)
        ent_b = conditional_entropy_per_node(f_bethe, p) / unit
        ent_e = (conditional_entropy_per_node(f_exact, p) / unit
                 if f_exact is not None else None)
        f_vals.append(f_bethe)
        rows.append([t, 1, f_bethe, _fmt(f_exact), ent_b, _fmt(ent_e)])
    meta = _meta("entropy", cfg, seed, t0)
    meta["excluded_not_converged"] = excluded
    meta["unit"] = unit_name
    _write_summary_csv(out, meta,
                       ["trial", "converged", "f_bethe", "f_exact",
                        "entropy_bethe", "entropy_exact"],
                       rows)
    if f_vals:
        mean_f = float(np.mean(f_vals))
        ent = conditional_entropy_per_node(mean_f, p) / unit
        se = (float(np.std(f_vals, ddof=1)) / math.sqrt(len(f_vals)) / unit
              if len(f_vals) > 1 else math.nan)
        print(f"trials={trials} converged={len(f_vals)} "
              f"H(X|Y)/n={ent:.6f} {unit_name} (stderr {se:.2g})")
    print(f"table in {out}")
    if trials and not f_vals:
        raise AllTrialsDivergedError("no trial reached a BP fixed point")
    return 0


# ---------------------------------------------------------------- parser


def _add_common(sp):
    sp.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    sp.add_argument("--config", help="key=value config file; flags override")


def build_parser() -> _Parser:
    parser = _Parser(prog="loopexp",
                     description="Loop-series and polymer-expansion "
                                 "experiments for cycle codes on the BSC.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-graph", help="sample a d-regular graph to a file")
    sp.add_argument("-n", type=int, help="nodes (default 8)")
    sp.add_argument("-d", type=int, help="degree (default 3)")
    sp.add_argument("-o", "--out", help="output path (default graph.txt)")
    _add_common(sp)
    sp.set_defaults(func=cmd_gen_graph)

    sp = sub.add_parser("verify-identity",
                        help="check ln Z = Bethe + ln Z_corr per trial")
    sp.add_argument("-n", type=int)
    sp.add_argument("-d", type=int)
    sp.add_argument("--model", choices=list(KINDS))
    sp.add_argument("-p", type=float, help="BSC flip probability")
    sp.add_argument("--eps", type=float, help="softening (softened kind)")
    sp.add_argument("--coupling", type=float, help="J (high-temperature kind)")
    sp.add_argument("--field-bound", type=float,
                    help="uniform field bound (high-temperature kind)")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--damping", type=float)
    sp.add_argument("--max-sweeps", type=int)
    sp.add_argument("--exact-cap", type=int)
    sp.add_argument("--scan-cap", type=int)
    sp.add_argument("--node-cap", type=int,
                    help="polymer node cap; 0 = all touched-node counts")
    sp.add_argument("--mayer-max", type=int)
    sp.add_argument("--graph", help="fixed graph file instead of sampling")
    sp.add_argument("--save-messages", action="store_const", const=True,
                    help="write fixed-point message CSVs next to reports")
    sp.add_argument("--out-dir")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify_identity)

    sp = sub.add_parser("correction-decay",
                        help="mean |ln Z_corr|/n versus n")
    sp.add_argument("--n-list", help="comma list, default 4,6,8,10,12")
    sp.add_argument("-d", type=int)
    sp.add_argument("--model",
                    choices=["both", *KINDS])
    sp.add_argument("-p", type=float)
    sp.add_argument("--coupling", type=float)
    sp.add_argument("--field-bound", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--scan-cap", type=int)
    sp.add_argument("-o", "--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_correction_decay)

    sp = sub.add_parser("exponent-scan",
                        help="grid scan of the large-n exponent over Delta")
    sp.add_argument("-d", type=int)
    sp.add_argument("--h", type=float)
    sp.add_argument("--step", type=float)
    sp.add_argument("-n", type=int, help="finite size; 0 = large-n limit")
    sp.add_argument("--alpha-d", type=float)
    sp.add_argument("--alpha-mid", type=float)
    sp.add_argument("-o", "--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_exponent_scan)

    sp = sub.add_parser("expander-check",
                        help="edge-expansion verdicts over sampled graphs")
    sp.add_argument("-n", type=int)
    sp.add_argument("-d", type=int)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--kappa", type=float, help="default 0.18*d")
    sp.add_argument("--exhaustive-limit", type=int)
    sp.add_argument("--subset-samples", type=int)
    sp.add_argument("-o", "--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_expander_check)

    sp = sub.add_parser("criterion-report",
                        help="convergence criterion along a parameter sweep")
    sp.add_argument("-n", type=int)
    sp.add_argument("-d", type=int)
    sp.add_argument("--model", choices=list(KINDS))
    sp.add_argument("--values", help="comma list of sweep values (J or p)")
    sp.add_argument("--field-bound", type=float)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--cap", type=int, help="polymer node cap (default 8)")
    sp.add_argument("--alpha-d", type=float)
    sp.add_argument("--alpha-mid", type=float)
    sp.add_argument("-o", "--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_criterion_report)

    sp = sub.add_parser("entropy",
                        help="conditional entropy per node from BP")
    sp.add_argument("-n", type=int)
    sp.add_argument("-d", type=int)
    sp.add_argument("-p", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--exact-cap", type=int)
    sp.add_argument("--bits", action="store_const", const=True,
                    help="report in bits instead of nats")
    sp.add_argument("-o", "--out")
    _add_common(sp)
    sp.set_defaults(func=cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AllTrialsDivergedError as exc:
        print(f"loopexp: {exc}", file=sys.stderr)
        return 3
    except (ValueError, BudgetError, PairingError, DivergenceError,
            OSError) as exc:
        print(f"loopexp: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
