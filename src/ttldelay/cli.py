"""Command-line front end: tree configs in, CSV tables out.

Subcommands
-----------
analyze     exact hit probability along a delay sweep
simulate    discrete-event estimates with confidence intervals
approx      renewal/poisson hierarchy approximation
lump-stats  state-count table for n symmetric sub-trees
fit-trace   phase-type fit of a request trace
bound       delay bound (and optional optimal-delay search) for near-periodic input

Tree configuration files are YAML; see configs/ for commented examples.  All
numbers in CSV output carry nine significant digits.  Errors print a single
``E_<CODE>: message`` line to stderr and exit nonzero.
"""

import argparse
import csv
import logging
import math
import secrets
import sys
import warnings

import numpy as np
import yaml

from ttldelay import distributions as dist
from ttldelay.approximation import hierarchy_approx
from ttldelay.errors import ConfigError, TTLDelayError
from ttldelay.metrics import delay_upper_bound, hit_probability, optimal_delay
from ttldelay.simulator import SimConfig, simulate
from ttldelay.spec import (
    CacheNode,
    CacheTreeSpec,
    lump_plus_width,
    partition_count,
    with_delay_means,
)
from ttldelay.trace_pipeline import (
    coxian_pdf,
    fit_ph_em,
    interarrivals,
    remove_outliers,
    select_phases,
)

LUMP_AUTO_THRESHOLD = 10_000
# libyaml's parser and emitter when PyYAML was built with them: the same
# documents, several times faster than the pure-Python ones.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

log = logging.getLogger(__name__)


# The exact engine needs SciPy's sparse linear algebra, which takes longer to
# import than everything else a command loads; the approximation, the
# simulator and the trace fitter need only NumPy.  So commands reach the engine
# through these two functions, which import it on their first call, and where
# perfbench's tracer wraps ``build_tree``; ``hit_probability`` imports it itself.
def build_tree(spec, **options):
    from ttldelay import hierarchy

    return hierarchy.build_tree(spec, **options)


def delay_pencil(spec, **options):
    from ttldelay import hierarchy

    return hierarchy.delay_pencil(spec, **options)


def _num(x):
    return f"{x:.9g}"


def parse_distribution(cfg, context):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError(f"{context}: distribution must be a mapping with a 'kind'")
    kind = cfg["kind"]
    try:
        if kind == "exponential":
            rate = cfg["rate"] if "rate" in cfg else 1.0 / cfg["mean"]
            return dist.Exponential(rate)
        if kind == "erlang":
            rate = cfg["rate"] if "rate" in cfg else cfg["phases"] / cfg["mean"]
            return dist.Erlang(cfg["phases"], rate)
        if kind == "coxian":
            return dist.Coxian(tuple(cfg["rates"]), tuple(cfg["continue_probs"]))
        if kind == "general-ph":
            return dist.GeneralPH(tuple(cfg["initial"]),
                                  tuple(map(tuple, cfg["subgenerator"])))
        if kind == "deterministic":
            return dist.Deterministic(float(cfg["value"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{context}: bad {kind} parameters: {exc}") from exc
    raise ConfigError(f"{context}: unknown distribution kind {kind!r}")


def parse_node(cfg, context="tree"):
    if not isinstance(cfg, dict) or "id" not in cfg:
        raise ConfigError(f"{context}: node must be a mapping with an 'id'")
    here = f"{context}/{cfg['id']}"
    children = cfg.get("children", [])
    if not isinstance(children, list):
        raise ConfigError(f"{here}: children must be a list of nodes")
    arrival = cfg.get("arrival")
    return CacheNode(
        id=str(cfg["id"]),
        ttl=parse_distribution(cfg.get("ttl"), f"{here}.ttl"),
        delay=parse_distribution(cfg.get("delay"), f"{here}.delay"),
        children=tuple(parse_node(c, here) for c in children),
        arrival=parse_distribution(arrival, f"{here}.arrival") if arrival else None,
    )


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse config {path}{where}: {exc}") from exc
    if not isinstance(raw, dict) or "tree" not in raw:
        raise ConfigError(f"config {path} must contain a top-level 'tree' mapping")
    spec = CacheTreeSpec(parse_node(raw["tree"])).validate(exact=False)
    ref = raw.get("reference_interarrival")
    if ref is None:
        leaves = spec.leaves()
        return spec, sum(leaf.arrival.mean() for leaf in leaves) / len(leaves)
    try:
        value = float(ref)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(
            f"config {path}: reference_interarrival must be finite and positive, "
            f"got {ref!r}"
        )
    return spec, value


def parse_sweep(text):
    """Parse ``tau_delta=<start:step:stop>`` into a list of values."""
    if text is None:
        return None
    name, _, rng = text.partition("=")
    if name.strip() != "tau_delta":
        raise ConfigError(f"unsupported sweep variable {name.strip()!r}")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigError("sweep range must be start:step:stop")
    start, step, stop = (float(p) for p in parts)
    if step <= 0 or not all(math.isfinite(v) for v in (start, step, stop)):
        raise ConfigError("sweep bounds must be finite with a positive step")
    if start < 0:
        raise ConfigError("sweep start must not be negative")
    if stop < start:
        raise ConfigError("sweep stop must not precede start")
    n = int(round((stop - start) / step))
    values = [start + k * step for k in range(n + 1)]
    if values[-1] > stop + 1e-12:
        values.pop()
    return values or [start]


def parse_counts(text, form="start:step:stop"):
    """Parse a ``form`` range of positive integers into a ``range``:
    ``start:step:stop`` for ``lump-stats --n``, ``lo:hi`` for
    ``fit-trace --phase-range``."""
    try:
        values = [int(p) for p in text.split(":")]
    except ValueError as exc:
        raise ConfigError(f"{form} range must be integers, got {text!r}") from exc
    if len(values) != form.count(":") + 1 or min(values) < 1 or values[-1] < values[0]:
        raise ConfigError(f"expected {form} of positive integers, got {text!r}")
    return range(values[0], values[-1] + 1, *values[1:-1])


def _write_csv(path, header, rows):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _write_sweep(path, header, spec, ref, values, point):
    """One CSV row per sweep value: the value, then ``point(tree, value)`` of
    the tree with every delay mean at ``value * ref``.  No sweep is one row at
    ``ref`` for the tree as configured, with ``value`` None."""
    if values is None:
        rows = [[_num(ref), *point(spec, None)]]
    else:
        rows = [[_num(v), *point(with_delay_means(spec, v * ref), v)] for v in values]
    _write_csv(path, ["sweep_value", *header], rows)


def cmd_analyze(args):
    spec, ref = load_config(args.config)
    spec.validate(exact=True)
    values = parse_sweep(args.sweep)
    if args.lump == "auto":
        lump = spec.state_count() > LUMP_AUTO_THRESHOLD
    else:
        lump = args.lump == "on"
    total = spec.total_request_rate()
    # One pencil, at the sweep's reference delay mean or as configured, gives
    # every point; its limit is the exact zero-delay chain behind eta.  Every
    # row reports the pencil's raw product space.
    base = spec if values is None else with_delay_means(spec, ref)
    pencil = delay_pencil(base, lump_per_level=lump)
    zero = pencil.limit()
    p_zero = hit_probability(zero, total)

    def point(_, value):
        if value == 0:
            p, system = p_zero, zero
        else:  # no sweep (None) reads the pencil at the configured delays
            system = pencil.at(1.0 / (value or 1.0))
            p = hit_probability(system, total)
        eta = 1.0 - p / p_zero if p_zero > 0 else math.nan
        return [_num(p), _num(eta), spec.state_count(), system.size]

    _write_sweep(
        args.out,
        ["p_hit_exact", "eta", "states_original", "states_lumped"],
        spec, ref, values, point,
    )


def cmd_simulate(args):
    spec, ref = load_config(args.config)
    values = parse_sweep(args.sweep)
    seed = args.seed if args.seed is not None else secrets.randbits(31)

    def point(swept, _):
        est = simulate(
            SimConfig(
                spec=swept,
                requests=args.requests,
                warmup_fraction=args.warmup,
                seed=seed,
                replications=args.replications,
            )
        )
        return [_num(est.p_hit), _num(est.half_width_95), seed, est.request_count]

    _write_sweep(
        args.out, ["p_hit_sim", "ci_half_width", "seed", "requests"],
        spec, ref, values, point,
    )


def cmd_approx(args):
    spec, ref = load_config(args.config)
    spec.validate(exact=True)
    values = parse_sweep(args.sweep)

    def point(swept, _):
        result = hierarchy_approx(swept, strategy=args.strategy)
        return [_num(result.p_hit_sys), result.strategy, ";".join(result.fallbacks)]

    _write_sweep(
        args.out, ["p_hit_approx", "strategy", "fallbacks"], spec, ref, values, point
    )


def cmd_lump_stats(args):
    spec, _ = load_config(args.config)
    spec.validate(exact=True)
    counts = parse_counts(args.n)
    m_s = spec.state_count()
    m_plus = lump_plus_width(spec.root)
    _write_csv(
        args.out,
        ["n", "raw_states", "lumped_states", "lump_plus_states"],
        [[n, m_s**n, partition_count(m_s, n), partition_count(m_plus, n)] for n in counts],
    )


def cmd_fit_trace(args):
    candidates = parse_counts(args.phase_range, "lo:hi")
    if args.bins < 1:
        raise ConfigError(f"--bins must be at least 1, got {args.bins}")
    try:
        # ``interarrivals`` reports an empty trace; NumPy's warning would be
        # a second stderr line.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            timestamps = np.loadtxt(args.trace, ndmin=1)
    except OSError as exc:
        raise ConfigError(f"cannot read trace {args.trace}: {exc}") from exc
    gaps = interarrivals(timestamps)
    before = gaps.size
    filtered = remove_outliers(gaps, cutoff=args.cutoff)
    if args.phases is not None:
        report = fit_ph_em(filtered, args.phases, sample_count_before=before)
    else:
        report = select_phases(filtered, candidates, sample_count_before=before)
    doc = {
        "phases": report.phases,
        "rates": [float(r) for r in report.fitted.rates],
        "continue_probs": [float(p) for p in report.fitted.continue_probs],
        "log_likelihood": float(report.log_likelihood),
        "log_likelihood_trace": [float(v) for v in report.log_likelihood_trace],
        "aic": float(report.aic),
        "bic": float(report.bic),
        "sample_count_before": report.sample_count_before,
        "sample_count_after": report.sample_count_after,
        "empirical_mean": float(report.empirical_mean),
        "fitted_mean": float(report.fitted_mean),
        "restarts_used": report.restarts_used,
        "converged": report.converged,
    }
    if not report.converged:
        log.warning(
            "EM stopped at its iteration limit (%d iterations) before converging",
            len(report.log_likelihood_trace),
        )
    text = yaml.dump(doc, Dumper=YAML_DUMPER, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.density_out:
        hist, edges = np.histogram(filtered, bins=args.bins, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pdf = coxian_pdf(report.fitted, centers)
        _write_csv(
            args.density_out,
            ["bin_center", "empirical_density", "fitted_density"],
            [[_num(c), _num(h), _num(p)] for c, h, p in zip(centers, hist, pdf)],
        )


def cmd_bound(args):
    bound = delay_upper_bound(args.tau_t)
    print(f"tau_delta_plus = {_num(bound)}")
    if args.search:
        spec = CacheTreeSpec(
            CacheNode(
                "cache",
                ttl=dist.Exponential(1.0 / args.tau_t),
                delay=dist.Exponential(1.0),
                arrival=dist.Erlang(20, 20.0),
            )
        )
        pencil = delay_pencil(spec)
        total = spec.total_request_rate()

        def p_hit(td):  # td = 0 is the pencil's exact zero-delay limit
            return hit_probability(pencil.at(1.0 / td) if td else pencil.limit(), total)

        # Near-periodic optima sit in the first alignment window of the
        # request period; the no-harm bound itself can be huge for tiny TTLs.
        delta_star, p_max, kappa = optimal_delay(p_hit, 0.0, 2.0)
        print(f"delta_star = {_num(delta_star)}")
        print(f"p_hit_max = {_num(p_max)}")
        print(f"kappa = {_num(kappa)}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ttldelay",
        description="TTL cache hierarchies under object fetch delays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="tree YAML file")
        p.add_argument("--out", help="output CSV path (default: stdout)")

    p = sub.add_parser("analyze", help="exact hit probability sweep")
    common(p)
    p.add_argument("--sweep", help="tau_delta=<start:step:stop>")
    p.add_argument("--lump", choices=("on", "off", "auto"), default="auto")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="discrete-event estimate sweep")
    common(p)
    p.add_argument("--sweep", help="tau_delta=<start:step:stop>")
    p.add_argument("--requests", type=int, default=1_000_000)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument("--seed", type=int, help="RNG seed (generated and recorded if absent)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("approx", help="hierarchy approximation sweep")
    common(p)
    p.add_argument("--sweep", help="tau_delta=<start:step:stop>")
    p.add_argument("--strategy", choices=("renewal", "poisson"), default="renewal")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("lump-stats", help="state counts for n symmetric sub-trees")
    common(p)
    p.add_argument("--n", default="1:1:10", help="subtree count range start:step:stop")
    p.set_defaults(func=cmd_lump_stats)

    p = sub.add_parser("fit-trace", help="fit a phase-type law to a trace")
    p.add_argument("--trace", required=True, help="timestamp file, one per line")
    p.add_argument("--phases", type=int, help="fixed phase count")
    p.add_argument("--phase-range", default="1:8", help="BIC selection range lo:hi")
    p.add_argument("--cutoff", type=float, default=2.0, help="outlier z-score cutoff")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--out", help="fit report YAML path (default: stdout)")
    p.add_argument("--density-out", help="histogram/density CSV path")
    p.set_defaults(func=cmd_fit_trace)

    p = sub.add_parser("bound", help="delay bound for near-periodic requests")
    p.add_argument("--tau-t", type=float, required=True)
    p.add_argument("--search", action="store_true",
                   help="also search the hit-maximizing delay (Erlang-20 input)")
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except TTLDelayError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"E_VALUE: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
