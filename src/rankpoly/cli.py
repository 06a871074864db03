"""Command-line surface: evaluation, counting, sampling, mixing experiments,
linear-width tools, modular reductions, and the identity selftest.

Exit codes: 0 success, 1 domain error (bad input values, limits, unreadable
files), 2 usage error.  All rational output is an exact fraction line
followed by a "~ <decimal>" approximation line.  Fixed inputs, flags, and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import chains, exact, graphio, graphs, reductions
from .chains import RC, RWS, ChainParams

if TYPE_CHECKING:
    from . import mixing


def _fraction(text: str) -> Fraction:
    return graphio.parse_fraction(text)


def _print_value(value: Fraction) -> None:
    print(graphio.format_fraction(value))
    try:
        approx = f"{float(value):.12g}"
    except OverflowError:  # past the float range: round to 12 digits in decimal
        ctx = decimal.Context(prec=12, Emax=decimal.MAX_EMAX)
        approx = f"{ctx.normalize(ctx.divide(value.numerator, value.denominator)):.12g}"
    print(f"~ {approx}")


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file path")
    p.add_argument(
        "--format",
        default="auto",
        choices=["auto", "edgelist", "json"],
        help="graph file format (default: sniff)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rankpoly",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate a partition function exactly")
    p.add_argument("poly", choices=["r2p", "r2", "zrc", "tutte"])
    _add_graph_arg(p)
    p.add_argument("--lambda", dest="lam", type=_fraction, help="rank weight (r2p, r2)")
    p.add_argument("--mu", type=_fraction, help="per-edge weight")
    p.add_argument("--q", type=_fraction, help="component weight (zrc)")
    p.add_argument("--x", type=_fraction, help="Tutte x")
    p.add_argument("--y", type=_fraction, help="Tutte y")
    p.add_argument("--max-edges", type=int, default=None, help="enumeration cap override")

    p = sub.add_parser("count", help="integer counting specialisations")
    p.add_argument(
        "what", choices=["bis", "pbis", "matchings", "perfect-matchings", "is"]
    )
    _add_graph_arg(p)
    p.add_argument("--eta", type=_fraction, help="permissive parameter (pbis)")
    p.add_argument("--max-edges", type=int, default=None)

    p = sub.add_parser("sample", help="run a single-bond-flip chain")
    p.add_argument("family", choices=[RWS, RC])
    _add_graph_arg(p)
    p.add_argument("--lambda", dest="lam", type=_fraction, help="rank weight / q alias")
    p.add_argument("--q", type=_fraction, help="component weight (rc)")
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burnin", type=int, default=0)
    p.add_argument("--thin", type=int, default=0, help="record every THIN-th state")
    p.add_argument(
        "--initial", default="empty", choices=["empty", "full", "random"]
    )

    p = sub.add_parser("mix", help="mixing diagnostics on the full state space")
    _add_graph_arg(p)
    p.add_argument("--family", required=True, choices=[RWS, RC])
    p.add_argument("--lambda", dest="lam", type=_fraction, help="rank weight / q alias")
    p.add_argument("--q", type=_fraction)
    p.add_argument("--mu", type=_fraction, required=True)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--empirical", type=int, metavar="N", help="N chain steps, histogram TV")
    p.add_argument(
        "--ordering",
        default="auto",
        help="'auto' (dfs on forests, else natural), 'dfs', 'natural', or 'file:PATH'",
    )
    p.add_argument("--seed", type=int, help="chain seed for --empirical (default 0)")
    p.add_argument(
        "--starts",
        choices=["policy", "trio", "all"],
        help="start states for tau (default 'policy', which sweeps all when m <= 12)",
    )
    p.add_argument("--csv-out", default=None, help="write the TV curve CSV here instead of stdout")

    p = sub.add_parser("lw", help="linear-width of an ordering")
    _add_graph_arg(p)
    p.add_argument("--ordering", help="'natural' (default), 'dfs', or 'file:PATH'")
    p.add_argument("--treedec", default=None, help="tree decomposition JSON (instead of --ordering)")
    p.add_argument("--optimal", action="store_true", help="exhaustive minimum over all orderings (no other flag)")
    p.add_argument("--verbose", action="store_true", help="also print the ordering and profile")

    p = sub.add_parser("reduce", help="modular reduction pipelines")
    rsub = p.add_subparsers(dest="pipeline", required=True)
    rp = rsub.add_parser("tutte")
    _add_graph_arg(rp)
    rp.add_argument("--x", type=_fraction, required=True)
    rp.add_argument("--y", type=_fraction, required=True)
    rp.add_argument("--prime-cap", type=int, default=reductions.DEFAULT_PRIME_CAP)
    rb = rsub.add_parser("bis")
    _add_graph_arg(rb)
    rb.add_argument("--eta", type=_fraction, required=True)
    rb.add_argument("--prime-cap", type=int, default=reductions.DEFAULT_PRIME_CAP)

    p = sub.add_parser("selftest", help="run the identity suites")
    p.add_argument("--quick", action="store_true", help="sub-second subset only")

    return ap


def _resolve_ordering(g: graphs.Graph, spec: str) -> mixing.EdgeOrdering:
    from . import mixing

    if spec == "auto":
        comps, _ = graphs.bfs_forest(g)
        spec = "dfs" if g.m == g.n - len(comps) else "natural"
    if spec == "natural":
        return mixing.natural_ordering(g)
    if spec == "dfs":
        return mixing.dfs_tree_ordering(g)
    if spec.startswith("file:"):
        perm = graphio.parse_ordering(spec[5:], g.m)
        return mixing.linear_width_of_ordering(g, perm)
    raise ValueError(f"unknown ordering {spec!r}")


def _weight(args, what: str, takes_q: bool) -> Fraction | None:
    """--lambda, or --q where ``what`` takes a component weight (--lambda
    is then its alias); a --q that would go unused, or both flags, is an
    error."""
    if args.q is None:
        return args.lam
    if not takes_q:
        raise ValueError(f"{what} takes --lambda, not --q")
    if args.lam is not None:
        raise ValueError(f"{what} takes --q or its alias --lambda, not both")
    return args.q


def _refuse_unused(what: str, *flags: tuple[str, object]) -> None:
    """A (flag, value) that ``what`` does not read, given anyway, is an
    error: it would change no output."""
    for flag, value in flags:
        if value is not None:
            raise ValueError(f"{what} does not take {flag}")


def _chain_setup(args, g: graphs.Graph, bip: graphs.BipartiteGraph | None):
    """(ChainParams, target graph) of --family, --lambda or --q, and --mu."""
    weight = _weight(args, args.family, args.family == RC)
    if weight is None:
        raise ValueError("need --lambda (or --q)")
    params = ChainParams(args.family, weight, args.mu)
    return params, graphio.require_bipartite(g, bip) if args.family == RWS else g


def _cmd_eval(args) -> int:
    exact._check_limit(0, args.max_edges)  # refuses a negative --max-edges
    if args.poly == "tutte":
        _refuse_unused("tutte", ("--lambda", args.lam), ("--q", args.q), ("--mu", args.mu))
        if args.x is None or args.y is None:
            raise ValueError("tutte needs --x and --y")
    else:
        _refuse_unused(args.poly, ("--x", args.x), ("--y", args.y))
        takes_q = args.poly == "zrc"
        weight = _weight(args, args.poly, takes_q)
        if weight is None or args.mu is None:
            raise ValueError(f"{args.poly} needs {'--q' if takes_q else '--lambda'} and --mu")
    g, bip = graphio.load_graph(args.graph, args.format)
    if args.poly == "tutte":
        _print_value(exact.tutte(g, args.x, args.y, args.max_edges))
    elif args.poly == "r2p":
        _print_value(exact.r2_prime(graphio.require_bipartite(g, bip), weight, args.mu, args.max_edges).value)
    elif args.poly == "r2":
        _print_value(exact.r2(g, weight, args.mu, args.max_edges).value)
    else:
        _print_value(exact.random_cluster(g, weight, args.mu, args.max_edges).value)
    return 0


def _cmd_count(args) -> int:
    exact._check_limit(0, args.max_edges)  # refuses a negative --max-edges
    if args.what == "is" and args.max_edges is not None:
        raise ValueError("count is enumerates no edge subsets; --max-edges does not apply")
    if args.what != "pbis":
        _refuse_unused(f"count {args.what}", ("--eta", args.eta))
    elif args.eta is None:
        raise ValueError("pbis needs --eta")
    g, bip = graphio.load_graph(args.graph, args.format)
    if args.what == "bis":
        b = graphio.require_bipartite(g, bip)
        _print_value(Fraction(exact.count_bis(b, args.max_edges)))
    elif args.what == "pbis":
        b = graphio.require_bipartite(g, bip)
        _print_value(exact.count_pbis_auto(b, args.eta, args.max_edges))
    elif args.what == "matchings":
        _print_value(Fraction(exact.count_matchings(g, args.max_edges)))
    elif args.what == "perfect-matchings":
        _print_value(Fraction(exact.count_perfect_matchings(g, args.max_edges)))
    else:
        _print_value(Fraction(exact.count_independent_sets(g)))
    return 0


def _cmd_sample(args) -> int:
    if args.burnin > 0 and args.thin == 0:
        raise ValueError("--burnin only delays recording; it needs --thin")
    g, bip = graphio.load_graph(args.graph, args.format)
    params, target = _chain_setup(args, g, bip)
    if args.initial == "empty":
        init = 0
    elif args.initial == "full":
        init = g.full_subset()
    else:
        from .rng import SplitMix64

        init = SplitMix64(args.seed ^ 0xA5A5A5A5).randbits(g.m) if g.m else 0
    result = chains.run(
        target, params, args.steps, args.seed, init, args.burnin, args.thin
    )
    for s in result.samples:
        print(f"{s:#x}")
    summary = {
        "steps": args.steps,
        "acceptance_rate": round(result.acceptance_rate, 6),
        "final_subset": f"{result.final.subset:#x}",
        "final_statistic": result.final.statistic,
        "retained": len(result.samples),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_mix(args) -> int:
    if not 0 < args.eps < 1:  # also false for nan and inf
        raise ValueError(f"eps must lie strictly between 0 and 1, got {args.eps}")
    if args.empirical is not None and args.empirical < 1:  # no step, no measured TV
        raise ValueError(f"--empirical must be at least 1, got {args.empirical}")
    if args.empirical is not None and args.csv_out:
        raise ValueError("--empirical draws no TV curve; --csv-out needs the exact mode")
    if args.empirical is None:
        _refuse_unused("mix without --empirical", ("--seed", args.seed))
    else:
        _refuse_unused("mix --empirical", ("--starts", args.starts))
    from . import mixing

    g, bip = graphio.load_graph(args.graph, args.format)
    params, target = _chain_setup(args, g, bip)
    ordering = _resolve_ordering(g, args.ordering)
    chain = mixing.ExactChain(target, params)

    tau = tv = None
    if args.empirical is not None:
        seed = 0 if args.seed is None else args.seed
        result = chains.run(target, params, args.empirical, seed, 0, 0, max(1, args.empirical // 10_000))
        tv = mixing.empirical_tv(chain, result.samples)
    else:
        trio = chain.trio()
        if args.starts == "all":
            starts = list(range(chain.n_states))
        elif args.starts == "trio":
            starts = trio
        else:
            starts = None
        tau = chain.mixing_time(args.eps, starts)
        curves = [chain.tv_curve(s, eps=args.eps) for s in trio]
        lines = ["step," + ",".join(f"tv_from_{s:#x}" for s in trio)]
        for t in range(max(len(c) for c in curves)):
            lines.append(f"{t}," + ",".join(f"{c[min(t, len(c) - 1)]:.6g}" for c in curves))
        text = "\n".join(lines)
        if args.csv_out:
            with open(args.csv_out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)

    ell = ordering.width
    if g.m <= mixing.CONGESTION_LIMIT:
        rho = chain.congestion(ordering).rho  # the states tau walked, not a second walk
    else:
        rho = mixing.congestion_bound(g, params, ell)
    bound = mixing.mixing_bound_from_congestion(rho, chain.pi_min(), args.eps)
    summary = {
        "family": args.family,
        "eps": args.eps,
        "ell": ell,
        "rho": graphio.format_fraction(rho),
        "bound": round(bound, 3),
        "tau": tau,
        "empirical_tv": tv,
        "bound_satisfied": (tau <= bound) if tau is not None else None,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_lw(args) -> int:
    from . import mixing

    if args.optimal:
        _refuse_unused(
            "lw --optimal",
            ("--ordering", args.ordering),
            ("--treedec", args.treedec),
            ("--verbose", args.verbose or None),
        )
    elif args.treedec:
        _refuse_unused("lw --treedec", ("--ordering", args.ordering))
    g, _ = graphio.load_graph(args.graph, args.format)
    if args.optimal:
        print(mixing.optimal_linear_width(g))
        return 0
    if args.treedec:
        td = graphio.load_tree_decomposition(args.treedec)
        ordering = mixing.treedec_ordering(g, td)
    else:
        ordering = _resolve_ordering(g, args.ordering or "natural")
    print(ordering.width)
    if args.verbose:
        print("ordering:", " ".join(map(str, ordering.perm)))
        print("profile:", " ".join(map(str, ordering.profile)))
    return 0


def _cmd_reduce(args) -> int:
    g, _ = graphio.load_graph(args.graph, args.format)
    if args.pipeline == "tutte":
        value, cert = reductions.tutte_via_oracle(g, args.x, args.y, args.prime_cap)
    else:
        value, cert = reductions.bis_via_pbis_oracle(g, args.eta, args.prime_cap)
    print(json.dumps(cert.to_dict(), sort_keys=True))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(quick=args.quick)
    ok = True
    for name, entry in report.items():
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"{name}: {status} ({entry['detail']})")
        ok &= entry["pass"]
    print(json.dumps({k: v["pass"] for k, v in report.items()}, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "count": _cmd_count,
        "sample": _cmd_sample,
        "mix": _cmd_mix,
        "lw": _cmd_lw,
        "reduce": _cmd_reduce,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.cmd](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
