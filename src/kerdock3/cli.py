"""Command-line surface: reproducible, machine-readable artifacts.

Subcommands
-----------
field-info    polynomial, dual-basis Gram matrix, trace table
graph-census  pair-class census with closed-form comparison
chain         transition matrices (closed-form and empirical) + checks
spectra       eigenvalue report and mixing-time bounds
convergence   total-variation decay curves as CSV
sample        stream design samples as JSON lines
verify        run the small-m oracle suite, one pass/fail line per check

One format per artifact class: JSON lines for samples, CSV for curves
and matrices, plain key-value text for censuses and reports.  Identical
arguments and seed give byte-identical artifacts for any --threads.
Exit codes: 0 success, 1 failed checks (chain and verify add a
machine-readable failure list), 2 invalid arguments.

The default seed is 0, overridable by the KERDOCK3_SEED environment
variable; an explicit --seed flag wins over the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

import numpy as np

from . import unitary as un
from .gf2m import FieldContext, checked_int
from .graph import CHAINS, EdgeKind, PauliPair, census, classify_pair, state_name
from .kerdock import psl_elements, psl_to_symplectic
from .markov import (FULL_CHAIN_MAX_M, closed_form_failures, extract_r,
                     full_chain, lump_chain, mixing_time_bound,
                     mixing_time_report, q_empirical, spectral_report,
                     stationary_check, tv_curve)
from .pauli import (PauliIndex, omega_matrix, partial_hadamard_matrix,
                    transvection_matrix, vertex_split)
from .sampler import (SamplerConfig, pair_statistics_stream, sample_at,
                      sample_stream, write_jsonl)

__all__ = ["main", "build_parser"]

DEFAULT_M = 3
DEFAULT_EPSILON = 0.01
SEED_ENV = "KERDOCK3_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerdock3",
        description="Kerdock 2-designs and transvection-walk approximate "
                    "3-designs at the binary-symplectic level.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help, run, *, formats=("json", "text"), poly=True,
                threads=False, threads_help=None, walk=False):
        """A subcommand run by ``run(args)``, with only the flags it reads;
        ``walk`` adds --epsilon | --steps and --seed."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--m", type=int, default=DEFAULT_M,
                       help=f"field degree (default {DEFAULT_M})")
        if poly:
            p.add_argument("--poly", type=lambda s: int(s, 16), default=None,
                           metavar="HEX", help="primitive polynomial override, hex")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        if threads:
            p.add_argument("--threads", type=int, default=1, help=threads_help)
        if walk:
            g = p.add_mutually_exclusive_group()
            g.add_argument("--epsilon", type=float, default=None,
                           help="walk the mixing bound t(eps/N^3), N = 2^m (default 0.01)")
            g.add_argument("--steps", type=int, default=None)
            p.add_argument("--seed", type=int, default=None,
                           help=f"default 0, or ${SEED_ENV}; flag wins")
        return p

    chains = dict(choices=CHAINS + ("both",), default="both")
    bound_help = "mixing bound t(eps) (default %(default)s); sample and verify walk t(eps/N^3)"
    command("field-info", "field context tables", _cmd_field_info)
    command("graph-census", "pair-class census", _cmd_graph_census, threads=True)
    command("chain", "transition matrices and checks", _cmd_chain,
            formats=("json", "csv", "text")).add_argument("--chain", **chains)
    p = command("spectra", "eigenvalues and mixing bounds", _cmd_spectra)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help=bound_help)
    p.add_argument("--chain", **chains)
    p = command("convergence", "TV decay curves (CSV)", _cmd_convergence, formats=())
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help=bound_help)
    p.add_argument("--t-max", type=int, default=None)
    command("sample", "stream design samples (JSONL)", _cmd_sample, formats=(),
            poly=False, threads=True, walk=True,
            threads_help="worker threads (default 1); each sample holds the GIL, so "
                         "more threads do not speed sampling up; the output is the "
                         "same for any count"
            ).add_argument("--count", type=int, default=1, help="samples to stream (default 1)")
    command("verify", "oracle suite, pass/fail per check", _cmd_verify, formats=(),
            threads=True, walk=True
            ).add_argument("--count", type=int, default=200_000,
                           help="walks of the pair-statistics check (default 200000)")
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get(SEED_ENV, "0"))


def _walk_config(args) -> SamplerConfig:
    """--count walks of --epsilon | --steps, at DEFAULT_EPSILON when neither is given."""
    eps = DEFAULT_EPSILON if args.epsilon is None and args.steps is None else args.epsilon
    return SamplerConfig(args.m, _resolve_seed(args), args.count, eps, args.steps)


def _ctx(args) -> FieldContext:
    return FieldContext(args.m, poly=args.poly)


def _output(args):
    """--out opened for writing, or stdout, which stays open."""
    return open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)


def _chains(args):
    """The chains ``--chain`` names: CHAINS for "both", else the one named."""
    return CHAINS if args.chain == "both" else (args.chain,)


def _emit(args, text: str) -> None:
    with _output(args) as fh:
        fh.write(text)


def _mat_csv(name: str, mat: np.ndarray) -> str:
    lines = [f"# {name}"]
    lines += [",".join(str(int(x)) for x in row) for row in np.asarray(mat)]
    return "\n".join(lines) + "\n"


def _cmd_field_info(args) -> int:
    ctx = _ctx(args)
    if args.format == "json":
        obj = {
            "m": ctx.m,
            "poly": format(ctx.poly, "#x"),
            "order": ctx.order,
            "trace": [ctx.trace(x) for x in range(ctx.order)],
            "gram": ctx.w_matrix().tolist(),
            "dual_coords": [ctx.dual_coords(x) for x in range(ctx.order)],
        }
        _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return 0
    lines = [f"m = {ctx.m}",
             f"poly = {ctx.poly:#x}",
             f"order = {ctx.order}"]
    lines.append("trace = " + "".join(str(ctx.trace(x)) for x in range(ctx.order)))
    lines.append("gram_rows = " + " ".join(
        format(int(r), "#x") for r in ctx.w_rows))
    lines.append("dual_coords = " + " ".join(
        format(ctx.dual_coords(x), "#x") for x in range(ctx.order)))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_graph_census(args) -> int:
    ctx = _ctx(args)
    report = census(ctx, threads=args.threads)
    _emit(args, report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.matches_closed_form() else 1


def _cmd_chain(args) -> int:
    ctx = _ctx(args)
    failures: List[str] = []
    chunks: List[str] = []
    for chain in _chains(args):
        tm = q_empirical(ctx, chain)
        if args.format == "json":
            chunks.append(tm.to_json())
        elif args.format == "csv":
            chunks.append(f"# chain {chain}\n" + tm.to_csv())
        else:
            chunks.append(f"chain = {chain}\n"
                          f"states = {len(tm.states)}\n"
                          f"denominator = {tm.denominator}\n")
            chunks.append(_mat_csv(f"numerators ({chain})", tm.numerators))
            if chain == "edges":
                chunks.append(_mat_csv("R (4x transvection counts)", extract_r(tm)))
        if not stationary_check(tm):
            failures.append(f"{chain}:stationary")
        failures += [f"{chain}:{f}" for f in closed_form_failures(ctx, tm)]
    _emit(args, "".join(chunks) +
          ("" if args.format == "json" else
           f"checks = {'ok' if not failures else 'FAILED'}\n"))
    if failures:
        sys.stderr.write(json.dumps({"failures": failures}) + "\n")
        return 1
    return 0


def _cmd_spectra(args) -> int:
    ctx = _ctx(args)
    mix = mixing_time_report(ctx.m, args.epsilon)  # refuses epsilon before any chain
    out = []
    for chain in _chains(args):
        rep = spectral_report(q_empirical(ctx, chain))
        if args.format == "json":
            out.append(rep.to_json())
        else:
            out.append(f"chain = {chain}\n"
                       f"eigenvalues = "
                       f"{','.join(repr(float(v.real)) for v in rep.eigenvalues)}\n"
                       f"gap = {rep.gap!r}\n")
    if args.format == "json":
        out.append(json.dumps(mix, sort_keys=True) + "\n")
    else:
        out.append("".join(f"{k} = {v!r}\n" for k, v in sorted(mix.items())))
    _emit(args, "".join(out))
    return 0


def _cmd_convergence(args) -> int:
    ctx = _ctx(args)
    t_max = args.t_max if args.t_max is not None else mixing_time_bound(ctx.m, args.epsilon)
    checked_int("t_max", t_max, 0)  # before any chain is built
    lines = ["chain,start,t,tv"]
    for chain in CHAINS:
        tm = q_empirical(ctx, chain)
        curves = tv_curve(tm, np.eye(len(tm.states)), t_max)
        for state, curve in zip(tm.states, curves):
            name = state_name(state)
            for t, v in enumerate(curve):
                lines.append(f"{chain},{name},{t},{float(v)!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_sample(args) -> int:
    config = _walk_config(args)
    with _output(args) as fh:
        write_jsonl(sample_stream(config, threads=args.threads), fh)
    return 0


def _verify_checks(args):
    """(name, thunk) pairs; a thunk returns None (pass) or a failure string,
    or raises ``unitary.ConjugationFailure``, whose text is the failure.
    Both orbit chains are built here, once, for the checks that read them."""
    ctx = _ctx(args)
    m = ctx.m
    seed = _resolve_seed(args)
    chains = {chain: q_empirical(ctx, chain) for chain in CHAINS}
    checks = []

    def check(name):
        def wrap(fn):
            checks.append((name, fn))
            return fn
        return wrap

    @check("field-dual-bases")
    def _():
        for x in range(ctx.order):
            if ctx.dual_decode(ctx.dual_coords(x)) != x:
                return f"dual round-trip fails at {x:#x}"
            for y in range(ctx.order):
                if ctx.trace(ctx.mul(x, y)) != ctx.trace_product(x, y):
                    return f"duality identity fails at ({x:#x}, {y:#x})"
        return None

    @check("census-closed-form")
    def _():
        rep = census(ctx)
        return None if rep.matches_closed_form() else "census mismatch"

    @check("chain-closed-forms")
    def _():
        return "; ".join(f"{chain}:{f}" for chain, tm in chains.items()
                         for f in closed_form_failures(ctx, tm)) or None

    @check("chain-stationary-exact")
    def _():
        for chain, tm in chains.items():
            if not stationary_check(tm):
                return f"{chain} stationary check failed"
        return None

    @check("full-chain-lumping")
    def _():
        for chain, tm in chains.items():
            if lump_chain(ctx, full_chain(ctx, chain)) != tm:
                return f"{chain} lumping mismatch"
        return None

    @check("unitary-generators")
    def _():
        un.conjugation_check(ctx, un.hadamard_unitary(m), omega_matrix(m))
        for t in range(m + 1):
            un.conjugation_check(ctx, un.partial_hadamard_unitary(m, t),
                                 partial_hadamard_matrix(m, t))
        n = ctx.order
        for k in range(1, n * n):
            h = vertex_split(m, k)
            un.conjugation_check(ctx, un.transvection_unitary(ctx, h),
                                 transvection_matrix(ctx, h))
        return None

    @check("unitary-psl")
    def _():
        rng = np.random.default_rng(seed)
        gs = list(psl_elements(ctx))
        if m == 2:
            chosen = gs
        else:
            chosen = [gs[int(i)] for i in rng.integers(0, len(gs), size=25)]
        try:
            for g in chosen:
                un.conjugation_check(ctx, un.psl_unitary(ctx, g),
                                     psl_to_symplectic(ctx, g))
        except un.ConjugationFailure as exc:
            return f"psl {tuple(g)}: {exc}"
        return None

    @check("unitary-samples")
    def _():
        config = SamplerConfig(m=m, seed=seed, count=5, steps=8)
        for i in range(config.count):
            s = sample_at(config, i, ctx)
            un.conjugation_check(ctx, un.sample_unitary(ctx, s), s.composed)
        return None

    @check("pair-statistics")
    def _():
        # the first d whose pair ((1, 0), (0, d)) anticommutes
        d_anti = next(d for d in ctx.nonzero() if classify_pair(
            ctx, PauliPair(PauliIndex(1, 0), PauliIndex(0, d))) == EdgeKind.NON_EDGE)
        probes = [((ctx.alpha_power(1), 0), (1, 0)), ((1, 0), (0, d_anti))]
        rep = pair_statistics_stream(_walk_config(args), probes,
                                     threads=args.threads, ctx=ctx)
        for p in rep.probes:
            if p.tv_to_uniform > 0.05 + p.four_sigma():
                return (f"tv {p.tv_to_uniform:.4f} exceeds margin for "
                        f"{p.class_name}")
        return None

    if m == 2:
        @check("kerdock-frame-potential")
        def _():
            ens = un.kerdock_unitaries(ctx)
            f2 = un.frame_potential(ens, 2)
            f3 = un.frame_potential(ens, 3)
            if abs(f2 - 2.0) > 1e-8:
                return f"F2 = {f2!r}, want 2"
            if abs(f3 - un.collision_frame_potential_3(ctx, 0)) > 1e-8:
                return f"F3 = {f3!r} disagrees with closed form"
            return None

    return checks


def _cmd_verify(args) -> int:
    if args.m > FULL_CHAIN_MAX_M:
        raise ValueError(f"verify requires m <= {FULL_CHAIN_MAX_M} "
                         f"(markov.FULL_CHAIN_MAX_M, the full-chain-lumping cap)")
    checked_int("count", args.count, 1)  # the last check's walks, refused before the first
    failures = []
    lines = []
    for name, fn in _verify_checks(args):
        try:
            msg = fn()
        except un.ConjugationFailure as exc:
            msg = str(exc)
        if msg is None:
            lines.append(f"PASS {name}")
        else:
            lines.append(f"FAIL {name}: {msg}")
            failures.append({"check": name, "detail": msg})
    text = "\n".join(lines) + "\n"
    if failures:
        text += json.dumps({"failures": failures}, sort_keys=True) + "\n"
    _emit(args, text)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
