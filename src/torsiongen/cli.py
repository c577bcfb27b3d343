"""Command-line surface: single-cell verification, grid sweeps, the Monte
Carlo estimator, the mapping-class pipeline, and genus/symplectic queries.

Exit codes: 0 pass; 1 when a cell fails or a `VerificationFailure` is
raised; 2 on a usage error or a `DomainError`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .cache import cache_dir, cache_key, get as cache_get, put as cache_put
from .curves import (
    build_action_four,
    build_action_three,
    certified_labels,
    certify_single_orbit,
    verify_lantern_hypotheses,
)
from .engine import classify, jordan_certificate
from .errors import (
    CaseUndefined,
    DomainError,
    InvalidParams,
    RangeError,
    TooLarge,
    VerificationFailure,
)
from .estimate import SAMPLERS, estimate_generation
from .families import (
    check_orders,
    conjecture_pair,
    miller_small_pair,
    prop61_generators,
    prop62_generators,
)
from .genus import decompose, stable_bound, theorem1_bound
from .lantern import verify_lantern_word
from .perms import is_even
from .report import STATUSES, ReportCell, SweepReport
from .sympl import generates_mod_p, humphries_classes, rotation_matrix, twist_transvection

# Family -> the name of its builder, which returns (gens, case_tag).
# `_build_family` looks the name up in this module when it is called, so a
# wrapper put over a builder here (the perfbench tracer's) sees every call.
_BUILDERS = {
    "prop61": "prop61_generators",
    "prop62": "prop62_generators",
    "miller": "miller_small_pair",
    "conjecture": "conjecture_pair",
}
_NAMESPACE = globals()
FAMILIES = tuple(_BUILDERS)

KNOWN_EXCEPTIONS = {(3, 6), (3, 7), (3, 8)}

# The most cells one sweep may ask for, far above the full published grid
# (k <= 30, n <= 200: 5166 cells); the check runs before the grid is built.
MAX_SWEEP_CELLS = 10**6


def _in_domain(family: str, k: int, n: int) -> bool:
    if family == "prop61":
        return k >= 3 and n >= 2 * k
    if family == "prop62":
        return k % 2 == 0 and k >= 4 and n >= k + 2
    if family == "miller":
        return 3 <= k <= n <= 2 * k - 1
    if family == "conjecture":
        return 3 <= k <= n
    raise InvalidParams(f"unknown family {family!r}")


def _build_family(family: str, k: int, n: int):
    if family not in _BUILDERS:
        raise InvalidParams(f"unknown family {family!r}")
    return _NAMESPACE[_BUILDERS[family]](k, n)


def _expected_kind(family: str, k: int, gens) -> str:
    if family == "prop62":
        return "alternating"
    if family in ("prop61", "miller"):
        return "symmetric" if k % 2 == 0 else "alternating"
    return "alternating" if all(is_even(g) for g in gens) else "symmetric"


def verify_cell(family: str, k: int, n: int) -> ReportCell:
    """Build one family instance, check orders, classify, compare against
    the parity-appropriate target."""
    start = time.perf_counter()
    gens, case_tag = _build_family(family, k, n)
    orders_ok = check_orders(gens, k)
    cls = classify(list(gens))
    expected = _expected_kind(family, k, gens)
    outcome = {
        "classification": str(cls),
        "kind": cls.kind,
        "expected": expected,
        "orders_ok": orders_ok,
        "case": case_tag,
    }
    if family == "prop61":
        witness = jordan_certificate(list(gens))
        outcome["witness"] = witness.word if witness else None
    matched = orders_ok and cls.kind == expected
    if (family == "conjecture") and (k, n) in KNOWN_EXCEPTIONS:
        status = "expected-fail" if not matched else "fail"
        outcome["known_exception"] = True
    else:
        status = "pass" if matched else "fail"
    return ReportCell.of(
        {"family": family, "k": k, "n": n},
        status,
        outcome,
        time.perf_counter() - start,
    )


def cmd_verify(family: str, k: int, n: int) -> SweepReport:
    if not _in_domain(family, k, n):
        raise RangeError(f"({k}, {n}) outside the {family} domain")
    cell = verify_cell(family, k, n)
    return SweepReport.of(
        "verify", {"family": family, "k": k, "n": n}, [cell], __version__
    )


def _sweep_one(args):
    family, k, n = args
    if not _in_domain(family, k, n):
        return ReportCell.of(
            {"family": family, "k": k, "n": n}, "skip", {"reason": "out-of-domain"}
        )
    try:
        return verify_cell(family, k, n)
    except CaseUndefined as exc:
        return ReportCell.of(
            {"family": family, "k": k, "n": n}, "skip", {"reason": str(exc)}
        )


def _valid_entry(cached, params: dict) -> bool:
    """A cache entry is usable only in the shape `ReportCell.as_dict` writes
    for the cell it is cached under: `params` as its params, a dict outcome
    and a known status.  Anything else is a miss, recomputed and
    overwritten."""
    return (
        isinstance(cached, dict)
        and {"params", "status", "outcome"} <= cached.keys()
        and cached["params"] == params
        and isinstance(cached["outcome"], dict)
        and cached["status"] in STATUSES
    )


def cmd_sweep(
    family: str,
    k_range: tuple[int, int],
    n_range: tuple[int, int],
    jobs: int = 1,
    cache_root=None,
) -> SweepReport:
    """Grid sweep, cached per cell, aggregated in (k, n) order regardless of
    completion order.  Each computed cell is cached as soon as it arrives,
    so an interrupted sweep keeps the cells finished before it.  At most
    one worker runs per uncached cell and per core, whatever `jobs` asks."""
    if k_range[0] > k_range[1] or n_range[0] > n_range[1]:
        raise InvalidParams(f"empty sweep range: k {k_range}, n {n_range}")
    size = (k_range[1] - k_range[0] + 1) * (n_range[1] - n_range[0] + 1)
    if size > MAX_SWEEP_CELLS:
        raise TooLarge(f"sweep of {size} cells exceeds the {MAX_SWEEP_CELLS}-cell bound")
    grid = [
        (family, k, n)
        for k in range(k_range[0], k_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
    ]
    root = cache_dir(cache_root)
    cells: dict[tuple[int, int], ReportCell] = {}
    hits: list[tuple[int, int]] = []
    todo = []
    for family_, k, n in grid:
        key = cache_key(__version__, f"verify/{family_}", {"k": k, "n": n})
        cached = cache_get(root, key)
        params = {"family": family_, "k": k, "n": n}
        if _valid_entry(cached, params):
            # params from the grid, not the entry: an entry's 5.0 equals 5
            # but would print as 5.0
            cells[(k, n)] = ReportCell.of(params, cached["status"], cached["outcome"])
            hits.append((k, n))
        else:
            todo.append((family_, k, n, key))
    work = [(f, k, n) for f, k, n, _ in todo]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_sweep_one, work)
        else:
            results = map(_sweep_one, work)
        for (_, k, n, key), cell in zip(todo, results):
            cells[(k, n)] = cell
            cache_put(root, key, cell.as_dict())
    if hits:
        # spot-check ~1% of cache hits against recomputation
        rng = random.Random(0)
        sample = rng.sample(hits, max(1, len(hits) // 100))
        for k, n in sample:
            fresh = _sweep_one((family, k, n))
            stale = cells[(k, n)]
            if (fresh.params, fresh.status, fresh.outcome) != (
                stale.params,
                stale.status,
                stale.outcome,
            ):
                raise VerificationFailure(
                    f"cache corruption detected at ({k}, {n}); clear the cache"
                )
    ordered = [cells[key] for key in sorted(cells)]
    return SweepReport.of(
        "sweep",
        {
            "family": family,
            "k_min": k_range[0],
            "k_max": k_range[1],
            "n_min": n_range[0],
            "n_max": n_range[1],
        },
        ordered,
        __version__,
    )


def cmd_estimate(k: int, n: int, trials: int, sampler: str, seed: int) -> SweepReport:
    res = estimate_generation(k, n, trials, sampler, seed)
    params = {"k": k, "n": n, "sampler": sampler, "trials": trials}
    cell = ReportCell.of(
        params,
        "pass",
        {
            "successes": res.successes,
            "estimate": res.estimate,
            "ci_low": res.ci_low,
            "ci_high": res.ci_high,
        },
    )
    return SweepReport.of("estimate", params, [cell], __version__, seed=seed)


def cmd_mcg(k: int, g: int, variant: str) -> SweepReport:
    """Full pipeline: decompose, build actions, lemma hypotheses, orbit
    certification, proof replay, homology rotation order."""
    if variant not in ("four", "three"):
        raise InvalidParams(f"variant must be four or three, got {variant!r}")
    dec = decompose(k, g, require_leading_k=(variant == "three" and k == 7))
    if dec is None:
        raise InvalidParams(f"genus {g} is not representable for k = {k}")
    cells = []

    def stage(name, status, **outcome):
        cells.append(
            ReportCell.of(
                {"k": k, "g": g, "variant": variant, "stage": name},
                status,
                outcome,
            )
        )

    stage(
        "decompose",
        "pass",
        a=dec.a,
        b=dec.b,
        plus_one=dec.plus_one,
    )
    builder = build_action_four if variant == "four" else build_action_three
    actions = builder(k, dec)  # UnsupportedK / PlusOneUnsupported -> exit 2
    stage("build_actions", "pass", generators=[a.name for a in actions])

    hyp = verify_lantern_hypotheses(actions)
    stage("lantern_hypotheses", "pass" if hyp else "fail", holds=hyp)

    labels = certified_labels(dec, with_alpha_l=(variant == "three"))
    components = certify_single_orbit(actions, labels)
    stage(
        "single_orbit",
        "pass" if components == 1 else "fail",
        components=components,
        labels=len(labels),
    )

    try:
        word = verify_lantern_word(actions)
        stage("lantern_word", "pass", word=str(word))
    except VerificationFailure as exc:
        stage("lantern_word", "fail", error=str(exc))

    rot = rotation_matrix(dec)
    order = rot.order(2 * k)
    stage("rotation_order", "pass" if order == k else "fail", order=order)

    return SweepReport.of(
        "mcg", {"k": k, "g": g, "variant": variant}, cells, __version__
    )


def cmd_genus(k: int, g: int) -> SweepReport:
    dec = decompose(k, g)
    outcome = {
        "representable": dec is not None,
        "stable_bound": stable_bound(k) if k >= 5 else None,
        "theorem1_bound": theorem1_bound(k) if k >= 6 else None,
    }
    if dec is not None:
        outcome.update(a=dec.a, b=dec.b, plus_one=dec.plus_one)
    cell = ReportCell.of({"k": k, "g": g}, "pass", outcome)
    return SweepReport.of("genus", {"k": k, "g": g}, [cell], __version__)


def cmd_sympl(k: int, g: int, p: int | None = None) -> SweepReport:
    dec = decompose(k, g)
    if dec is None:
        raise InvalidParams(f"genus {g} is not representable for k = {k}")
    rot = rotation_matrix(dec)
    order = rot.order(2 * k)
    cells = [
        ReportCell.of(
            {"k": k, "g": g, "stage": "rotation"},
            "pass" if order == k else "fail",
            {"order": order, "dim": 2 * g},
        )
    ]
    if p is not None:
        ts = [twist_transvection(g, v) for v in humphries_classes(g)]
        ok, count = generates_mod_p(ts, p)
        cells.append(
            ReportCell.of(
                {"k": k, "g": g, "stage": f"humphries_mod_{p}"},
                "pass" if ok else "fail",
                {"group_order": count, "generates": ok},
            )
        )
    return SweepReport.of("sympl", {"k": k, "g": g, "p": p}, cells, __version__)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand stores its
    handler as `run`; handlers look `cmd_*` up at call time."""
    parser = argparse.ArgumentParser(
        prog="torsiongen",
        description="Verification toolkit for order-k generating sets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(sp, run):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        # only sweep reads the cache; the option is accepted everywhere so
        # one command line shape works for every subcommand
        sp.add_argument("--cache-dir", default=None)
        sp.set_defaults(run=run)

    sp = sub.add_parser("verify", help="verify a single family instance")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    add_common(sp, lambda a: cmd_verify(a.family, a.k, a.n))

    sp = sub.add_parser("sweep", help="grid sweep over (k, n)")
    sp.add_argument("--family", choices=FAMILIES, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--k-max", type=int, default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--jobs", type=int, default=1)
    add_common(
        sp,
        lambda a: cmd_sweep(
            a.family,
            (a.k, a.k if a.k_max is None else a.k_max),
            (a.n, a.n if a.n_max is None else a.n_max),
            jobs=a.jobs,
            cache_root=a.cache_dir,
        ),
    )

    sp = sub.add_parser("estimate", help="Monte Carlo generation probability")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--sampler", choices=SAMPLERS, default="max_disjoint_k_cycles")
    sp.add_argument("--seed", type=int, default=0)
    add_common(sp, lambda a: cmd_estimate(a.k, a.n, a.trials, a.sampler, a.seed))

    sp = sub.add_parser("mcg", help="mapping-class pipeline for (k, g)")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--variant", choices=("four", "three"), required=True)
    add_common(sp, lambda a: cmd_mcg(a.k, a.g, a.variant))

    sp = sub.add_parser("genus", help="genus decomposition query")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    add_common(sp, lambda a: cmd_genus(a.k, a.g))

    sp = sub.add_parser("sympl", help="homology rotation / mod-p generation")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--p", type=int, default=None)
    add_common(sp, lambda a: cmd_sympl(a.k, a.g, a.p))

    return parser


def main(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except DomainError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except VerificationFailure as exc:
        err.write(f"error: {exc}\n")
        return 1
    out.write(report.to_csv() if args.format == "csv" else report.to_json())
    return 0 if report.ok() else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
