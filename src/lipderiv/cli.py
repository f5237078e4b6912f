"""Command-line front-end: profile, check, envelope, sets, zoo export.

Every emitted number comes from a library call; the CLI parses inputs,
resolves configuration (config file values overridden by flags) and writes
files.  ``profile`` also spreads its points over forked workers
(``workers.fork_map``), one slab per usable CPU, each of which profiles its
slab and formats its rows; ``check`` forks inside ``run_suite``.

Exit codes: 0 success, 1 check failure, 2 input/config error, 3 internal
error (any other exception: one line, and the traceback under ``-v``).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import io as lio, workers
from .envelopes import ScalarField, baire_lower, baire_upper, check_scale
from .errors import InputError
from .harness import SuiteConfig, overall_ok, run_suite
from .scales import RadiusGrid, scale_profile, scale_summaries
from .zoo import make_entry

CONFIG_ENV = "LIPDERIV_CONFIG"

_DEFAULTS = {
    "metric": "euclidean",
    "q": 0.5,
    "steps": 8,
    "tail": 3,
    "seed": 7,
    "zoo_resolution": 0.02,
    "suite": "all",
    "random_spaces": 50,
}

#: the options that name files: a config value for one must be a string
_PATHS = ("input", "out", "report")

#: the suites ``check --inject-fault`` can force to fail
_FAULTS = ("chain", "openness")


def _load_config(path):
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"config {path} must be a JSON object")
    return cfg


def _resolve(args, key, cast=None):
    """Flag value if given, else config file value, else built-in default.

    ``cast`` converts a number or a numeric string; a bool, and for ``int``
    a number that is not integral, is refused rather than coerced.
    """
    val = getattr(args, key, None)
    if val is None:
        val = args._config.get(key, _DEFAULTS.get(key))
    if val is not None and cast is not None:
        try:
            if isinstance(val, bool) or (cast is int and isinstance(val, float)
                                         and not val.is_integer()):
                raise TypeError
            val = cast(val)
        except (TypeError, ValueError):
            raise InputError(f"bad value for {key}: {val!r}") from None
    if key in _PATHS and val is not None and not isinstance(val, str):
        raise InputError(f"bad value for {key}: {val!r} (expected a path)")
    return val


def _require(args, key, cast=None):
    val = _resolve(args, key, cast)
    if val is None:
        raise InputError(f"missing required option --{key}")
    return val


def _grid(args) -> RadiusGrid:
    return RadiusGrid(_require(args, "rmax", float),
                      _resolve(args, "q", float),
                      _resolve(args, "steps", int),
                      _resolve(args, "tail", int))


def _sibling(path: str, suffix: str) -> str:
    root, ext = os.path.splitext(path)
    return root + suffix + (ext or ".csv")


def _slabs(f) -> list:
    """The point indices of ``f`` cut into one slab of equal count per
    usable CPU, by a stable sort on the first coordinate, so that each
    slab's balls overlap and the ``loc`` groups stay dense; one slab of
    every point, in index order, on a line or on one CPU."""
    n, parts = f.domain.n, min(workers.usable_cpus(), f.domain.n)
    if parts < 2 or f.domain.line_order is not None:
        return [range(n)]
    order = f.domain.coords[:, 0].argsort(kind="stable").tolist()
    return [order[k * n // parts:(k + 1) * n // parts]
            for k in range(parts)]


def _slab_rows(f, grid, slab) -> tuple:
    """The profile and summary texts of the points ``slab``, one per point
    (``io.profile_rows``, ``io.summary_rows``), and the stage times."""
    stages = {}
    profile = scale_profile(f, grid, [f.domain.ids[i] for i in slab],
                            seconds=stages)
    return (lio.profile_rows(profile), lio.summary_rows(profile.summaries),
            stages)


def cmd_profile(args) -> int:
    """One slab: profile in process and stream it to disk.  More: each
    forked slab formats its own rows, and this process puts them back in
    point order and writes them.  No float depends on the split (see
    ``scale_profile``), so the files are the same byte for byte."""
    t0 = time.perf_counter()
    out, grid = lio.check_writable(_require(args, "out")), _grid(args)
    f = lio.load_sampled_map(_require(args, "input"),
                             _resolve(args, "metric"))
    seconds = {"load": time.perf_counter() - t0}
    slabs = _slabs(f)
    if len(slabs) == 1:
        profile = scale_profile(f, grid, seconds=seconds)
        t1 = time.perf_counter()
        lio.save_profile(out, profile)
        lio.save_summary(_sibling(out, ".summary"), profile)
    else:
        done = workers.fork_map(lambda slab: _slab_rows(f, grid, slab),
                                slabs, len(slabs))
        t1 = time.perf_counter()
        # the slowest slab's scan; the rest of the wait is its loc and rows
        seconds["scan"] = max(stages["scan"] for *_, stages in done)
        seconds["loc"] = t1 - t0 - seconds["load"] - seconds["scan"]
        rows, summaries = [None] * f.domain.n, [None] * f.domain.n
        for slab, (slab_rows, slab_summaries, _) in zip(slabs, done):
            for i, row, summary in zip(slab, slab_rows, slab_summaries):
                rows[i], summaries[i] = row, summary
        lio.save_rows(out, lio.PROFILE_HEADER, rows)
        lio.save_rows(_sibling(out, ".summary"), lio.SUMMARY_HEADER,
                      summaries)
    seconds["write"] = time.perf_counter() - t1
    _log_stages(args, seconds, t0)
    return 0


@contextlib.contextmanager
def _info_to_stderr():
    """Print the library's INFO log records to stderr while active."""
    import logging
    logger = logging.getLogger("lipderiv")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _log_stages(args, seconds, t0):
    """Under ``--timings``, print each stage's wall time in ``seconds`` and
    the total since ``t0`` to stderr, as ``check --timings`` does."""
    if not args.timings:
        return
    # logging is imported here: at module level it would slow every command
    import logging
    # named, since under ``python -m`` this module is ``__main__``
    log = logging.getLogger("lipderiv.cli")
    with _info_to_stderr():
        for stage, s in seconds.items():
            log.info("stage %s: %.3f s", stage, s)
        log.info("total: %.3f s", time.perf_counter() - t0)


def cmd_check(args) -> int:
    suite = _resolve(args, "suite")
    if not isinstance(suite, str):
        raise InputError(f"bad value for suite: {suite!r} "
                         "(expected comma-separated names)")
    fault = _resolve(args, "inject_fault")
    if fault is not None and fault not in _FAULTS:
        raise InputError(f"bad value for inject_fault: {fault!r} "
                         f"(expected one of {', '.join(_FAULTS)})")
    cfg = SuiteConfig(
        seed=_resolve(args, "seed", int),
        suite=tuple(s.strip() for s in suite.split(",") if s.strip()),
        inject_fault=fault,
        zoo_resolution=_resolve(args, "zoo_resolution", float),
        random_spaces=_resolve(args, "random_spaces", int))
    report = _resolve(args, "report")
    if report:
        lio.check_writable(report)
    with _info_to_stderr() if args.timings else contextlib.nullcontext():
        results = run_suite(cfg)
    print(lio.summary_table(results))
    if report:
        lio.save_report(report, results)
    return 0 if overall_ok(results) else 1


def cmd_envelope(args) -> int:
    h = check_scale(_require(args, "h", float))
    out = lio.check_writable(_require(args, "out"))
    path = _require(args, "input")
    ids, coords, values = lio.load_point_cloud(path)
    if values is None:
        raise InputError("envelope input needs a val column")
    if values.ndim != 1:
        raise InputError("envelope input must be a scalar field")
    space = lio.embedded_space(path, ids, coords, _resolve(args, "metric"))
    if h <= space.resolution():
        raise InputError("envelope scale h must exceed the input resolution")
    g = ScalarField(space, values)
    lio.save_scalar_field(out, baire_upper(g, h))
    lio.save_scalar_field(_sibling(out, ".lower"), baire_lower(g, h))
    return 0


def cmd_sets(args) -> int:
    t0 = time.perf_counter()
    gamma = lio.check_gamma(_require(args, "gamma", float))
    out, grid = lio.check_writable(_require(args, "out")), _grid(args)
    f = lio.load_sampled_map(_require(args, "input"),
                             _resolve(args, "metric"))
    seconds = {"load": time.perf_counter() - t0}
    summaries = scale_summaries(f, grid, seconds=seconds)
    t1 = time.perf_counter()
    lio.save_set_flags(out, summaries, gamma)
    seconds["write"] = time.perf_counter() - t1
    _log_stages(args, seconds, t0)
    return 0


def cmd_zoo_export(args) -> int:
    out = lio.check_writable(_require(args, "out"))
    res = _require(args, "resolution", float)
    entry = make_entry(_require(args, "entry"), res)
    f = entry.map
    if f.domain.coords is None:
        raise InputError(f"entry {entry.name!r} has no coordinate embedding")
    lio.save_point_cloud(out, f.domain.ids,
                         f.domain.coords, f.values)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipderiv",
        description="Scale-indexed Lipschitz derivative estimation and "
                    "verification on finite metric data.")
    parser.add_argument("--config", help="JSON config file; flags override")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the traceback of an internal error")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        opts = {
            "input": dict(help="input CSV path"),
            "metric": dict(help="euclidean | manhattan | chebyshev"),
            "rmax": dict(type=float, help="largest radius of the scale grid"),
            "q": dict(type=float, help="geometric radius ratio in (0,1)"),
            "steps": dict(type=int, help="number of radii"),
            "tail": dict(type=int, help="tail window for limit estimates"),
            "h": dict(type=float, help="envelope/defect scale"),
            "gamma": dict(type=float, help="level-set threshold"),
            "seed": dict(type=int, help="random seed"),
            "out": dict(help="output file path"),
            "report": dict(help="JSON report path"),
            "timings": dict(action="store_true",
                            help="print the wall time of each stage (check: "
                                 "each suite) and the total to stderr"),
        }
        for name in names:
            p.add_argument(f"--{name}", **opts[name])

    p = sub.add_parser("profile", help="scale profile of a sampled map")
    shared(p, "input", "metric", "rmax", "q", "steps", "tail", "out",
           "timings")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("check", help="run verification suites")
    shared(p, "seed", "report", "timings")
    p.add_argument("--suite", help="comma-separated suite names or 'all'")
    p.add_argument("--inject-fault", dest="inject_fault",
                   choices=_FAULTS,
                   help="self-test: force a failure in the named suite")
    p.add_argument("--zoo-resolution", dest="zoo_resolution", type=float)
    p.add_argument("--random-spaces", dest="random_spaces", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("envelope", help="Baire envelopes of a scalar field")
    shared(p, "input", "metric", "h", "out")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("sets", help="threshold membership flags per point")
    shared(p, "input", "metric", "rmax", "q", "steps", "tail", "gamma", "out",
           "timings")
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("zoo", help="built-in test functions")
    zsub = p.add_subparsers(dest="zoo_command", required=True)
    pz = zsub.add_parser("export", help="sample an entry to point-cloud CSV")
    pz.add_argument("--entry", help="entry name")
    pz.add_argument("--resolution", type=float)
    shared(pz, "out")
    pz.set_defaults(func=cmd_zoo_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _load_config(args.config)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if args.verbose:
            import traceback
            traceback.print_exc()
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
