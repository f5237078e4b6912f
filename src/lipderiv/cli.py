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
from .harness import FAULTS, SuiteConfig, overall_ok, run_suite
from .scales import RadiusGrid, scale_profile, scale_summaries
from .zoo import make_entry

CONFIG_ENV = "LIPDERIV_CONFIG"


def _path(text) -> str:
    """A path: a string, where a number would name a file descriptor."""
    if not isinstance(text, str):
        raise TypeError("expected a path")
    return text


def _names(text) -> tuple:
    """Comma-separated names, blanks dropped."""
    if not isinstance(text, str):
        raise TypeError("expected comma-separated names")
    return tuple(s.strip() for s in text.split(",") if s.strip())


#: every option of a subcommand, by ``dest`` (the flag is ``--`` and the
#: dest with ``-`` for ``_``); its ``type`` also casts a config value
_OPTIONS = {
    "input": dict(type=_path, help="input CSV path"),
    "metric": dict(help="euclidean | manhattan | chebyshev"),
    "rmax": dict(type=float, help="largest radius of the scale grid"),
    "q": dict(type=float, help="geometric radius ratio in (0,1)"),
    "steps": dict(type=int, help="number of radii"),
    "tail": dict(type=int, help="tail window for limit estimates"),
    "h": dict(type=float, help="envelope/defect scale"),
    "gamma": dict(type=float, help="level-set threshold"),
    "seed": dict(type=int, help="random seed"),
    "suite": dict(type=_names, help="comma-separated suite names or 'all'"),
    "inject_fault": dict(choices=FAULTS,
                         help="self-test: force a failure in the named suite"),
    "zoo_resolution": dict(type=float),
    "random_spaces": dict(type=int),
    "entry": dict(help="entry name"),
    "resolution": dict(type=float),
    "out": dict(type=_path, help="output file path"),
    "report": dict(type=_path, help="JSON report path"),
    "timings": dict(action="store_true",
                    help="print the wall time of each stage (check: each "
                         "suite) and the total to stderr"),
}

#: the keys a config may set: every option that takes a value
CONFIG_KEYS = frozenset(k for k, o in _OPTIONS.items() if "action" not in o)


def _load_config(path):
    """The JSON object of the config file ``path``, if any; a key that
    names no option would set nothing, and is refused."""
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
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise InputError(f"config {path}: unknown key(s) {unknown}")
    return cfg


def _resolve(args, key, name=None) -> dict:
    """``{name: value}`` (``name`` defaults to ``key``) from the flag if
    given, else from the config; ``{}`` if neither gives it, so that the
    library's default applies.

    A config value is cast by the option's ``type``, which converts a
    number or a numeric string; null, a bool, and for ``int`` a number
    that is not integral, are refused rather than coerced.
    """
    val = getattr(args, key)
    if val is None:
        if key not in args._config:
            return {}
        val, cast = args._config[key], _OPTIONS[key].get("type")
        number = cast in (int, float)
        try:
            if number and (isinstance(val, bool) or cast is int and isinstance(
                    val, float) and not val.is_integer()):
                raise TypeError
            val = val if cast is None else cast(val)
        except (TypeError, ValueError) as exc:
            why = "" if number else f" ({exc})"
            raise InputError(f"bad value for {key}: {val!r}{why}") from None
    return {name or key: val}


def _require(args, key):
    if given := _resolve(args, key):
        return given[key]
    raise InputError(f"missing required option --{key}")


def _grid(args) -> RadiusGrid:
    return RadiusGrid(_require(args, "rmax"), **_resolve(args, "q"),
                      **_resolve(args, "steps"),
                      **_resolve(args, "tail", "tail_window"))


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
                             **_resolve(args, "metric"))
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
    cfg = SuiteConfig(**_resolve(args, "seed"), **_resolve(args, "suite"),
                      **_resolve(args, "inject_fault"),
                      **_resolve(args, "zoo_resolution"),
                      **_resolve(args, "random_spaces"))
    if report := _resolve(args, "report").get("report"):
        lio.check_writable(report)
    with _info_to_stderr() if args.timings else contextlib.nullcontext():
        results = run_suite(cfg)
    print(lio.summary_table(results))
    if report:
        lio.save_report(report, results)
    return 0 if overall_ok(results) else 1


def cmd_envelope(args) -> int:
    h = check_scale(_require(args, "h"))
    out = lio.check_writable(_require(args, "out"))
    space, values = lio.load_values(_require(args, "input"),
                                    **_resolve(args, "metric"))
    if values.ndim != 1:
        raise InputError("envelope input must be a scalar field")
    if h <= space.resolution():
        raise InputError("envelope scale h must exceed the input resolution")
    g = ScalarField(space, values)
    lio.save_scalar_field(out, baire_upper(g, h))
    lio.save_scalar_field(_sibling(out, ".lower"), baire_lower(g, h))
    return 0


def cmd_sets(args) -> int:
    t0 = time.perf_counter()
    gamma = lio.check_gamma(_require(args, "gamma"))
    out, grid = lio.check_writable(_require(args, "out")), _grid(args)
    f = lio.load_sampled_map(_require(args, "input"),
                             **_resolve(args, "metric"))
    seconds = {"load": time.perf_counter() - t0}
    summaries = scale_summaries(f, grid, seconds=seconds)
    t1 = time.perf_counter()
    lio.save_set_flags(out, summaries, gamma)
    seconds["write"] = time.perf_counter() - t1
    _log_stages(args, seconds, t0)
    return 0


def cmd_zoo_export(args) -> int:
    out = lio.check_writable(_require(args, "out"))
    res = _require(args, "resolution")
    entry = make_entry(_require(args, "entry"), res)
    if entry.space.coords is None:
        raise InputError(f"entry {entry.name!r} has no coordinate embedding")
    lio.save_point_cloud(out, entry.space.ids, entry.space.coords,
                         entry.map.values)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipderiv",
        description="Scale-indexed Lipschitz derivative estimation and "
                    "verification on finite metric data.")
    parser.add_argument("--config", default=os.environ.get(CONFIG_ENV),
                        help=f"JSON config file (default ${CONFIG_ENV}); "
                             "flags override")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the traceback of an internal error")

    def add(subparsers, name, func, text, options):
        p = subparsers.add_parser(name, help=text)
        for key in options.split():
            p.add_argument("--" + key.replace("_", "-"), **_OPTIONS[key])
        p.set_defaults(func=func)

    sub = parser.add_subparsers(dest="command", required=True)
    add(sub, "profile", cmd_profile, "scale profile of a sampled map",
        "input metric rmax q steps tail out timings")
    add(sub, "check", cmd_check, "run verification suites",
        "seed report timings suite inject_fault zoo_resolution random_spaces")
    add(sub, "envelope", cmd_envelope, "Baire envelopes of a scalar field",
        "input metric h out")
    add(sub, "sets", cmd_sets, "threshold membership flags per point",
        "input metric rmax q steps tail gamma out timings")
    zoo = sub.add_parser("zoo", help="built-in test functions")
    add(zoo.add_subparsers(dest="zoo_command", required=True), "export",
        cmd_zoo_export, "sample an entry to point-cloud CSV",
        "entry resolution out")
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
