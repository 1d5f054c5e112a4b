"""One child process of the benchmark, always on the checkout's own source.

    child.py setup P,N [P,N ...]                 import cycloff.cli, create fields
    child.py cli JOB TRACE_OUT -- ARGV...        one ``cycloff`` CLI invocation
    child.py divisors SEED OUT TRACE_OUT         one long divisor session

TRACE_OUT is ``-`` for an untraced child.  The checkout's ``src/`` goes first
on ``sys.path`` and the child refuses to run if ``cycloff`` resolves
anywhere else, since the package is not installed.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
sys.path.insert(0, SRC)


def _check_source():
    import cycloff
    where = os.path.realpath(cycloff.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"cycloff imported from {where}, not from {SRC}")


def _tracer(trace_out, job):
    if trace_out == "-":
        return None
    from spans import Tracer
    return Tracer(job).install()


def setup(fields):
    import cycloff.cli  # noqa: F401  (the import is what set-up pays)
    _check_source()
    from cycloff.gf import create_field
    for spec in fields:
        create_field(*map(int, spec.split(",")))


def cli(job, trace_out, argv):
    tracer = _tracer(trace_out, job)
    import cycloff.cli
    _check_source()
    code = cycloff.cli.main(argv)
    sys.stdout.flush()
    if tracer:
        tracer.dump(trace_out)
    return code


def divisors(seed, out, trace_out):
    import json
    from hashlib import sha256
    from time import perf_counter

    import draws
    tracer = _tracer(trace_out, "setup")
    _check_source()
    from cycloff.errors import CycloffError
    from cycloff.places import divisor
    curves = draws.standard_curves()
    work = draws.elements(curves, draws.session_order(int(seed)))

    results = []
    start = perf_counter()
    for key, e in work:
        if tracer:
            tracer.job = key
        t0 = perf_counter()
        try:
            d = divisor(e)
        except CycloffError as exc:
            d = exc
        results.append((key, perf_counter() - t0, d))
    wall = perf_counter() - start
    if tracer:
        tracer.job = "report"

    rows = []
    for key, elapsed, d in results:
        if isinstance(d, CycloffError):
            rows.append([key, elapsed, "!" + type(d).__name__, None])
        else:
            text = str(d).encode()
            rows.append([key, elapsed, sha256(text).hexdigest()[:16],
                         d.degree])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "jobs": rows}, fh)
    if tracer:
        tracer.dump(trace_out)
    return 0


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        return setup(args)
    if mode == "cli":
        job, trace_out, sep, *rest = args
        if sep != "--":
            sys.exit("usage: child.py cli JOB TRACE_OUT -- ARGV...")
        return cli(job, trace_out, rest)
    if mode == "divisors":
        return divisors(*args)
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
