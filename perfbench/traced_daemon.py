"""The study-service daemon with the traced run's wrappers installed.

Runs the real command line, ``python -m repro.service serve --port 0
--cache-dir DIR``, with the span wrappers of :func:`instrument.traced`
around the scheduler and kernels, kernel phase timing on, and a
:class:`~instrument.TimedCache` slipped in below the daemon's in-flight
dedupe layer.  After a ``POST /shutdown`` it writes its per-layer numbers
and spans to ``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading

import harness
import instrument

harness.pin_environment()

import repro.service.__main__ as cli  # noqa: E402
import repro.service.daemon as daemon_module  # noqa: E402
from repro.service.dedupe import DedupingCache  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--cache-dir", required=True)
parser.add_argument("--trace-out", required=True)
parser.add_argument("--min-beyond", type=int, default=harness.MIN_BEYOND)
args = parser.parse_args()

tracer = harness.Tracer()


def timed_dedupe(inner, **kwargs):
    return DedupingCache(instrument.TimedCache(inner, tracer), **kwargs)


with instrument.traced(tracer) as profile, \
        instrument.patched(daemon_module, "DedupingCache", timed_dedupe):
    status = cli.main(["serve", "--port", "0", "--cache-dir", args.cache_dir])
    # POST /shutdown drains the service on a thread of its own.
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=60)

metrics = instrument.layer_metrics(tracer, profile)
metrics.update(instrument.cache_metrics(tracer, args.min_beyond))
with open(args.trace_out, "w", encoding="utf-8") as handle:
    json.dump({"metrics": metrics, "spans": tracer.dump()}, handle)
sys.exit(status)
