"""Fixed-seed pin of the observed path: spans and flat trace together.

``python -m repro trace migration`` and ``python -m repro critpath
migration`` run the CLI's built-in two-migration scenario
(``cli._trace_builtin_migration``) inside ``cli._CaptureClusters``,
which installs ``ClusterObservability`` with spans and the flat tracer
both on.  This test runs both commands and pins the sha256 of four of their
outputs:

* ``trace.jsonl`` — ``trace_to_jsonl(records)``, every flat record and
  every mirrored ``kind="span"`` record;
* ``trace_chrome.json`` re-serialised as
  ``json.dumps(spans_to_chrome_trace(spans), sort_keys=True)``;
* the ``critpath`` report — ``critpath_report(spans)``;
* ``metrics.json`` as written — the merged ``MetricsRegistry``
  snapshot with the per-service RPC and per-kind LAN counts.

The golden test in ``test_engine_determinism.py`` runs with spans off,
and ``test_obs.py`` only compares two runs with each other, so this is
the one pin on a run with spans on.  Going through the CLI keeps the
test independent of where the spans are stored.

If an intended behaviour change moves a hash, print the new values
with ``PYTHONPATH=src python -m tests.test_observed_trace``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from repro.cli import main as cli_main

PINNED = {
    "trace_jsonl":
        "29e0a44bcee3f905f45d3816f02406aabba3db694c62cf2619c62aaa6448439b",
    "chrome_trace":
        "b95d0746549f082afbef35dcb4d95c86c97cbcfa78dcf0e31123e455ceb887d1",
    "critpath_report":
        "c1bfe38f7eec1a094790f7e6438c763011163dfd7f7d6712ca43d3851ff8fcc2",
    "metrics_json":
        "a1f3a698da4cb76924e6973bf4d3c948c65b851d02d4222b29664b327dd85324",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observed_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli_main(["trace", "migration", "--out", str(out)]) == 0
            assert cli_main(["critpath", "migration",
                             "--out", str(out / "critpath.txt")]) == 0
        chrome = json.loads((out / "trace_chrome.json").read_text())
        report = (out / "critpath.txt").read_text()
        assert report.endswith("\n")
        return {
            "trace_jsonl": _sha256((out / "trace.jsonl").read_text()),
            "chrome_trace": _sha256(json.dumps(chrome, sort_keys=True)),
            "critpath_report": _sha256(report[:-1]),
            "metrics_json": _sha256((out / "metrics.json").read_text()),
        }


def test_observed_trace_is_pinned():
    assert observed_digests() == PINNED


if __name__ == "__main__":
    print(json.dumps(observed_digests(), indent=1))
