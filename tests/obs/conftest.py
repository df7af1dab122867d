"""What a reader can see of a recorder, in one dict.

The merge law (test_merge_law.py) and the observation pins
(test_probe_seam.py) compare recorders by their exports, not by the
in-memory shape of a snapshot: every text, JSON and DOT surface, the
stored causal tuples, the e2e sketch and the total / dropped books.
"""

import json

import pytest

from repro.obs import (
    Recorder,
    chrome_trace,
    flow_dot,
    flow_from_causal,
    format_lock_profile,
    format_sojourn,
    prometheus_exposition,
)

_EVENT_FIELDS = ("kind", "pid", "slot", "gen", "seqno", "length",
                 "t0", "t1", "t2", "t3", "blocks", "fcfs", "discard")


def _exports(rec: Recorder) -> dict[str, str]:
    out = {
        "prometheus": prometheus_exposition(rec),
        "chrome_trace": json.dumps(chrome_trace(rec), sort_keys=True),
        "lock_profile": format_lock_profile(rec),
    }
    books = [rec.total, rec.dropped_spans, len(rec.spans)]
    if rec.timeline is not None:
        out["timeline_doc"] = json.dumps(rec.timeline.to_doc(),
                                         sort_keys=True)
    c = rec.causal
    if c is not None:
        out["sojourn"] = format_sojourn(c)
        out["flow_dot"] = flow_dot(flow_from_causal(c))
        out["causal_events"] = repr(
            [tuple(getattr(e, f) for f in _EVENT_FIELDS) for e in c.events])
        out["e2e"] = repr(list(c.e2e))
        books += [c.total, c.dropped, c.stride]
    out["books"] = repr(tuple(books))
    return out


@pytest.fixture
def exports():
    """``exports(rec)``: every export of ``rec`` by name, as text."""
    return _exports
