"""Self times from the harness's span trace (Chrome-trace JSON)."""

import json

# Timestamps are written in microseconds with 6 decimals; a child may read
# as ending this much after its parent from rounding alone.
CONTAIN_EPS_S = 1e-9


def load_spans(path):
    """Spans as dicts {id, name, start, end, parent, item}, in seconds."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [{"name": e["name"], "start": 1e-6 * e["ts"],
              "end": 1e-6 * (e["ts"] + e["dur"]),
              "item": int(e.get("args", {}).get("item", -1))}
             for e in events if e.get("ph") == "X"]
    return assign_parents(spans)


def assign_parents(spans):
    """Number the spans and give each the id of the innermost span that
    contains it (-1 for none). Valid for strictly nested spans, as one
    thread's RAII spans are."""
    for i, s in enumerate(spans):
        s["id"] = i
    open_spans = []
    for s in sorted(spans, key=lambda s: (s["start"], -s["end"])):
        while open_spans and not (
                open_spans[-1]["start"] <= s["start"]
                and s["end"] <= open_spans[-1]["end"] + CONTAIN_EPS_S):
            open_spans.pop()
        s["parent"] = open_spans[-1]["id"] if open_spans else -1
        open_spans.append(s)
    return spans


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span id: its duration minus the part of it its children cover.

    Children are clipped to their parent's interval, so a child that
    (wrongly) outlives its parent cannot drive the parent's self time below
    zero.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None and s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out


def self_time_by_name(spans):
    """Summed self time per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals
