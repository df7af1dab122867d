"""Message flow graphs: pid → LNVC → pid edges with byte/message weights.

MP net-style reconstruction of a run's communication structure: processes
and circuits become nodes, send connections and receives become weighted
edges.  Two builders feed the same graph shape:

* :func:`flow_from_causal` — exact weights from a
  :class:`~repro.obs.causal.CausalTracer`'s traffic counts (message
  counts and byte totals on every edge, whatever its sample stored);
* :func:`flow_from_segment` — a point-in-time approximation from a
  :class:`~repro.core.inspect.SegmentInfo` snapshot (connection topology
  plus per-receiver read counts and currently queued messages), for
  segments that were never traced — this is what ``mpf-inspect --flow``
  prints.

Export: deterministic Graphviz DOT (:func:`flow_dot`).  :func:`check_dot`
is the well-formedness gate used by the tests and the CI trace smoke.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.inspect import SegmentInfo
    from .causal import CausalTracer

__all__ = [
    "FlowGraph",
    "flow_from_causal",
    "flow_from_segment",
    "flow_dot",
    "check_dot",
]


@dataclass
class FlowGraph:
    """A bipartite pid/LNVC multigraph with message and byte weights.

    Keys: LNVC nodes are ``(slot, gen)`` pairs; edge keys pair a pid with
    an LNVC node.  Weights are ``[messages, bytes]`` lists (bytes stay 0
    where the builder cannot know them, e.g. segment-snapshot reads).
    """

    #: ``(slot, gen) -> label`` (circuit name when known).
    lnvcs: dict[tuple[int, int], str] = field(default_factory=dict)
    #: ``(pid, (slot, gen)) -> [messages, bytes]`` — pid sends into LNVC.
    sends: dict[tuple[int, tuple[int, int]], list[int]] = field(
        default_factory=dict)
    #: ``((slot, gen), pid) -> [messages, bytes]`` — pid receives from LNVC.
    recvs: dict[tuple[tuple[int, int], int], list[int]] = field(
        default_factory=dict)

    def add_send(self, pid: int, lnvc: tuple[int, int],
                 msgs: int = 0, nbytes: int = 0) -> None:
        w = self.sends.setdefault((pid, lnvc), [0, 0])
        w[0] += msgs
        w[1] += nbytes
        self.lnvcs.setdefault(lnvc, f"lnvc{lnvc[0]}")

    def add_recv(self, lnvc: tuple[int, int], pid: int,
                 msgs: int = 0, nbytes: int = 0) -> None:
        w = self.recvs.setdefault((lnvc, pid), [0, 0])
        w[0] += msgs
        w[1] += nbytes
        self.lnvcs.setdefault(lnvc, f"lnvc{lnvc[0]}")


def flow_from_causal(tracer: "CausalTracer") -> FlowGraph:
    """Exact flow weights from a tracer's traffic counts."""
    g = FlowGraph()
    for kind, pid, lnvc, msgs, nbytes in tracer.traffic():
        if kind == "send":
            g.add_send(pid, lnvc, msgs, nbytes)
        else:
            g.add_recv(lnvc, pid, msgs, nbytes)
    return g


def flow_from_segment(info: "SegmentInfo") -> FlowGraph:
    """Point-in-time flow from an inspected segment.

    Topology comes from the connection lists (zero-weight edges keep
    unused connections visible); weights come from per-receiver read
    counts and the senders of currently queued messages.  Byte weights
    are known only for queued messages — past traffic left no per-pid
    byte trail in the segment.
    """
    from ..core.ops import decode_lnvc_id

    g = FlowGraph()
    for circ in info.circuits:
        lnvc = decode_lnvc_id(circ.lnvc_id)
        g.lnvcs[lnvc] = circ.name or f"lnvc{lnvc[0]}"
        for conn in circ.connections:
            if conn.kind == "send":
                g.add_send(conn.pid, lnvc)
            else:
                g.add_recv(lnvc, conn.pid, msgs=conn.reads)
        for msg in circ.messages:
            g.add_send(msg.sender, lnvc, 1, msg.length)
    return g


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _lnvc_node(lnvc: tuple[int, int]) -> str:
    return f"lnvc{lnvc[0]}.g{lnvc[1]}"


def _weight(w: list[int]) -> str:
    msgs, nbytes = w
    if nbytes:
        return f"{msgs} msg / {nbytes} B"
    return f"{msgs} msg"


def flow_dot(g: FlowGraph) -> str:
    """The graph as deterministic Graphviz DOT (``dot -Tsvg`` ready)."""
    pids = sorted({pid for pid, _ in g.sends} | {pid for _, pid in g.recvs})
    lines = [
        "digraph mpf_flow {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for pid in pids:
        lines.append(f'  "p{pid}";')
    for lnvc in sorted(g.lnvcs):
        label = g.lnvcs[lnvc].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'  "{_lnvc_node(lnvc)}" [shape=ellipse, label="{label}"];'
        )
    for pid, lnvc in sorted(g.sends):
        w = _weight(g.sends[(pid, lnvc)])
        lines.append(
            f'  "p{pid}" -> "{_lnvc_node(lnvc)}" [label="{w}"];'
        )
    for lnvc, pid in sorted(g.recvs):
        w = _weight(g.recvs[(lnvc, pid)])
        lines.append(
            f'  "{_lnvc_node(lnvc)}" -> "p{pid}" [label="{w}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


_NODE_LINE = re.compile(r'^"[^"]+"(\s*\[[^\]]*\])?;$')
_EDGE_LINE = re.compile(r'^"[^"]+"\s*->\s*"[^"]+"(\s*\[[^\]]*\])?;$')
_ATTR_LINE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\s*=.*;$")
_SCOPE_LINE = re.compile(r"^(node|edge|graph)\s*\[[^\]]*\];$")


def check_dot(text: str) -> int:
    """Validate a DOT digraph; returns the edge count, raises ValueError.

    Not a full DOT parser — it accepts exactly the statement shapes
    :func:`flow_dot` emits (quoted nodes, quoted edges, attribute
    statements), which is what the CI smoke needs to assert.
    """
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if not lines or not lines[0].startswith("digraph") or not lines[0].endswith("{"):
        raise ValueError("DOT: missing 'digraph ... {' header")
    if lines[-1] != "}":
        raise ValueError("DOT: missing closing '}'")
    edges = 0
    for ln in lines[1:-1]:
        if not ln:
            continue
        if _EDGE_LINE.match(ln):
            edges += 1
        elif not (_NODE_LINE.match(ln) or _ATTR_LINE.match(ln)
                  or _SCOPE_LINE.match(ln)):
            raise ValueError(f"DOT: unrecognized statement: {ln!r}")
    return edges
