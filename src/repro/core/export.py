"""Exporting CAGs and trace results for inspection and visualisation.

The paper presents causal paths as small graphs (Fig. 1) and latency
views (Fig. 15/17).  This module provides the equivalent artefacts for a
terminal/offline workflow:

* :func:`cag_to_dot` -- Graphviz DOT text for one CAG (context edges
  solid, message edges dashed, as in the paper's figures);
* :func:`cag_to_dict` / :func:`cag_to_json` -- a JSON-friendly structure
  for programmatic consumption;
* :func:`trace_summary` -- a compact dictionary describing a whole
  :class:`~repro.core.tracer.TraceResult` (patterns, percentages,
  correlator statistics), convenient for dashboards or regression files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .cag import CAG, CONTEXT_EDGE
from .latency import breakdown_for_cag, segment_label
from .tracer import TraceResult


def _vertex_id(cag: CAG, index: int) -> str:
    return f"a{index}"


def cag_to_dot(cag: CAG, title: Optional[str] = None) -> str:
    """Render one CAG as Graphviz DOT.

    Context edges are drawn solid (red in the paper's Fig. 1), message
    edges dashed (blue).  Vertex labels carry the activity type, the
    component and the local timestamp.
    """
    order = {id(vertex): index for index, vertex in enumerate(cag.vertices)}
    lines = ["digraph cag {", "  rankdir=LR;", "  node [shape=box, fontsize=10];"]
    if title:
        lines.append(f'  label="{title}";')
    for index, vertex in enumerate(cag.vertices):
        label = (
            f"{vertex.type.name}\\n{vertex.context.hostname}/{vertex.context.program}"
            f"\\nt={vertex.timestamp:.6f}"
        )
        lines.append(f'  {_vertex_id(cag, index)} [label="{label}"];')
    for edge in cag.edges:
        style = "solid" if edge.kind == CONTEXT_EDGE else "dashed"
        color = "red" if edge.kind == CONTEXT_EDGE else "blue"
        lines.append(
            f"  {_vertex_id(cag, order[id(edge.parent)])} -> "
            f"{_vertex_id(cag, order[id(edge.child)])} "
            f'[style={style}, color={color}, label="{edge.latency() * 1000:.2f}ms"];'
        )
    lines.append("}")
    return "\n".join(lines)


def cag_to_dict(cag: CAG) -> Dict[str, Any]:
    """A JSON-friendly representation of one CAG."""
    order = {id(vertex): index for index, vertex in enumerate(cag.vertices)}
    vertices: List[Dict[str, Any]] = []
    for vertex in cag.vertices:
        vertices.append(
            {
                "type": vertex.type.name,
                "timestamp": vertex.timestamp,
                "hostname": vertex.context.hostname,
                "program": vertex.context.program,
                "pid": vertex.context.pid,
                "tid": vertex.context.tid,
                "connection": list(vertex.message.connection_key()),
                "bytes": vertex.message.size,
            }
        )
    edges = [
        {
            "parent": order[id(edge.parent)],
            "child": order[id(edge.child)],
            "kind": edge.kind,
            "latency": edge.latency(),
            "segment": segment_label(edge),
        }
        for edge in cag.edges
    ]
    breakdown = breakdown_for_cag(cag)
    return {
        "cag_id": cag.cag_id,
        "finished": cag.finished,
        "duration": cag.duration(),
        "vertices": vertices,
        "edges": edges,
        "segments": breakdown.as_dict(),
        "segment_percentages": breakdown.percentages(),
    }


def cag_to_json(cag: CAG, indent: int = 2) -> str:
    """JSON text for one CAG."""
    return json.dumps(cag_to_dict(cag), indent=indent, sort_keys=True)


def trace_summary(result: TraceResult, top_patterns: int = 5) -> Dict[str, Any]:
    """A compact, serialisable summary of a whole trace."""
    patterns = []
    for pattern in result.patterns()[:top_patterns]:
        breakdown = pattern.average_path()
        patterns.append(
            {
                "paths": pattern.count,
                "activities_per_path": pattern.length,
                "components": ["/".join(component) for component in pattern.components()],
                "average_latency": pattern.average_latency(),
                "segment_percentages": breakdown.percentages(),
            }
        )
    return {
        "requests": result.request_count,
        "incomplete_paths": len(result.incomplete_cags),
        "deformed_paths": result.deformed_paths,
        "fallback_selections": result.correlation.ranker_stats.fallback_selections,
        "shape_plans": result.shape_counts,
        "correlation_time_s": result.correlation_time,
        "peak_memory_bytes": result.peak_memory_bytes,
        "window_s": result.correlation.window,
        "noise_discarded": result.correlation.ranker_stats.noise_discarded,
        "filtered_records": result.filtered_records,
        "patterns": patterns,
    }


def trace_summary_json(result: TraceResult, indent: int = 2) -> str:
    """JSON text of :func:`trace_summary`."""
    return json.dumps(trace_summary(result), indent=indent, sort_keys=True)
