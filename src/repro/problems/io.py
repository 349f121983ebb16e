"""Problem instance serialization.

Round-trips every shipped problem type through plain JSON-compatible
dictionaries, so randomized benchmark cases can be pinned, shared, and
replayed — the reproducibility counterpart of the paper's "400 cases per
benchmark" protocol.

>>> from repro.problems import make_benchmark
>>> from repro.problems.io import problem_to_dict, problem_from_dict
>>> problem = make_benchmark("F1", 0)
>>> clone = problem_from_dict(problem_to_dict(problem))
>>> clone.optimal_value == problem.optimal_value
True

:func:`problem_fingerprint` derives a canonical content hash from the
same serialization — the identity key the solve service's deduplication
is built on (see ``docs/SERVICE.md``).  :func:`compile_fingerprint`
hashes only what Rasengan's compile passes read (type, ``C``, ``b`` and
the feasible start), the root of the staged pipeline's cache keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Union

import networkx as nx
import numpy as np

from repro.exceptions import ProblemError
from repro.problems.base import ConstrainedBinaryProblem
from repro.problems.facility_location import FacilityLocationProblem
from repro.problems.graph_coloring import GraphColoringProblem
from repro.problems.job_scheduling import JobSchedulingProblem
from repro.problems.k_partition import KPartitionProblem
from repro.problems.set_cover import SetCoverProblem


#: Serialized ``type`` tag per shipped problem class.
_TYPE_TAGS = (
    (FacilityLocationProblem, "facility_location"),
    (KPartitionProblem, "k_partition"),
    (JobSchedulingProblem, "job_scheduling"),
    (SetCoverProblem, "set_cover"),
    (GraphColoringProblem, "graph_coloring"),
)


def problem_type(problem: ConstrainedBinaryProblem) -> str:
    """The serialized ``type`` tag of a shipped problem instance."""
    for cls, tag in _TYPE_TAGS:
        if isinstance(problem, cls):
            return tag
    raise ProblemError(
        f"cannot serialise problem type {type(problem).__name__}"
    )


def problem_to_dict(problem: ConstrainedBinaryProblem) -> Dict[str, Any]:
    """Serialise a shipped problem instance to a JSON-compatible dict."""
    kind = problem_type(problem)
    if kind == "facility_location":
        return {
            "type": kind,
            "name": problem.name,
            "open_costs": problem.open_costs.tolist(),
            "assign_costs": problem.assign_costs.tolist(),
        }
    if kind == "k_partition":
        # Serialise the instance's own edge tuple (captured at
        # construction) rather than re-iterating the caller's graph: the
        # edge *order* fixes the objective's floating-point summation
        # order, so this is what a bit-for-bit round-trip must preserve —
        # and it stays correct even if the graph is mutated afterwards.
        return {
            "type": kind,
            "name": problem.name,
            "num_elements": problem.num_elements,
            "edges": [
                [int(u), int(v), float(weight)]
                for u, v, weight in problem._edges
            ],
            "part_sizes": list(problem.part_sizes),
        }
    if kind == "job_scheduling":
        return {
            "type": kind,
            "name": problem.name,
            "processing_times": problem.processing_times.tolist(),
            "num_machines": problem.num_machines,
        }
    if kind == "set_cover":
        return {
            "type": kind,
            "name": problem.name,
            "subsets": [sorted(subset) for subset in problem.subsets],
            "costs": problem.costs.tolist(),
            "num_elements": problem.num_elements,
        }
    return {
        "type": kind,
        "name": problem.name,
        "num_nodes": problem.num_nodes,
        "edges": [[int(u), int(v)] for u, v in problem.edges],
        "num_colors": problem.num_colors,
        "color_costs": problem.color_costs.tolist(),
    }


def problem_from_dict(payload: Dict[str, Any]) -> ConstrainedBinaryProblem:
    """Inverse of :func:`problem_to_dict`."""
    kind = payload.get("type")
    name = payload.get("name", kind or "problem")
    if kind == "facility_location":
        return FacilityLocationProblem(
            payload["open_costs"], payload["assign_costs"], name=name
        )
    if kind == "k_partition":
        graph = nx.Graph()
        graph.add_nodes_from(range(payload["num_elements"]))
        for u, v, weight in payload["edges"]:
            graph.add_edge(u, v, weight=weight)
        return KPartitionProblem(graph, payload["part_sizes"], name=name)
    if kind == "job_scheduling":
        return JobSchedulingProblem(
            payload["processing_times"], payload["num_machines"], name=name
        )
    if kind == "set_cover":
        return SetCoverProblem(
            [set(subset) for subset in payload["subsets"]],
            payload["costs"],
            payload["num_elements"],
            name=name,
        )
    if kind == "graph_coloring":
        graph = nx.Graph()
        graph.add_nodes_from(range(payload["num_nodes"]))
        graph.add_edges_from(payload["edges"])
        return GraphColoringProblem(
            graph, payload["num_colors"], payload["color_costs"], name=name
        )
    raise ProblemError(f"unknown problem type {kind!r}")


def problem_to_json(problem: ConstrainedBinaryProblem) -> str:
    """JSON string form of :func:`problem_to_dict`."""
    return json.dumps(problem_to_dict(problem), sort_keys=True)


def problem_from_json(text: str) -> ConstrainedBinaryProblem:
    """Inverse of :func:`problem_to_json`."""
    return problem_from_dict(json.loads(text))


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.ndarray):
        return [_plain(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(item) for item in value)
    return value


def canonical_problem_payload(
    problem: Union[ConstrainedBinaryProblem, Dict[str, Any]]
) -> Dict[str, Any]:
    """The canonical serialized form of a problem (instance or payload).

    Payload dicts are round-tripped through the problem constructor, so
    any two payloads describing the same instance — regardless of dict
    key order, numpy dtypes, int-vs-float cost literals, or ``set`` vs
    sorted-list subsets — normalise to an identical dict.  Edge *order*
    is deliberately preserved: for the graph problems it determines the
    variable layout, so reordering edges yields a semantically distinct
    (bit-level incompatible) instance.
    """
    if not isinstance(problem, ConstrainedBinaryProblem):
        problem = problem_from_dict(_plain(dict(problem)))
    return _plain(problem_to_dict(problem))


def problem_fingerprint(
    problem: Union[ConstrainedBinaryProblem, Dict[str, Any]]
) -> str:
    """Stable SHA-256 content hash of a problem instance.

    Built on :func:`canonical_problem_payload` + key-sorted compact JSON,
    so the hash is invariant to serialization noise but distinguishes any
    change that could alter solver output (costs, structure, edge order,
    name — the name is embedded in result records).

    >>> from repro.problems import make_benchmark
    >>> a = problem_fingerprint(make_benchmark("F1", 0))
    >>> b = problem_fingerprint(problem_to_dict(make_benchmark("F1", 0)))
    >>> a == b and len(a) == 64
    True
    """
    text = json.dumps(
        canonical_problem_payload(problem),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compile_fingerprint(problem: ConstrainedBinaryProblem) -> str:
    """SHA-256 of what Rasengan's compile passes read from a problem.

    The transition Hamiltonian is built from the homogeneous basis of
    ``C x = 0`` and the initial feasible state (paper, Sections 3–4);
    the objective enters only when evolution times are trained and
    scored.  So the hash covers the problem type, ``C``, ``b`` and
    :meth:`~repro.problems.base.ConstrainedBinaryProblem.initial_feasible_solution`,
    and instances that differ only in objective or name share it.

    >>> from repro.problems import make_benchmark
    >>> a = compile_fingerprint(make_benchmark("F1", 0))
    >>> a == compile_fingerprint(make_benchmark("F1", 1)) and len(a) == 64
    True
    >>> problem_fingerprint(make_benchmark("F1", 0)) == problem_fingerprint(
    ...     make_benchmark("F1", 1))
    False
    """
    payload = {
        "type": problem_type(problem),
        "constraint_matrix": problem.constraint_matrix.tolist(),
        "bound": problem.bound.tolist(),
        "initial": [int(bit) for bit in problem.initial_feasible_solution()],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
