"""Exhaustive enumerations that tests compare the solver against."""

from scmap.master import ChainInstance, Configuration, make_configuration
from scmap.netmodel import ProblemInstance


def simple_paths(out_arcs: dict, src: str, dst: str) -> list:
    """Every simple src->dst path as an arc tuple, shortest first, then in
    arc order."""
    out = []
    stack = [(src, (), frozenset([src]))]
    while stack:
        node, arcs, seen = stack.pop()
        if node == dst:
            out.append(arcs)
            continue
        for arc in out_arcs[node]:
            if arc[1] not in seen:
                stack.append((arc[1], arcs + (arc,), seen | {arc[1]}))
    return sorted(out, key=lambda p: (len(p), p))


def enumerate_all_configs(
    instance: ProblemInstance, chain_instance: ChainInstance
) -> list[Configuration]:
    """Every configuration with simple segment paths; raises ValueError past
    7 nodes or 3 positions."""
    topo = instance.topology
    n = len(chain_instance.vnfs)
    if len(topo.nodes) > 7:
        raise ValueError(f"enumeration limited to 7 nodes, got {len(topo.nodes)}")
    if n > 3:
        raise ValueError(f"enumeration limited to 3 positions, got {n}")

    paths_between = {
        (u, w): simple_paths(topo.out_arcs, u, w)
        for u in topo.nfv_nodes
        for w in topo.nfv_nodes
    }

    def expand(locations: tuple, segments: tuple) -> list:
        if len(locations) == n:
            return [make_configuration(chain_instance, locations, segments)]
        out = []
        for v in topo.nfv_nodes:
            if not locations:
                out.extend(expand((v,), ()))
            else:
                for seg in paths_between[(locations[-1], v)]:
                    out.extend(expand(locations + (v,), segments + (seg,)))
        return out

    return expand((), ())
