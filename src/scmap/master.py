"""Restricted master problem over a growing configuration pool.

The master selects one configuration per chain instance. It takes one of
two shapes, fixed by `build_rmp` from the worst-case arc load W = sum over
demands of gbps * (chain length + 1), which bounds what any plan of simple
paths can put on one arc:

- compact, when every arc's capacity is at least W: no capacity row can
  bind, so each end segment (demand source to first VNF location, last VNF
  location to demand destination) is a hop-shortest path. The master has
  convexity and core rows only.
- arc-flow, otherwise: the two end segments are routed as arc flows under
  capacity rows. Pairs of one chain instance that share a source and a rate
  share one lead-in commodity of one unit per pair, and pairs that share a
  destination and a rate share one lead-out commodity: their per-pair flow
  rows would be identical, and an integer flow of n units splits into n
  unit paths, so the merge is exact for the relaxation and the integer
  selection alike. A z column absorbs (or emits) end flow in the flow rows
  of the nodes holding its first and last positions: no position variables.

On both shapes a z column costs its segments plus its end segments at
hop-shortest distance. An end flow pays only its detour: arc (u, w) costs
gbps * (1 + d(s, u) - d(s, w)) in a lead-in from s and gbps * (1 + d(w, t)
- d(u, t)) in a lead-out to t, d the hop distance. These are reduced costs
under node potentials (Ahuja, Magnanti & Orlin, *Network Flows*, 1993):
each is >= 0, a cycle still costs its hop length, and a unit path from s to
v costs its length less d(s, v), which the column absorbing it pays. So the
objective is unchanged at every feasible point.

No master variable has an upper bound: the convexity rows bound z and the
artificials, the capacity rows and positive-cost cycles the end flows. With
no bound multipliers the row duals are dual feasible, so a pricing round
that finds no improving column certifies the LP optimum.

Only self-feasible columns are pooled: a configuration whose own core use
exceeds some node's cores can never be part of an integer plan, so
`add_column` refuses it (Dantzig-Wolfe convexifies only the subproblem's
feasible set). Phase I is one penalised artificial column per chain
instance that stands for the instance left unserved: it fills the
instance's convexity row and, on an arc-flow master, the source rows of its
lead-ins and the sink rows of its lead-outs. So the master is feasible with
no configuration column at all, and needs no seed. An artificial never
enters the integer selection, and since every plan is feasible with it at
zero, the LP value still bounds every plan from below.

Every z column enters through `_pool`, which derives the objectives and
row coefficients of a batch of configurations at once (`column_terms`):
first the one-host columns (`add_colocated_columns`, one batch), then the
pricer's (`add_column`, one each). Rows never change shape after
`build_rmp`, so duals keep stable meaning across iterations, and z columns
are the last variables: pool position p is variable `z0 + p`, and the
pool's arrays (`z_obj`, `z_ci`, `z_loc`) are its only index.

When no core row binds, the compact master's relaxation separates: each
chain instance takes its cheapest pooled column, the lowest pool position
among equals, and `solve_relaxation` returns that point with its duals in
closed form (`_closed_form`), without HiGHS. Those duals are the unique
optimal ones, so pricing is the same either way, and a plan read off such
a point does not depend on how HiGHS breaks ties. Every other relaxation
goes to HiGHS.

The hosting budget k is not part of the relaxation, so its bound is the
same at every k; hosting flags and the budget row enter only the integer
selection (`build_final_ilp`). That selection is the master's
z-restriction: its convexity, core and capacity rows (the master's first
rows on both shapes) with only their z coefficients, and its z objectives.
On a compact master that is the master itself without its artificial
columns. On an arc-flow master it drops the end flows, which makes it a
relaxation of the full program, the master with every variable integer.
Both programs' feasible points, with the artificials at zero and the
hosting block dropped, are feasible for the master, so a relaxation point
with every artificial at zero, every variable integral and at most k hosts
is optimal for both: the engine takes it as the plan without building
either.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .netmodel import ProblemInstance
from .pathcore import all_pairs_hops, route_fault
from .simplexkit import EQ, LE, LinearProgram, LpSolution, highs
from .sptg import ChainPartition

log = logging.getLogger(__name__)

Arc = tuple[str, str]
Pair = tuple[str, str]

# slack allowed when checking a column's own core use against a node's cores
FIT_TOL = 1e-9

# most entries a (chain instances, nodes, NFV nodes) array op holds at once,
# about 8 MB of floats
ARRAY_BLOCK = 1 << 20

# a >= row's dual in our minimization convention is >= 0, a <= row's <= 0;
# anything past this much on the wrong side means a solver defect
DUAL_SIGN_TOL = 1e-5


class MasterError(RuntimeError):
    """Structural misuse (a bad configuration) or an unsolved relaxation."""


@dataclass(frozen=True)
class Configuration:
    """One candidate mapping for a chain instance.

    `locations[i]` hosts position i of the chain; `segment_paths[i]` is the
    arc path from locations[i] to locations[i+1], empty iff co-located.
    `cost` is the group's total demand times the summed segment hop count.
    """

    chain: str
    group_index: int
    locations: tuple[str, ...]
    segment_paths: tuple[tuple[Arc, ...], ...]
    cost: float

    @property
    def key(self) -> tuple:
        return (self.chain, self.group_index, self.locations, self.segment_paths)


@dataclass(frozen=True)
class ChainInstance:
    """A chain plus one demand group from the phase-1 partition; `index` is
    its place in the `chain_instances` order, the row of the master's and
    the pricer's per-instance arrays."""

    chain: str
    group_index: int
    vnfs: tuple[str, ...]
    pairs: tuple[Pair, ...]
    demand: dict  # pair -> gbps
    total_gbps: float
    index: int

    @property
    def key(self) -> tuple[str, int]:
        return (self.chain, self.group_index)

    @property
    def label(self) -> str:
        return f"{self.chain}/{self.group_index}"


@dataclass(frozen=True)
class DualPrices:
    """Relaxation duals in the master's index: chain instance index i,
    position p, NFV node v in `Topology.nfv_nodes` order and arc a in
    `Topology.arcs` order.

    Convexity rows are equalities (free sign); core and capacity rows are
    <=-rows of a minimization, so their duals are <= 0 and tiny positive
    noise is clamped to zero before pricing. A compact master has no
    capacity rows, so `capacity` is all 0. `end[i, p, v]` is the end charge
    of placing position p of the chain instance of index i at the v-th NFV
    node: the end-flow rows' duals times the coefficients `end_entries`
    gives there (none on a compact master), less the end cost
    (`RmpModel.end_cost`). It is 0 at every position but the first and last.
    """

    convexity: np.ndarray  # [i]
    core: np.ndarray  # [v]
    capacity: np.ndarray  # [a]
    end: np.ndarray  # [i, p, v]


@dataclass(frozen=True)
class FinalIlp:
    """Integer selection problem; pool position p is its variable z0 + p."""

    lp: LinearProgram
    full: bool  # an arc-flow master in integers, end flows included
    z0: int


@dataclass
class RmpModel:
    """The master, with the per-instance arrays indexed by chain instance
    index i, position p and NFV node v in `Topology.nfv_nodes` order."""

    instance: ProblemInstance
    chain_instances: tuple[ChainInstance, ...]
    lp: LinearProgram
    # [i, p, v]: Gbps-hops of the end segments a column pays for placing
    # position p at v, nonzero only at the first (p = 0) and last positions
    end_cost: np.ndarray
    # [i, p]: cores per Gbps of position p, 0 past the chain's end; [i]: Gbps
    rate: np.ndarray
    gbps: np.ndarray
    # pooled z columns by pool position p, the LP variable z0 + p: objective,
    # chain instance index, and the NFV-node index of each position, padded
    # with the last one
    z_obj: np.ndarray
    z_ci: np.ndarray
    z_loc: np.ndarray
    # each chain instance's demand pairs, instances in order and each one's
    # pairs in `ChainInstance.pairs` order: chain instance index, node index
    # (`PathTable.index`) of source and destination, and Gbps
    pair_ci: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    pair_gbps: np.ndarray
    compact: bool = False  # the master's shape; see the module docstring
    z0: int = 0  # the first z variable: every variable `build_rmp` adds comes before
    # the end-flow coefficients of a z column placing position p at NFV node
    # v, as (flat index of [i, p, v] into `end_cost`, row, coefficient)
    # arrays sorted by flat index; empty on a compact master
    end_entries: tuple = ()
    artificial: dict = field(default_factory=dict)  # key -> LP variable
    pool: list = field(default_factory=list)
    nfv_index: dict = field(default_factory=dict)  # NFV node -> v
    config_index: dict = field(default_factory=dict)  # Configuration.key -> LP variable
    # end commodities: one per (chain instance, source, gbps) for lead-ins and
    # one per (chain instance, destination, gbps) for lead-outs, carrying one
    # unit of flow per member pair
    lead_in: dict = field(default_factory=dict)  # (key, (src, gbps)) -> member pairs
    lead_out: dict = field(default_factory=dict)  # (key, (dst, gbps)) -> member pairs
    yfvar: dict = field(default_factory=dict)  # (key, (src, gbps), arc) -> var
    ylvar: dict = field(default_factory=dict)  # (key, (dst, gbps), arc) -> var
    conv_row: list = field(default_factory=list)  # [i] -> row
    core_row: list = field(default_factory=list)  # [v] -> row
    cap_row: list = field(default_factory=list)  # [a] -> row; none on a compact master
    by_key: dict = field(default_factory=dict)  # key -> ChainInstance
    last_relaxation: Optional[LpSolution] = None
    truncated_bound: Optional[float] = None  # set by a column generation cut short

    @property
    def lp_bound(self) -> float:
        """The relaxation's value, a lower bound once column generation has
        converged; a run cut short reports its best Lagrangian bound."""
        if self.truncated_bound is not None:
            return self.truncated_bound
        return self.last_relaxation.objective


def chain_instances(
    instance: ProblemInstance, partitions: Iterable[ChainPartition]
) -> tuple[ChainInstance, ...]:
    """Flatten partitions into the deterministic chain-instance list."""
    out = []
    for part in sorted(partitions, key=lambda p: p.chain):
        spec = instance.chains[part.chain]
        gbps = instance.demands.gbps
        for gi, group in enumerate(part.groups):
            demand = {(s, d): gbps[part.chain, s, d] for s, d in group.members}
            out.append(
                ChainInstance(
                    chain=part.chain,
                    group_index=gi,
                    vnfs=tuple(spec.vnfs),
                    pairs=tuple(group.members),
                    demand=demand,
                    total_gbps=sum(demand.values()),
                    index=len(out),
                )
            )
    return tuple(out)


def make_configuration(
    chain_instance: ChainInstance,
    locations: tuple[str, ...],
    segment_paths: tuple[tuple[Arc, ...], ...],
) -> Configuration:
    """Build a Configuration with its cost derived, not caller-supplied."""
    hops = sum(len(p) for p in segment_paths)
    return Configuration(
        chain=chain_instance.chain,
        group_index=chain_instance.group_index,
        locations=tuple(locations),
        segment_paths=tuple(tuple(p) for p in segment_paths),
        cost=chain_instance.total_gbps * hops,
    )


def placement_faults(
    instance: ProblemInstance, chain: str, locations, segment_paths, label: str
) -> Iterable[tuple[str, str]]:
    """(kind, detail) for each way `locations` joined by `segment_paths` fails
    to place `chain`: NFV locations, one route per consecutive pair. The
    integer plan's validator and `add_column` share this check."""
    n = len(instance.chains[chain].vnfs)
    if len(locations) != n:
        yield "contiguity", f"{label}: {len(locations)} locations for a {n}-position chain"
        return
    topo = instance.topology
    for v in locations:
        if v not in topo.node_by_id:
            yield "location_not_nfv", f"{label}: unknown node {v}"
        elif not topo.node_by_id[v].nfv:
            yield "location_not_nfv", f"{label}: {v} is not an NFV node"
    if len(segment_paths) != n - 1:
        yield "contiguity", (
            f"{label}: {len(segment_paths)} segments for a {n}-position chain"
        )
        return
    for i, seg in enumerate(segment_paths):
        fault = route_fault(topo, seg, locations[i], locations[i + 1])
        if fault:
            yield "contiguity", f"{label} segment {i}: {fault}"


def validate_configuration(
    instance: ProblemInstance, chain_instance: ChainInstance, config: Configuration
) -> None:
    if (config.chain, config.group_index) != chain_instance.key:
        raise MasterError(
            f"configuration for {config.chain}/{config.group_index} offered to "
            f"chain instance {chain_instance.label}"
        )
    for _, detail in placement_faults(
        instance, config.chain, config.locations, config.segment_paths, chain_instance.label
    ):
        raise MasterError(detail)
    want = chain_instance.total_gbps * sum(len(p) for p in config.segment_paths)
    if abs(config.cost - want) > 1e-9 * max(1.0, abs(want)):
        raise MasterError(
            f"{chain_instance.label}: stored cost {config.cost} != recomputed {want}"
        )


def worst_case_load(instance: ProblemInstance) -> float:
    """Most Gbps any plan of simple paths can put on one arc: each demand
    crosses an arc at most once per segment of its chain, and it has
    chain length + 1 segments."""
    return sum(
        r.gbps * (len(instance.chains[r.chain].vnfs) + 1) for r in instance.demands.records
    )


def position_rates(instance: ProblemInstance, cis) -> np.ndarray:
    """[i, p]: cores per Gbps of position p of the chain instance of index
    i, 0 past its chain's end; as many positions as the longest chain."""
    rate = np.zeros((len(cis), max((len(ci.vnfs) for ci in cis), default=0)))
    for ci in cis:
        rate[ci.index, : len(ci.vnfs)] = instance.chain_cores_per_gbps(ci.chain)
    return rate


def fits(instance: ProblemInstance, ci: ChainInstance, locations: tuple) -> bool:
    """Whether `ci` placed at `locations` fits every node's cores on its own."""
    use: dict = {}
    for v, rate in zip(locations, instance.chain_cores_per_gbps(ci.chain)):
        use[v] = use.get(v, 0.0) + ci.total_gbps * rate
    node = instance.topology.node_by_id
    return all(u <= node[v].cores + FIT_TOL for v, u in use.items())


def _end_commodities(ci: ChainInstance, lead_in: bool) -> list:
    """((endpoint, gbps), sorted member pairs) for the pairs of `ci` that
    share a source (lead-in) or a destination (lead-out) and a rate."""
    end = 0 if lead_in else 1
    groups: dict = {}
    for pair in sorted(ci.pairs):
        groups.setdefault((pair[end], ci.demand[pair]), []).append(pair)
    return sorted((com, tuple(pairs)) for com, pairs in groups.items())


def _add_end_rows(
    model: RmpModel, key: tuple, point: str, gbps: float, n: float, entries: list, *,
    lead_in: bool
) -> None:
    """Flow rows of one end commodity of n unit flows, and the coefficients
    z columns carry in them.

    A lead-in leaves its source `point` and is absorbed where the first
    position sits; a lead-out leaves where the last position sits and is
    absorbed at its destination `point`. Both use the same rows with arc
    directions swapped: "away" arcs lead away from `point`'s side. A z
    column placing that end position at NFV node v puts n in `point`'s row
    when v is `point` (the flow never leaves it) and sign * n in v's
    balance row otherwise; `entries` gets each such (flat index of [i, p,
    v] into `end_cost`, row, coefficient), in row order.
    """
    topo = model.instance.topology
    ci = model.by_key[key]
    if lead_in:
        yvar, pos, away, toward = model.yfvar, 0, topo.out_arcs, topo.in_arcs
        names, sign = ("fsrc", "fbal"), 1.0
    else:
        yvar, pos, away, toward = model.ylvar, len(ci.vnfs) - 1, topo.in_arcs, topo.out_arcs
        names, sign = ("ldst", "lbal"), -1.0
    label = f"{ci.label}/{point}@{gbps:g}"
    y = {arc: yvar[(key, (point, gbps), arc)] for arc in topo.arc_index}
    _, n_pos, m = model.end_cost.shape
    at = (ci.index * n_pos + pos) * m

    # `point` sends (or takes) n units, less n per unit of the end position
    # placed on it and n per unit of the instance left unserved (its
    # artificial); every other node passes flow on and absorbs (or emits)
    # n per unit of the end position placed on it. With y >= 0 the balance
    # already makes a node's inflow at least what it absorbs.
    others = [v for v in topo.node_ids if v != point]
    coeffs = [[(y[arc], 1.0) for arc in away[point]] + [(model.artificial[key], n)]] + [
        [(y[arc], sign) for arc in away[v]] + [(y[arc], -sign) for arc in toward[v]]
        for v in others
    ]
    rows = model.lp.add_rows(
        [f"{names[0]}[{label}]"] + [f"{names[1]}[{label}/{v}]" for v in others],
        [EQ] * len(coeffs), [n] + [0.0] * len(others),
        tuple(zip(*((r, j, a) for r, row in enumerate(coeffs) for j, a in row))),
    )
    for v, row, coef in zip([point] + others, rows, [n] + [sign * n] * len(others)):
        if v in model.nfv_index:
            entries.append((at + model.nfv_index[v], row, coef))


def build_rmp(
    instance: ProblemInstance,
    partitions: Iterable[ChainPartition],
    cis: Optional[tuple[ChainInstance, ...]] = None,
) -> RmpModel:
    """Pick the master's shape and assemble its artificial columns, rows and
    static columns. Configuration columns arrive through `_pool` after it.
    `cis`, when given, is `chain_instances(instance, partitions)`, which
    the caller already has."""
    topo = instance.topology
    paths = all_pairs_hops(topo)
    if cis is None:
        cis = chain_instances(instance, partitions)
    nfv = topo.nfv_nodes
    rate = position_rates(instance, cis)
    worst = worst_case_load(instance)
    ix = paths.index
    n = len(ix)
    pairs = [(ci.index, ix[s], ix[d], g) for ci in cis for (s, d), g in ci.demand.items()]
    pair_ci, pair_src, pair_dst = (
        np.array([p[f] for p in pairs], dtype=np.int64) for f in range(3)
    )
    pair_gbps = np.array([p[3] for p in pairs], dtype=float)
    lp = LinearProgram("rmp")
    model = RmpModel(
        instance=instance,
        chain_instances=cis,
        lp=lp,
        end_cost=np.zeros((len(cis), rate.shape[1], len(nfv))),
        rate=rate,
        gbps=np.array([ci.total_gbps for ci in cis]),
        z_obj=np.zeros(0),
        z_ci=np.zeros(0, dtype=np.int64),
        z_loc=np.zeros((0, rate.shape[1]), dtype=np.int64),
        pair_ci=pair_ci,
        pair_src=pair_src,
        pair_dst=pair_dst,
        pair_gbps=pair_gbps,
        compact=all(a.capacity_gbps >= worst for a in topo.arcs),
        by_key={ci.key: ci for ci in cis},
        nfv_index={v: j for j, v in enumerate(nfv)},
    )
    # Gbps-hops from every source to each NFV node and from each NFV node to
    # every destination: each instance's Gbps per node times the hop matrix
    at = [ix[v] for v in nfv]
    hops_in, hops_out = paths.hops[:, at], paths.hops[at, :].T
    by_src, by_dst = (
        np.bincount(pair_ci * n + ends, weights=pair_gbps, minlength=len(cis) * n)
        .reshape(len(cis), n)
        for ends in (pair_src, pair_dst)
    )
    last = np.array([len(ci.vnfs) - 1 for ci in cis], dtype=np.int64)
    step = max(1, ARRAY_BLOCK // max(1, n * len(nfv)))
    for lo in range(0, len(cis), step):
        block = np.arange(lo, min(lo + step, len(cis)))
        # lead-ins end at position 0 and lead-outs start at the last one,
        # which is position 0 too on a one-VNF chain
        model.end_cost[block, 0] = (by_src[block, :, None] * hops_in).sum(axis=1)
        model.end_cost[block, last[block]] += (by_dst[block, :, None] * hops_out).sum(axis=1)

    _add_artificials(model)
    if model.compact:
        _build_compact_rows(model)
    else:
        _build_arc_flow_rows(model)
    model.z0 = lp.n_vars
    return model


def _add_artificials(model: RmpModel) -> None:
    """Phase-I column of each chain instance: the instance left unserved, at
    a cost above any configuration's.

    The row builders give it coefficient 1 in its instance's convexity row
    and, on an arc-flow master, n in the source row of each lead-in and in the
    sink row of each lead-out commodity of n pairs. So with every
    artificial at 1 and every y and z at 0 the master is feasible, and
    column generation needs no seed. Every plan is feasible with the
    artificials at zero, so the LP value stays a lower bound; an artificial
    never enters the integer selection.
    """
    # n + 1 segments of at most |V| - 1 hops each carry the group's rate
    n_nodes, cis = len(model.instance.topology.nodes), model.chain_instances
    penalty = [ci.total_gbps * (len(ci.vnfs) + 1) * (n_nodes - 1) + 1.0 for ci in cis]
    columns = model.lp.add_columns([f"art[{ci.label}]" for ci in cis], penalty)
    model.artificial = dict(zip((ci.key for ci in cis), columns))


def _build_compact_rows(model: RmpModel) -> None:
    """Convexity rows, each with its instance's artificial, and core rows."""
    lp, topo, cis = model.lp, model.instance.topology, model.chain_instances
    model.conv_row = list(lp.add_rows(
        [f"conv[{ci.label}]" for ci in cis], [EQ] * len(cis), np.ones(len(cis)),
        (range(len(cis)), [model.artificial[ci.key] for ci in cis], np.ones(len(cis))),
    ))
    nfv = topo.nfv_nodes
    cores = [float(topo.node_by_id[v].cores) for v in nfv]
    model.core_row = list(lp.add_rows([f"core[{v}]" for v in nfv], [LE] * len(nfv), cores))


def _build_arc_flow_rows(model: RmpModel) -> None:
    """End-commodity flows, the compact rows, and the capacity and end-flow
    rows.

    An end flow on arc (u, w) pays 1 + pot[u] - pot[w], the hops the arc
    adds to the hop-shortest route, under node potentials pot: hops from its
    source, or minus hops to its destination. The z column that absorbs (or
    emits) it pays the hop-shortest distance itself (module docstring).
    """
    lp = model.lp
    topo = model.instance.topology
    d = all_pairs_hops(topo).distance
    arcs = [(a.src, a.dst) for a in topo.arcs]
    for ci in model.chain_instances:
        for lead_in, members, yvar, tag in (
            (True, model.lead_in, model.yfvar, "yf"),
            (False, model.lead_out, model.ylvar, "yl"),
        ):
            for (point, gbps), pairs in _end_commodities(ci, lead_in):
                members[(ci.key, (point, gbps))] = pairs
                pot = {v: d(point, v) if lead_in else -d(v, point) for v in topo.node_ids}
                columns = lp.add_columns(
                    [f"{tag}[{ci.label}/{point}@{gbps:g}/{u}>{w}]" for u, w in arcs],
                    [gbps * (1 + pot[u] - pot[w]) for u, w in arcs],
                )
                yvar.update(((ci.key, (point, gbps), arc), j) for arc, j in zip(arcs, columns))

    # configuration choice and resource rows; z columns arrive via `_pool`
    _build_compact_rows(model)
    block = [
        (a, yvar[(key, com, arc)], com[1])
        for a, arc in enumerate(arcs)
        for members, yvar in ((model.lead_in, model.yfvar), (model.lead_out, model.ylvar))
        for key, com in members
    ]
    model.cap_row = list(lp.add_rows(
        [f"cap[{u}>{w}]" for u, w in arcs], [LE] * len(arcs),
        [topo.capacity(arc) for arc in arcs], tuple(zip(*block)),
    ))
    entries: list = []
    for lead_in, members in ((True, model.lead_in), (False, model.lead_out)):
        for (key, (point, gbps)), pairs in members.items():
            _add_end_rows(model, key, point, gbps, float(len(pairs)), entries, lead_in=lead_in)
    flat, rows = (np.array([e[f] for e in entries], dtype=np.int64) for f in (0, 1))
    coefs = np.array([e[2] for e in entries], dtype=float)
    # stable, so each [i, p, v]'s entries stay in row order
    order = np.argsort(flat, kind="stable")
    model.end_entries = (flat[order], rows[order], coefs[order])


def column_terms(model: RmpModel, configs: list) -> tuple:
    """The z columns of `configs`: their objectives, chain instance indices
    and NFV-node rows (as `RmpModel.z_obj`, `z_ci` and `z_loc` hold them),
    and their entries as (row, index in `configs`, coefficient) arrays, by column.

    A column costs its segments plus the end costs of its positions. It
    carries 1 in its instance's convexity row; in the core row of each node
    it uses, the instance's Gbps times the cores per Gbps of its positions
    there, summed in position order (no entry where that is 0); and on an
    arc-flow master, the Gbps times the number of its segments crossing
    each arc in that arc's capacity row, and the end-flow coefficients of
    its positions (`end_entries`).
    """
    at = model.nfv_index
    width = model.z_loc.shape[1]
    ci = np.array([model.by_key[c.chain, c.group_index].index for c in configs], dtype=np.int64)
    loc = [[at[v] for v in c.locations] for c in configs]
    loc = np.array([row + row[-1:] * (width - len(row)) for row in loc], dtype=np.int64)
    col = np.arange(len(configs))
    pos = np.arange(width)
    end = model.end_cost[ci[:, None], pos, loc].sum(axis=1)
    obj = np.array([c.cost for c in configs], dtype=float) + end
    # each position's cores go to the first position at its node
    first = (loc[:, :, None] == loc[:, None, :]).argmax(axis=2)
    use = np.zeros(loc.shape)
    for p in pos:
        use[col, first[:, p]] += model.rate[ci, p]
    j, p = np.nonzero(use)
    conv, core = np.array(model.conv_row), np.array(model.core_row)
    terms = [
        (col, conv[ci], np.ones(len(col))),
        (j, core[loc[j, p]], model.gbps[ci[j]] * use[j, p]),
    ]
    if not model.compact:
        n_rows, arc = model.lp.n_rows, model.instance.topology.arc_index
        crossed = [k * n_rows + model.cap_row[arc[a]]
                   for k, c in enumerate(configs) for seg in c.segment_paths for a in seg]
        key, count = np.unique(np.array(crossed, dtype=np.int64), return_counts=True)
        j, rows = np.divmod(key, n_rows)
        terms.append((j, rows, model.gbps[ci[j]] * count))
        flat, rows, coefs = model.end_entries
        want = ((ci[:, None] * width + pos) * len(at) + loc).ravel()
        lo = np.searchsorted(flat, want)
        n = np.searchsorted(flat, want, side="right") - lo
        take = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        terms.append((np.repeat(col, width).repeat(n), rows[take], coefs[take]))
    j, rows, coefs = (np.concatenate(t) for t in zip(*terms))
    order = np.argsort(j, kind="stable")
    return obj, ci, loc, (rows[order], j[order], coefs[order])


def _pool(model: RmpModel, configs: list) -> None:
    """Append `configs` as z columns, one after another: the only way a
    column enters the master."""
    if not configs:
        return
    obj, ci, loc, entries = column_terms(model, configs)
    first = len(model.pool)
    names = [f"z[{c.chain}/{c.group_index}/{first + j}]" for j, c in enumerate(configs)]
    zvar = model.lp.add_columns(names, obj, entries)
    model.config_index.update(zip((c.key for c in configs), zvar))
    model.z_obj = np.concatenate((model.z_obj, obj))
    model.z_ci = np.concatenate((model.z_ci, ci))
    model.z_loc = np.concatenate((model.z_loc, loc))
    model.pool += configs


def add_column(model: RmpModel, config: Configuration) -> int:
    """Append one z column and return its variable; exact duplicates return
    the existing variable.

    A configuration that does not fit the nodes' cores on its own is
    refused: no integer plan can select it.
    """
    key = (config.chain, config.group_index)
    try:
        ci = model.by_key[key]
    except KeyError:
        raise MasterError(f"no chain instance {key} in this model") from None
    validate_configuration(model.instance, ci, config)
    existing = model.config_index.get(config.key)
    if existing is not None:
        return existing
    if not fits(model.instance, ci, config.locations):
        raise MasterError(
            f"{ci.label}: configuration at {config.locations} does not fit the "
            f"nodes' cores on its own"
        )
    _pool(model, [config])
    return model.z0 + len(model.pool) - 1


def add_colocated_columns(model: RmpModel) -> None:
    """Pool every one-host column that fits into a master with no column
    yet: each chain instance, in order, placed whole on each NFV node, in
    order, whose cores take it. A one-host column is valid by construction,
    and fits where the instance's whole need, summed as `fits` sums it, is
    within the node's cores."""
    if model.pool:
        raise MasterError("one-host columns go into a master with no column yet")
    nfv = model.instance.topology.nfv_nodes
    need = np.zeros(len(model.chain_instances))
    for p in range(model.rate.shape[1]):
        need += model.gbps * model.rate[:, p]
    owner, host = np.nonzero(need[:, None] <= node_cores(model) + FIT_TOL)
    configs = []
    for i, v in zip(owner.tolist(), host.tolist()):
        ci = model.chain_instances[i]
        n = len(ci.vnfs)
        config = Configuration(ci.chain, ci.group_index, (nfv[v],) * n, ((),) * (n - 1), 0.0)
        configs.append(config)
    _pool(model, configs)


def core_loads(model: RmpModel, chosen) -> np.ndarray:
    """Cores taken at each NFV node with the pooled columns at pool
    positions `chosen` selected and the rest not."""
    chosen = np.asarray(chosen, dtype=np.int64)
    ci = model.z_ci[chosen]
    return np.bincount(
        model.z_loc[chosen].ravel(),
        weights=(model.gbps[ci, None] * model.rate[ci]).ravel(),
        minlength=len(model.nfv_index),
    )


def node_cores(model: RmpModel) -> np.ndarray:
    """Each NFV node's cores, the right-hand sides of the core rows."""
    return model.lp.rhs[model.core_row]


def _closed_form(model: RmpModel) -> Optional[LpSolution]:
    """The compact master's optimum when no core row binds, or None.

    Every chain instance takes its cheapest pooled column (the lowest pool
    position among equals). If those columns leave every core row more than
    `FIT_TOL` below its cores, the point is optimal with convexity duals at
    those costs and core duals at 0: each z column's reduced cost is its
    cost less its instance's least, each artificial costs more than that
    least, and the two objectives are equal. The core rows are slack at
    this optimum, so complementary slackness makes the dual unique, the
    one HiGHS returns. None on an arc-flow master, when some instance has
    no pooled column or an artificial no dearer than its columns, or when
    a core row is within `FIT_TOL` of binding.
    """
    if not model.compact:
        return None
    lp = model.lp
    if (np.bincount(model.z_ci, minlength=len(model.chain_instances)) == 0).any():
        return None
    # by instance, then objective, then pool position: each instance's first
    # entry is its cheapest column
    order = np.lexsort((model.z_obj, model.z_ci))
    first = np.flatnonzero(np.r_[True, np.diff(model.z_ci[order]) != 0])
    chosen = order[first]
    cost = model.z_obj[chosen]
    penalty = lp.obj[list(model.artificial.values())]
    if (cost >= penalty).any():
        return None
    if (core_loads(model, chosen) >= node_cores(model) - FIT_TOL).any():
        return None
    x = np.zeros(lp.n_vars)
    x[model.z0 + chosen] = 1.0
    duals = np.zeros(lp.n_rows)
    duals[model.conv_row] = cost
    return LpSolution(
        status="optimal",
        x=x.tolist(),
        objective=sum(cost.tolist()),
        duals=duals.tolist(),
        method="closed_form",
    )


def solve_relaxation(model: RmpModel) -> tuple[LpSolution, DualPrices]:
    """The master's LP optimum and its duals: in closed form on a compact
    master where no core row binds (`_closed_form`), else from HiGHS."""
    sol = _closed_form(model) or highs.solve_lp(model.lp)
    if not sol.optimal:
        raise MasterError(f"relaxation not solved to optimality: {sol.status} ({sol.message})")
    duals = np.asarray(sol.duals)
    topo = model.instance.topology

    def clamped(rows: list, keys: list, kind: str) -> np.ndarray:
        d = duals[rows]
        bad = np.flatnonzero(d > DUAL_SIGN_TOL)
        if bad.size:
            label = f"{kind}[{keys[bad[0]]}]"
            raise MasterError(f"{label}: <=-row dual {d[bad[0]]} is positive beyond tolerance")
        return np.where(d > 0.0, 0.0, d)  # as min(d, 0.0): -0.0 stays

    # end charges: end-flow duals times their coefficients (arc-flow masters
    # only), less the end cost
    end = -model.end_cost
    if model.end_entries:
        flat, rows, coefs = model.end_entries
        charge = np.zeros(end.size)
        np.add.at(charge, flat, coefs * duals[rows])
        end += charge.reshape(end.shape)
    core = clamped(model.core_row, topo.nfv_nodes, "core")
    if model.cap_row:
        capacity = clamped(model.cap_row, list(topo.arc_index), "cap")
    else:
        capacity = np.zeros(len(topo.arcs))
    prices = DualPrices(duals[model.conv_row], core, capacity, end)
    model.last_relaxation = sol
    return sol, prices


def _add_hosting_block(lp: LinearProgram, model: RmpModel, z0: int, k: int) -> None:
    """Binary hosting flags h[v], switched on by any selected column placing
    at v, with at most k of them set; pool position p is variable z0 + p.

    One row per (chain instance, node), in that order, holding +1 on each
    of the instance's pooled columns that place at the node, in pool order,
    and -1 on its flag, suffices: the convexity row lets at most one column
    of an instance be selected, so the sum of those columns is 0 or 1.
    """
    nfv = model.instance.topology.nfv_nodes
    n_nfv = len(nfv)
    h = np.array(lp.add_columns([f"h[{v}]" for v in nfv], np.zeros(n_nfv), ub=1.0, integer=True))
    # each pooled column's distinct nodes, pool position ascending
    loc = np.sort(model.z_loc, axis=1)
    p, at = np.nonzero(np.diff(loc, axis=1, prepend=-1))
    key, row = np.unique(model.z_ci[p] * n_nfv + loc[p, at], return_inverse=True)
    owner, host = np.divmod(key, n_nfv)
    cis = model.chain_instances
    names = [f"host[{cis[i].label}/{nfv[v]}]" for i, v in zip(owner.tolist(), host.tolist())]
    n = len(names)
    rows, cols = np.r_[row, np.arange(n)], np.r_[z0 + p, h[host]]
    lp.add_rows(names, [LE] * n, np.zeros(n), (rows, cols, np.r_[np.ones(len(p)), -np.ones(n)]))
    lp.add_rows(["kbudget"], [LE], [float(k)], (np.zeros(n_nfv, np.int64), h, np.ones(n_nfv)))


def build_final_ilp(model: RmpModel, k: int, *, full: bool = False) -> FinalIlp:
    """Integer selection over the pooled columns with at most k hosting nodes.

    The selection program (the default) is a slice of the master: its z
    columns, binary at their objectives, on its first rows, the convexity,
    core and capacity rows, plus the hosting block (`_add_hosting_block`).
    The full program (arc-flow master only) is the whole master with every
    variable integer and its artificial columns fixed at 0, plus the same
    hosting block.
    """
    master, first, ub = model.lp, model.z0, 1.0
    n_rows = len(model.conv_row) + len(model.core_row) + len(model.cap_row)
    if full:
        if model.compact:
            raise MasterError("a compact master has no full program: it has no end flows")
        first, n_rows, ub = 0, master.n_rows, master.ub.copy()
        ub[list(model.artificial.values())] = 0.0
    lp = LinearProgram(master.name if full else "selection")
    lp.add_columns(
        master.col_names[first:], master.obj[first:], lb=master.lb[first:], ub=ub, integer=True
    )
    rows, cols, values = master.entries
    keep = (cols >= first) & (rows < n_rows)
    lp.add_rows(
        master.row_names[:n_rows], master.relation[:n_rows], master.rhs[:n_rows],
        (rows[keep], cols[keep] - first, values[keep]),
    )
    _add_hosting_block(lp, model, model.z0 - first, k)
    return FinalIlp(lp=lp, full=full, z0=model.z0 - first)
