"""The Switchboard capacity-provisioning LP (§5.3, Eqs 3-9).

One :class:`ScenarioLP` instance assembles and solves the LP for a single
failure scenario *f*:

* variables: ``S_tcx`` (share of config *c*'s calls in slot *t* hosted at
  DC *x*), ``CP_x`` (peak cores at DC *x*), ``NP_l`` (peak Gbps on link
  *l*);
* objective (Eq 3): ``min Σ WAN_Cost(l)·NP_l + Σ DC_Cost(x)·CP_x``;
* latency (Eq 4): handled structurally — ``S_tcx`` variables simply do not
  exist for DCs over the ACL threshold (PlacementData already applied the
  min-ACL fallback for stranded configs);
* serving capacity (Eqs 5-6): per-slot compute and per-slot/per-link
  network usage must fit under the peaks;
* completeness (Eq 9): every slot's demand is fully assigned;
* failure scenario: a failed DC contributes no options (its ``CP`` is
  structurally 0); a failed link forces rerouted paths (its ``NP`` is
  structurally 0).

The *peak-awareness* of §4.1 is native to this formulation: ``CP_x`` and
``NP_l`` are shared across all time slots, so the LP can shave a DC's peak
by pushing peak-hour calls to DCs that are off-peak, while off-peak hours
ride under capacity that peak hours already paid for.

**One serving-block assembler.**  The ``S_tcx`` block — activity masks,
capacity rows, option-major ``S`` columns with their completeness /
compute / network terms — is written once, in
:func:`assemble_serving_blocks`.  :class:`ScenarioLP` calls it with one
block; the joint LP (:mod:`repro.provisioning.joint`) with one block per
scenario over shared ``CP``/``NP`` columns; the daily allocation LP
(:mod:`repro.allocation.offline`) with one block and an overflow slack
per capacity row.

**Incremental (base-capacity) mode** implements the joint serving+backup
repurposing of §4.2: when ``base_cores``/``base_links`` are given, the
capacity variables price only what a scenario needs **in excess of** what
earlier scenarios already provisioned — capacity bought for India's 05:30
serving peak is free when the Japan-failure scenario reuses it as backup
at 00:00.  The planner feeds scenarios through in sequence, growing the
base, which realises Eqs 7-8's max-combining while keeping every capacity
unit priced exactly once.

**Numerical conditioning.**  HiGHS applies absolute feasibility
tolerances (~1e-7); demand below that scale is silently zeroed in
presolve, breaking the positive homogeneity the formulation assumes
(``cost(α·D) = α·cost(D)``).  :meth:`ScenarioLP.solve` therefore divides
every absolute input (demand, base capacities, DC core limits,
background traffic — they share constraint rows) by a common
conditioning scale before assembly, so the LP is *exactly* the original
problem rescaled, and multiplies the solution (shares, capacities, cost)
back afterwards.  The scale is the geometric mean of the inputs'
smallest and largest positive entries (see
:func:`~repro.provisioning.lp.conditioning_scale`), which keeps wide
dynamic ranges centered instead of pushing the small end under the
tolerance the way max-normalization would.
"""

from __future__ import annotations

import copy
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.config import checked_core_limits
from repro.core.errors import InfeasibleError, SolverError
from repro.core.types import CallConfig
from repro.provisioning.demand import PlacementData, PlacementOption
from repro.provisioning.failures import NO_FAILURE, FailureScenario
from repro.provisioning.lp import (
    LinearProgram,
    LPInstance,
    LPSolution,
    SolveStats,
    WarmEntry,
    WarmStartCache,
    conditioning_scale,
)
from repro.workload.arrivals import Demand

if TYPE_CHECKING:
    from repro.provisioning.background import BackgroundTraffic


def diagnose_infeasibility(placement: PlacementData, demand: Demand,
                           scenario: FailureScenario,
                           dc_core_limits: Optional[Mapping[str, float]] = None
                           ) -> Dict[str, object]:
    """Best-effort diagnosis: which constraint family, which scenario.

    Checked in order of how often they bite in practice:

    * **completeness (Eq 9)** — a config with demand has *zero* surviving
      placement options under the scenario, so its calls cannot be
      hosted anywhere;
    * **dc_core_limits (Eqs 5-6 caps)** — every usable DC is capped and a
      simple lower bound on required cores (each config priced at its
      cheapest option) already exceeds the combined cap;
    * otherwise the family is ``"unknown"`` (numerical trouble, or a
      binding interaction the cheap checks cannot see).

    The result is attached to the raised
    :class:`~repro.core.errors.InfeasibleError` as ``.diagnosis`` and
    recorded in the supervisor's ``solve.infeasible`` event.
    """
    diagnosis: Dict[str, object] = {"scenario": scenario.name}
    counts = demand.counts
    stranded: List[str] = []
    min_cores: List[float] = []
    capped = True
    caps = dict(dc_core_limits) if dc_core_limits else {}
    usable_dcs: set = set()
    for j, config in enumerate(demand.configs):
        options = placement.options_under_scenario(config, scenario)
        has_demand = bool((counts[:, j] > 0).any())
        if not options:
            min_cores.append(0.0)
            if has_demand:
                stranded.append(str(config))
            continue
        min_cores.append(min(option.cores_per_call for option in options))
        for option in options:
            usable_dcs.add(option.dc_id)
            if option.dc_id not in caps:
                capped = False
    if stranded:
        diagnosis["family"] = "completeness (Eq 9)"
        diagnosis["stranded_configs"] = stranded[:8]
        diagnosis["n_stranded"] = len(stranded)
        return diagnosis
    if caps and capped and usable_dcs:
        required_floor = float((counts * np.array(min_cores)).sum(axis=1).max())
        cap_total = sum(caps[dc_id] for dc_id in usable_dcs)
        if required_floor > cap_total:
            diagnosis["family"] = "dc_core_limits (capacity caps)"
            diagnosis["required_cores_floor"] = required_floor
            diagnosis["capped_cores_total"] = cap_total
            return diagnosis
    if caps:
        diagnosis["family"] = "dc_core_limits (capacity caps)"
        return diagnosis
    diagnosis["family"] = "unknown"
    return diagnosis


class _BuiltOnRead:
    """A dataclass field that may be given a zero-argument builder instead
    of its value: the first read calls the builder and keeps the value."""

    def __set_name__(self, owner, name: str) -> None:
        self._slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self._slot)  # no class-level default
        value = obj.__dict__[self._slot]
        if callable(value):
            value = obj.__dict__[self._slot] = value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self._slot] = value


@dataclass
class ScenarioResult:
    """Solved scenario: required capacity, allocation shares, and cost.

    ``cores``/``link_gbps`` are the *total* capacity this scenario needs
    (base + excess); ``excess_cores``/``excess_links`` are what it needed
    beyond the base it was given.  ``cost`` is Eq 3 priced at ``cores`` /
    ``link_gbps`` (no secondary objective terms).  ``stats`` records the
    LP's size and where its wall-clock time went.  ``shares`` may be
    given as a builder, which runs when they are first read: a rolling
    refresh reads only the capacities.
    """

    scenario: FailureScenario
    cores: Dict[str, float]
    link_gbps: Dict[str, float]
    excess_cores: Dict[str, float]
    excess_links: Dict[str, float]
    shares: Dict[Tuple[int, CallConfig], Dict[str, float]] = _BuiltOnRead()
    cost: float
    stats: SolveStats = field(default_factory=SolveStats)
    #: For portfolio/heuristic results: the certified relative optimality
    #: gap ``(upper - lower) / lower`` of the winning arm.  ``None`` means
    #: the result is an exact LP optimum (gap 0 by construction).
    bound_gap: Optional[float] = None

    def mean_acl_ms(self, placement: PlacementData, demand: Demand) -> float:
        """Demand-weighted mean ACL of this scenario's allocation."""
        acl_of: Dict[Tuple[CallConfig, str], float] = {}
        for config in demand.configs:
            for option in placement.options_under_scenario(config, self.scenario):
                acl_of[(config, option.dc_id)] = option.acl_ms
        weighted, total = 0.0, 0.0
        for (_, config), per_dc in self.shares.items():
            for dc_id, count in per_dc.items():
                if count <= 0:
                    continue
                weighted += acl_of[(config, dc_id)] * count
                total += count
        if total == 0:
            raise SolverError("scenario hosted no calls")
        return weighted / total


#: One serving block of :func:`assemble_serving_blocks`: its ``S`` key tag
#: (``None`` for ``("S", t, j, dc)``, an int ``f`` for
#: ``("S", f, t, j, dc)``), the placement options of each config (indexed
#: like the demand's configs) and the ``S`` objective of each option.
ServingBlock = Tuple[Optional[int], Sequence[Sequence[PlacementOption]],
                     Sequence[Sequence[float]]]

#: ``capacity_row(kind, resource, slots) -> (rhs, coupling)``: the
#: right-hand sides of one resource's capacity rows (one per slot) and the
#: column(s) entering them with coefficient -1.  ``kind`` is ``"CP"`` for
#: a DC and ``"NP"`` for a link; ``coupling`` is one shared column index
#: or one column per row.
CapacityRow = Callable[[str, str, np.ndarray], Tuple[np.ndarray, Any]]


def assemble_serving_blocks(lp: LinearProgram, counts: np.ndarray,
                            blocks: Sequence[ServingBlock],
                            capacity_row: CapacityRow) -> np.ndarray:
    """Add the ``S_tcx`` block(s) of §5.3's LP family to ``lp``.

    The provisioning LP (one block), the joint serving+backup LP (one
    block per scenario over shared ``CP``/``NP`` columns) and the daily
    allocation LP (one block, an overflow slack per capacity row) all
    share this block.  A capacity row exists for every (DC, slot) and
    (link, slot) that some config with demand in that slot can load in
    that block; ``capacity_row`` supplies its RHS and coupling column.
    Each (config, option) then gets one contiguous run of ``S`` columns
    across the config's active slots, appended to the completeness
    (Eq 9), compute (Eq 5) and network (Eq 6) rows as whole arrays.

    Numbering is a contract — an equivalent but re-numbered degenerate LP
    can send HiGHS to a different optimal vertex: compute rows in sorted
    (block, DC) order, then network rows in sorted (block, link) order;
    ``S`` columns in (block, config, option, slot) order after every
    column ``lp`` already holds or ``capacity_row`` adds.

    Returns, per completeness row added, the flat index
    (``t * n_configs + j``) of the demand cell that is its RHS.
    """
    n_slots, n_configs = counts.shape
    active_slots = [np.nonzero(counts[:, j] > 0)[0] for j in range(n_configs)]

    # Pass 1 — which capacity rows exist: per block, a slot mask per DC
    # and per link.
    new_mask = functools.partial(np.zeros, n_slots, dtype=bool)
    masks = [(defaultdict(new_mask), defaultdict(new_mask)) for _ in blocks]
    for (_, options, _), (dc_mask, link_mask) in zip(blocks, masks):
        for j, slots_j in enumerate(active_slots):
            if slots_j.size == 0:
                continue
            for option in options[j]:
                dc_mask[option.dc_id][slots_j] = True
                for link_id in option.link_gbps:
                    link_mask[link_id][slots_j] = True

    # One run of rows per (block, resource); rows[b] maps each DC and each
    # link to its slot -> row array (-1 where the slot has no row).
    rows = [({}, {}) for _ in blocks]
    for family, kind in enumerate(("CP", "NP")):
        for b, block_masks in enumerate(masks):
            for resource in sorted(block_masks[family]):
                slots = np.nonzero(block_masks[family][resource])[0]
                rhs, coupling = capacity_row(kind, resource, slots)
                start = lp.less_equal.new_rows(rhs)
                resource_rows = np.arange(start, start + slots.size)
                lp.less_equal.add_terms(resource_rows, coupling, -1.0)
                row_of = np.full(n_slots, -1, dtype=np.int64)
                row_of[slots] = resource_rows
                rows[b][family][resource] = row_of

    # Pass 2 — per (block, config): one contiguous S block (option-major
    # × active slots) and four batched appends.
    eq_demand = []
    for (tag, options, objective), block_rows in zip(blocks, rows):
        compute_row, network_row = block_rows
        for j, slots_j in enumerate(active_slots):
            n_active = slots_j.size
            if n_active == 0:
                continue
            slot_list = slots_j.tolist()
            config_options = options[j]
            n_options = len(config_options)
            eq_start = lp.equal.new_rows(counts[slots_j, j])
            eq_rows = np.arange(eq_start, eq_start + n_active)
            eq_demand.append(slots_j * n_configs + j)

            if tag is None:
                keys = [("S", t, j, option.dc_id)
                        for option in config_options for t in slot_list]
            else:
                keys = [("S", tag, t, j, option.dc_id)
                        for option in config_options for t in slot_list]
            col_start = lp.variables.add_batch(
                keys, objective=np.repeat(objective[j], n_active)
            )
            cols = np.arange(
                col_start, col_start + n_options * n_active
            ).reshape(n_options, n_active)

            lp.equal.add_terms(np.tile(eq_rows, n_options), cols.ravel(), 1.0)
            lp.less_equal.add_terms(
                np.concatenate([
                    compute_row[option.dc_id][slots_j]
                    for option in config_options
                ]),
                cols.ravel(),
                np.repeat([option.cores_per_call for option in config_options],
                          n_active),
            )
            link_rows, link_cols, link_vals = [], [], []
            for k, option in enumerate(config_options):
                for link_id, gbps in option.link_gbps.items():
                    link_rows.append(network_row[link_id][slots_j])
                    link_cols.append(cols[k])
                    link_vals.append(gbps)
            if link_rows:
                lp.less_equal.add_terms(
                    np.concatenate(link_rows),
                    np.concatenate(link_cols),
                    np.repeat(link_vals, n_active),
                )
    return (np.concatenate(eq_demand) if eq_demand
            else np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class ColumnLayout:
    """Where an assembled LP's columns sit, so a solution is read from its
    ``x`` by position: the ``CP`` and ``NP`` columns with their DC and
    link ids, and per ``S`` column its block tag (-1 for an untagged
    block), slot, config index and DC (an index into ``dc_ids``) — all in
    column order.  Other columns (the allocation LP's overflow slacks)
    are not listed."""

    cp_cols: np.ndarray
    cp_ids: Tuple[str, ...]
    np_cols: np.ndarray
    np_ids: Tuple[str, ...]
    s_cols: np.ndarray
    s_tag: np.ndarray
    s_slot: np.ndarray
    s_config: np.ndarray
    s_dc: np.ndarray
    dc_ids: Tuple[str, ...]

    @classmethod
    def of(cls, keys: Sequence[Tuple]) -> "ColumnLayout":
        cp_cols, cp_ids, np_cols, np_ids = [], [], [], []
        s_cols, s_tag, s_slot, s_config, s_dc = [], [], [], [], []
        for column, key in enumerate(keys):
            kind = key[0]
            if kind == "CP":
                cp_cols.append(column)
                cp_ids.append(key[1])
            elif kind == "NP":
                np_cols.append(column)
                np_ids.append(key[1])
            elif kind == "S":
                s_cols.append(column)
                s_tag.append(key[1] if len(key) == 5 else -1)
                s_slot.append(key[-3])
                s_config.append(key[-2])
                s_dc.append(key[-1])
        dc_ids = tuple(sorted(set(s_dc)))
        dc_of = {dc_id: d for d, dc_id in enumerate(dc_ids)}
        as_index = functools.partial(np.array, dtype=np.int64)
        return cls(as_index(cp_cols), tuple(cp_ids), as_index(np_cols),
                   tuple(np_ids), as_index(s_cols), as_index(s_tag),
                   as_index(s_slot), as_index(s_config),
                   as_index([dc_of[dc_id] for dc_id in s_dc]), dc_ids)


@dataclass(frozen=True)
class RhsSources:
    """Where an assembled :class:`ScenarioLP`'s RHS and bounds come from,
    so a same-signature problem can fill in its own without assembling:
    ``eq`` — each completeness row's flat demand index (``t·n_configs +
    j``); ``ub`` — each run of ``<=`` rows, in row order, as ``(kind,
    resource, slots)`` (:meth:`ScenarioLP._capacity_rhs`); ``capped`` —
    ``(column, dc_id)`` of each ``CP`` column a core limit bounds;
    ``columns`` — the :class:`ColumnLayout`."""

    eq: np.ndarray
    ub: Tuple[Tuple[str, str, Optional[np.ndarray]], ...]
    capped: Tuple[Tuple[int, str], ...]
    columns: ColumnLayout


class ScenarioLP:
    """Builds and solves the provisioning LP for one failure scenario."""

    def __init__(self, placement: PlacementData, demand: Demand,
                 scenario: FailureScenario = NO_FAILURE,
                 base_cores: Optional[Mapping[str, float]] = None,
                 base_links: Optional[Mapping[str, float]] = None,
                 latency_weight: float = 0.0,
                 background: Optional["BackgroundTraffic"] = None,
                 dc_core_limits: Optional[Mapping[str, float]] = None):
        """``latency_weight`` > 0 adds ``Σ S·ACL`` scaled by that weight to
        the objective — the allocation stage's Eq 10 as a secondary term.
        Provisioning uses 0 (pure cost, Eq 3).

        ``background`` is the §6.1 extension: non-conferencing per-link
        traffic that ``NP_l`` must also cover, so the LP minimizes the
        *overall* link peaks and steers calls to links whose background is
        off-peak.

        ``dc_core_limits`` caps how many cores a DC can provision at all —
        clouds do run out of regional capacity (the paper's refs [1-3]);
        a binding cap pushes calls to other DCs, and an impossible demand
        raises :class:`~repro.core.errors.InfeasibleError`.  A negative or
        non-finite cap raises :class:`~repro.core.errors.SolverError`.
        """
        self.placement = placement
        self.demand = demand
        self.scenario = scenario
        self.base_cores = dict(base_cores) if base_cores else {}
        self.base_links = dict(base_links) if base_links else {}
        self.latency_weight = latency_weight
        self.background = background
        self.dc_core_limits = checked_core_limits(dc_core_limits, SolverError)
        #: ``(S key tag, scenario)`` per serving block: one untagged block
        #: here; the joint LP
        #: (:class:`~repro.provisioning.joint.JointProvisioningLP`) puts one
        #: block per scenario, tagged with its index, over the same
        #: capacity columns.
        self.blocks: List[Tuple[Optional[int], FailureScenario]] = [
            (None, scenario)
        ]
        self._prepared: Optional[Tuple["ScenarioLP", LPInstance, float]] = None
        #: The cache entry :meth:`prepared` re-priced, if any.
        self._warm: Optional[WarmEntry] = None

    def _normalized(self, divisor: float) -> "ScenarioLP":
        """A copy of this problem with every absolute quantity ÷ divisor.

        Because the LP is positively homogeneous, the copy's optimum is
        exactly the original optimum ÷ divisor — but solved at a magnitude
        HiGHS's absolute tolerances handle well.  Division (rather than
        multiplying by ``1/divisor``) stays finite for subnormal scales.
        """
        problem = copy.copy(self)
        problem.demand = Demand(self.demand.slots, self.demand.configs,
                                self.demand.counts / divisor)
        problem.base_cores = {k: v / divisor for k, v in self.base_cores.items()}
        problem.base_links = {k: v / divisor for k, v in self.base_links.items()}
        if self.background is not None:
            problem.background = self.background.divided_by(divisor)
        problem.dc_core_limits = {
            k: v / divisor for k, v in self.dc_core_limits.items()
        }
        problem._prepared = None
        return problem

    def _core_headroom(self, dc_id: str) -> Optional[float]:
        """``CP``'s upper bound (``None``: uncapped): the cap applies to
        base + excess."""
        if dc_id not in self.dc_core_limits:
            return None
        return max(0.0, self.dc_core_limits[dc_id]
                   - self.base_cores.get(dc_id, 0.0))

    def _capacity_rhs(self, kind: str, resource: str,
                      slots: Optional[np.ndarray]) -> np.ndarray:
        """RHS of a DC's compute rows (``"CP"``), a link's network rows
        (``"NP"``, net of background) or its background-peak row
        (``"peak"``, ``slots`` unused)."""
        if kind == "CP":
            return np.full(slots.size, self.base_cores.get(resource, 0.0))
        base = self.base_links.get(resource, 0.0)
        if kind == "peak":
            return np.array([base - self.background.peak(resource)])
        rhs = np.full(slots.size, base)
        if self.background is not None:
            rhs -= self.background.series(resource)[slots]
        return rhs

    def build(self) -> Tuple[LinearProgram, RhsSources]:
        """Assemble the LP: ``CP``/``NP`` columns, the serving block(s)
        (:func:`assemble_serving_blocks`), then the background-peak rows;
        returns it with the record of its RHS and bound sources."""
        lp = LinearProgram()
        topology = self.placement.topology
        blocks: List[ServingBlock] = []
        used_dcs: set = set()
        used_links: set = set()
        for tag, scenario in self.blocks:
            options = [
                self.placement.options_under_scenario(config, scenario)
                for config in self.demand.configs
            ]
            for config_options in options:
                for option in config_options:
                    used_dcs.add(option.dc_id)
                    used_links.update(option.link_gbps)
            objective = [
                [self.latency_weight * option.acl_ms for option in config_options]
                for config_options in options
            ]
            blocks.append((tag, options, objective))

        # Capacity variables only for DCs/links that can actually be used:
        # what this problem must buy on top of the base.  With an empty
        # base these are the plain CP/NP of Eq 3.
        capped = []
        for dc_id in sorted(used_dcs):
            column = lp.variables.add(("CP", dc_id),
                                      objective=topology.dc_cost(dc_id),
                                      upper=self._core_headroom(dc_id))
            if dc_id in self.dc_core_limits:
                capped.append((column, dc_id))
        for link_id in sorted(used_links):
            lp.variables.add(("NP", link_id), objective=topology.wan_cost(link_id))

        ub_runs = []

        def capacity_row(kind, resource, slots):
            ub_runs.append((kind, resource, slots))
            return (self._capacity_rhs(kind, resource, slots),
                    lp.variables[("CP" if kind == "CP" else "NP", resource)])

        eq_demand = assemble_serving_blocks(lp, self.demand.counts, blocks,
                                            capacity_row)

        if self.background is not None:
            # NP must cover the background's own peak even in slots where
            # no conferencing traffic touches the link.
            for link_id in sorted(used_links):
                if self.background.peak(link_id) > 0:
                    rhs, column = capacity_row("peak", link_id, None)
                    lp.less_equal.add_term(lp.less_equal.new_rows(rhs),
                                           column, -1.0)
        return lp, RhsSources(eq_demand, tuple(ub_runs), tuple(capped),
                              ColumnLayout.of(lp.variables.keys()))

    def _repriced(self, instance: LPInstance) -> LPInstance:
        """A same-signature ``instance`` under this problem's RHS and
        bounds."""
        sources = instance.sources
        upper = instance.upper.copy()
        for column, dc_id in sources.capped:
            upper[column] = self._core_headroom(dc_id)
        return instance.with_rhs(
            np.concatenate([np.empty(0)] + [self._capacity_rhs(*run)
                                            for run in sources.ub]),
            self.demand.counts.ravel()[sources.eq],
            upper,
        )

    def prepared(self, warm_cache: Optional[WarmStartCache] = None
                 ) -> Tuple["ScenarioLP", LPInstance, float]:
        """``(normalized problem, materialized instance, scale)``, memoized.

        Conditioning, formulation build, and the COO→CSC conversion run
        once per ``ScenarioLP`` object however many consumers need the
        instance — the portfolio race prices a cached dual point on it
        first and, only if no heuristic arm certifies, hands the *same*
        instance to the exact solve.  On a ``warm_cache`` hit nothing is
        assembled: the cached instance is re-priced, byte for byte what a
        fresh build would give.
        """
        if self._prepared is None:
            t0 = time.perf_counter()
            groups = [
                self.demand.counts,
                list(self.base_cores.values()),
                list(self.base_links.values()),
                list(self.dc_core_limits.values()),
            ]
            if self.background is not None:
                groups.extend(
                    self.background.series(link_id)
                    for link_id in self.background.links()
                )
            scale = conditioning_scale(*groups)
            problem = self._normalized(scale) if scale != 1.0 else self
            if warm_cache is not None:
                self._warm = warm_cache.get(self.signature())
            if self._warm is not None:
                instance = problem._repriced(self._warm.instance)
            else:
                lp, sources = problem.build()
                instance = lp.snapshot()
                instance.sources = sources
            instance.assembly_seconds = time.perf_counter() - t0
            self._prepared = (problem, instance, scale)
        return self._prepared

    def dual_floor(self, warm_cache: Optional[WarmStartCache]
                   ) -> Optional[float]:
        """A lower bound on this LP's optimum from cached duals, if any.

        A previous solve with the same :meth:`signature` left its dual
        point in the cache; that point stays dual-feasible here (same
        matrix and objective — only the RHS moved), so pricing this
        instance's RHS against it bounds the optimum from below in
        **original units** (the bound scales back out of the
        conditioning normalization with the objective).  Returns ``None``
        when no usable duals are cached.
        """
        if warm_cache is None:
            return None
        duals = warm_cache.get_duals(self.signature())
        if duals is None:
            return None
        _, instance, scale = self.prepared(warm_cache)
        bound = instance.dual_bound(*duals)
        return None if bound is None else bound * scale

    def signature(self) -> Tuple:
        """Everything that shapes this LP's rows, columns, matrix and
        objective — its :class:`WarmStartCache` key.

        Equal signatures mean the same LP up to RHS and column bounds
        (demand, base, background levels, core-limit values): the day-N
        → day-N+1 and rolling-refresh relationship.  Pinned: placement,
        every block's failure sets, configs, slot count, the demand
        activity mask, which DCs are capped, ``latency_weight`` and which
        links carry a positive background peak (each adds a row).
        """
        background = self.background
        return (
            self.placement.fingerprint,
            tuple((tag, scenario.all_failed_dcs, scenario.all_failed_links)
                  for tag, scenario in self.blocks),
            tuple(self.demand.configs),
            self.demand.n_slots,
            (self.demand.counts > 0).tobytes(),
            tuple(sorted(self.dc_core_limits)),
            self.latency_weight,
            None if background is None else tuple(
                link_id for link_id in background.links()
                if background.peak(link_id) > 0),
        )

    def solve(self, warm_cache: Optional[WarmStartCache] = None
              ) -> ScenarioResult:
        """Normalize, assemble, solve, and rescale (see module docstring).

        On a ``warm_cache`` hit the cached instance is re-priced and
        solved from its cached basis (``stats.arm == "warm"``); either
        way the instance, final basis and duals are stored back.
        """
        return self.solve_blocks(warm_cache)[0]

    def solve_blocks(self, warm_cache: Optional[WarmStartCache] = None,
                     description: Optional[str] = None
                     ) -> List[ScenarioResult]:
        """:meth:`solve`, returning one result per serving block.

        The results share the capacities, their Eq 3 cost and the solve's
        :class:`SolveStats` record; each carries its own block's shares.
        """
        if description is None:
            description = f"provisioning[{self.scenario.name}]"
        try:
            problem, instance, scale = self.prepared(warm_cache)
            warm = self._warm
            solution = instance.solve(
                description, basis=warm.basis if warm is not None else None)
            if warm is not None:
                solution.stats.arm = "warm"
            if warm_cache is not None:
                warm_cache.put(self.signature(), instance, solution.basis,
                               solution.dual_ineq, solution.dual_eq)
        except InfeasibleError as exc:
            diagnosis = self._diagnose()
            raise InfeasibleError(
                f"{exc} [family: {diagnosis.get('family')}, "
                f"scenario: {diagnosis.get('scenario')}]",
                diagnosis=diagnosis,
            ) from None
        return self._extract(solution, instance.sources.columns,
                             problem.demand, scale)

    def _diagnose(self) -> Dict[str, object]:
        """The first block whose cheap diagnosis is conclusive, else an
        ``"unknown"`` verdict naming every block's scenario."""
        scenarios = [scenario for _, scenario in self.blocks]
        for scenario in scenarios:
            diagnosis = diagnose_infeasibility(
                self.placement, self.demand, scenario, self.dc_core_limits,
            )
            if diagnosis.get("family") != "unknown" or len(scenarios) == 1:
                return diagnosis
        return {"family": "unknown",
                "scenario": [scenario.name for scenario in scenarios]}

    def _extract(self, solution: LPSolution, columns: ColumnLayout,
                 solved_demand: Demand,
                 scale: float = 1.0) -> List[ScenarioResult]:
        """Map a (possibly normalized) solution back to original units.

        ``columns`` says where the solution's values sit in ``x``;
        ``solved_demand`` is the demand matrix the LP actually saw;
        ``scale`` multiplies every solution quantity back to the caller's
        units.  Shares are built when a result's are first read.
        """
        x = solution.x
        excess_cores = dict(zip(columns.cp_ids,
                                (x[columns.cp_cols] * scale).tolist()))
        excess_links = dict(zip(columns.np_ids,
                                (x[columns.np_cols] * scale).tolist()))
        cores = dict(self.base_cores)
        for dc_id, extra in excess_cores.items():
            cores[dc_id] = cores.get(dc_id, 0.0) + extra
        link_gbps = dict(self.base_links)
        for link_id, extra in excess_links.items():
            link_gbps[link_id] = link_gbps.get(link_id, 0.0) + extra

        topology = self.placement.topology
        cost = (
            sum(topology.dc_cost(dc) * v for dc, v in cores.items())
            + sum(topology.wan_cost(l) * v for l, v in link_gbps.items())
        )
        # The share filter is *relative* to each slot's demand — an
        # absolute cutoff would drop every share of a sub-tolerance slot
        # and leave tiny-but-nonzero demand looking unhosted.  The kept
        # columns are picked now; each block's dict is built on read.
        values = x[columns.s_cols]
        kept = np.flatnonzero(
            (values > 0.0) & (values >= 1e-9 * solved_demand.counts[
                columns.s_slot, columns.s_config]))
        results = []
        for tag, scenario in self.blocks:
            block = kept[columns.s_tag[kept] == (-1 if tag is None else tag)]
            results.append(ScenarioResult(
                scenario=scenario,
                cores=cores,
                link_gbps=link_gbps,
                excess_cores=excess_cores,
                excess_links=excess_links,
                shares=functools.partial(
                    shares_from_columns, self.demand.configs, columns.dc_ids,
                    columns.s_slot[block], columns.s_config[block],
                    columns.s_dc[block], values[block] * scale),
                cost=cost,
                stats=solution.stats,
            ))
        return results


def shares_from_columns(configs: Sequence[CallConfig], dc_ids: Sequence[str],
                        slots: np.ndarray, config_index: np.ndarray,
                        dc_index: np.ndarray, values: np.ndarray
                        ) -> Dict[Tuple[int, CallConfig], Dict[str, float]]:
    """A plan's ``{(slot, config): {dc_id: share}}`` from parallel arrays
    of its non-zero ``S`` columns, inserted in their order."""
    shares: Dict[Tuple[int, CallConfig], Dict[str, float]] = {}
    for t, j, d, value in zip(slots.tolist(), config_index.tolist(),
                              dc_index.tolist(), values.tolist()):
        shares.setdefault((t, configs[j]), {})[dc_ids[d]] = value
    return shares
