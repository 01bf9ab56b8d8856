"""The per-interval state check of the fleet controller.

After each interval the deployed placement must survive
``build_states() -> _to_placement() -> assign_rates()`` byte-identically
— incremental bookkeeping (spares, preserved GPU ids, partial updates)
cannot have corrupted the map — the manager's live allocator state must
equal that rebuild GPU for GPU, and the live cluster's instances must
mirror the map exactly.

:class:`StateVerifier` runs that check.  On the fast path it is
incremental: published plans are immutable and cache their fingerprint
lines, so rendering the map costs O(changed plans), and a memo of the
last verified interval (per GPU its line and rebuilt state) lets it
rebuild only the GPUs whose line changed and re-rate only the services
whose shares may have moved.  The live-state and cluster comparisons
still cover every GPU and instance, as C-level compares of small tuples
(tuple-backed allocator segments, the instance keys each cluster GPU
maintains).  A cold memo (a fresh verifier) or reordered GPUs run the
full rebuild (:meth:`StateVerifier._check_state`, the ``fast_path=False``
reference), which seeds the memo; both raise on the same corrupted
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

from repro.core.allocator import (
    SegmentAllocator,
    _GPUState,
    plan_from_state,
    states_from_placement,
)
from repro.core.deployment import DeploymentManager
from repro.core.placement import GPUPlan, Placement
from repro.core.service import Service
from repro.gpu.gpu import InstanceKey


class OpsIdentityError(RuntimeError):
    """An identity check failed: incremental state diverged from reference."""


@dataclass
class CheckStats:
    """Deterministic work counters of the per-interval state check.

    Sidecar-only (never fingerprinted); the fleet controller attaches
    them to its registry as ``check_*`` families.
    """

    #: GPUs the check rebuilt from the placement (the whole fleet, spares
    #: and retired sentinels included, on a full check)
    gpus_rebuilt: int = 0
    #: services whose proportional shares the check recomputed
    services_rerated: int = 0
    #: intervals checked by the full reference rather than the memo
    full_fallbacks: int = 0
    #: fingerprint lines the check rendered (cache misses: changed
    #: published plans plus the check's own round-trip plans)
    lines_rendered: int = 0

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "gpus_rebuilt": "counter",
        "services_rerated": "counter",
        "full_fallbacks": "counter",
        "lines_rendered": "counter",
    }


#: gpu_id -> the sorted keys of its instances, for every GPU hosting
#: one: how the state check compares the map with the cluster
_InstanceMap = dict[int, tuple[InstanceKey, ...]]


def _instance_keys(state: _GPUState) -> tuple[InstanceKey, ...]:
    """The instances a rebuilt GPU state deploys, as the check keys them
    (the per-GPU twin of :meth:`Placement.to_instance_specs`)."""
    return tuple(sorted(
        (state.gpu_id, start, seg.instance_size, seg.service_id)
        for seg, start in state.placed
    ))


def _live_matches(
    live: Sequence[_GPUState], states: Sequence[_GPUState]
) -> bool:
    """Whether the live allocator state equals ``states`` GPU for GPU.

    ``placed`` lists hold ``(Segment, start)`` pairs of tuples, so each
    GPU's segments compare as C-level tuple compares."""
    return len(live) == len(states) and all(
        a.gpu_id == b.gpu_id
        and a.geometry.name == b.geometry.name
        and a.blocked == b.blocked
        and a.placed == b.placed
        for a, b in zip(live, states)
    )


@dataclass
class _CheckMemo:
    """The last interval the state check verified, per GPU.

    For every GPU of the verified placement: its fingerprint line and
    the ``_GPUState`` the check rebuilt from it (which also carries the
    GPU's instance specs and services).  Built by the check itself —
    never shared with the live fleet, so comparing the two stays a real
    comparison.
    """

    #: gpu ids in placement order
    order: list[int]
    lines: dict[int, str]
    states: dict[int, _GPUState]
    #: every instance the map deploys, per GPU
    want: _InstanceMap
    #: the request rates the verified map was routed with
    rates: dict[str, float]
    #: service -> ids of the GPUs hosting it (built by the first
    #: incremental check, keeping the cold check as cheap as the reference)
    hosts: Optional[dict[str, set[int]]] = None


class StateVerifier:
    """Checks one deployment manager's state, interval after interval.

    Owns the memo of the last verified interval (cold when built) and
    the check's :class:`CheckStats`.  ``fast_path=False`` keeps the memo
    cold, so every interval runs the full reference.
    """

    def __init__(
        self, manager: DeploymentManager, fast_path: bool = True
    ) -> None:
        self.manager = manager
        self.fast_path = fast_path
        self.stats = CheckStats()
        #: the last verified interval (None: the next check runs the full
        #: reference)
        self.memo: Optional[_CheckMemo] = None

    def verify(
        self, work: Sequence[Service]
    ) -> tuple[list[str], dict[str, int]]:
        """The interval's state check: returns the placement's fingerprint
        lines and the check span's counts.

        The fast path checks incrementally against the memo of the last
        verified interval (:meth:`_check_incremental`); a cold memo, a
        structural change it cannot follow, and ``fast_path=False`` run
        the full reference :meth:`_check_state`, whose by-products seed
        the memo.  Published plans cache their lines, so the render costs
        O(changed plans); ``lines_rendered`` counts the lines the check
        rendered (cache misses), its own round-trip plans included.
        """
        placement = self.manager.current
        assert placement is not None
        lines, rendered = placement.render_lines()
        memo, self.memo = self.memo, None  # kept if verified
        counts = (
            None if memo is None else self._check_incremental(memo, work, lines)
        )
        stats = self.stats
        if counts is not None:
            self.memo = memo
            rebuilt, rerated, own = counts
        else:
            stats.full_fallbacks += 1  # counted even if the check raises
            states, want, own = self._check_state(work, lines)
            rates = {s.id: s.request_rate for s in work}
            gpus = placement.gpus
            order = [g.gpu_id for g in gpus]
            if self.fast_path and len(lines) == len(gpus) == len(set(order)):
                self.memo = _CheckMemo(
                    order=order,
                    lines=dict(zip(order, lines)),
                    states=dict(zip(order, states)),
                    want=want,
                    rates=rates,
                )
            rebuilt, rerated = len(states), len(rates)
        rendered += own
        stats.gpus_rebuilt += rebuilt
        stats.services_rerated += rerated
        stats.lines_rendered += rendered
        return lines, {
            "gpus_rebuilt": rebuilt, "services_rerated": rerated,
            "lines_rendered": rendered, "full": int(counts is None),
        }

    def _check_incremental(
        self, memo: _CheckMemo, work: Sequence[Service], lines: list[str]
    ) -> Optional[tuple[int, int, int]]:
        """:meth:`_check_state`'s verdict, re-verifying only what changed.

        Only GPUs whose fingerprint line differs from the memo take the
        ``states_from_placement -> plan_from_state`` round trip, and only
        services on a changed or vanished GPU, with a new rate, or that
        joined or left ``work`` get their shares recomputed — over all
        their segments, in placement order, as ``assign_rates`` does.
        The live-state and cluster-mirror comparisons still cover every
        GPU and every instance.  Updates ``memo`` to this interval and
        returns ``(GPUs rebuilt, services re-rated, lines rendered)``;
        raises as the
        reference would; returns None, touching nothing, where only the
        reference can decide: surviving GPUs changed relative order
        (every share may sum in a new order), or the map holds an empty
        plan or a repeated GPU id.
        """
        placement = self.manager.current
        assert placement is not None
        gpus = placement.gpus
        order = [g.gpu_id for g in gpus]
        pos = {gid: i for i, gid in enumerate(order)}
        if not len(lines) == len(gpus) == len(pos):
            return None
        old_lines = memo.lines
        if [gid for gid in order if gid in old_lines] != [
            gid for gid in memo.order if gid in pos
        ]:
            return None
        changed = [
            gid for gid, line in zip(order, lines) if old_lines.get(gid) != line
        ]
        vanished = [gid for gid in memo.order if gid not in pos]

        # 1. the allocator-state round trip, for the changed GPUs only
        rebuilt = states_from_placement(
            Placement(framework="", gpus=[gpus[pos[gid]] for gid in changed])
        )

        # 2. re-rate the services whose shares may have moved
        rates = {s.id: s.request_rate for s in work}
        hosts = memo.hosts
        if hosts is None:
            hosts = memo.hosts = {}
            for gid in memo.order:
                for seg, _ in memo.states[gid].placed:
                    hosts.setdefault(seg.service_id, set()).add(gid)
        # Identity, not ==: -0.0 == 0.0 and nan != nan, but an unchanged
        # rate object is sure to route exactly as it did.
        rerate = {
            sid for sid, rate in rates.items() if memo.rates.get(sid) is not rate
        }
        rerate.update(sid for sid in memo.rates if sid not in rates)
        for gid in vanished + changed:
            old = memo.states.pop(gid, None)
            if old is not None:
                for seg, _ in old.placed:
                    rerate.add(seg.service_id)
                    hosts[seg.service_id].discard(gid)
        for state in rebuilt:
            memo.states[state.gpu_id] = state
            for seg, _ in state.placed:
                rerate.add(seg.service_id)
                hosts.setdefault(seg.service_id, set()).add(state.gpu_id)
        rerated = sorted(rerate)
        for sid in rerated:
            if sid in hosts and not hosts[sid]:
                del hosts[sid]
        changed_ids = set(changed)
        plans: list[GPUPlan] = []
        for gid in sorted(
            {gid for sid in rerated for gid in hosts.get(sid, ())},
            key=pos.__getitem__,
        ):
            if gid in changed_ids:
                plans.append(plan_from_state(memo.states[gid]))
                continue
            # An unchanged line renders as its verified rebuild did: the
            # other services keep their shares, and the re-rated ones
            # restart from the rebuild's unrouted 0.0.
            shared = gpus[pos[gid]]
            plans.append(GPUPlan(
                gid,
                tuple(
                    s.with_served_rate(0.0) if s.service_id in rerate else s
                    for s in shared.segments
                ),
                shared.geometry,
            ))
        routed = Placement(framework="", gpus=plans)
        routed.assign_rates(
            {sid: rates[sid] for sid in rerated if sid in rates}
        )
        if any(
            plan.fingerprint() != lines[pos[plan.gpu_id]]
            for plan in routed.gpus
        ):
            raise OpsIdentityError(
                "incremental placement does not survive the allocator-state "
                "round trip (build_states -> _to_placement)"
            )

        # 3. the live allocator state, every GPU
        live = self.manager.live_states()
        if live is not None:
            states = [memo.states[gid] for gid in order]
            states += self.manager.ledger_states(pos)
            if not _live_matches(live, states):
                raise OpsIdentityError(
                    "live allocator state diverged from its rebuild "
                    "(build_states)"
                )

        # 4. the cluster mirror, every instance
        want = memo.want
        for gid in vanished:
            want.pop(gid, None)
        for state in rebuilt:
            want[state.gpu_id] = _instance_keys(state)
        if want != self._cluster_instances():
            raise OpsIdentityError(
                "live cluster instances do not mirror the deployment map"
            )

        for gid in vanished:
            del old_lines[gid]
        for gid in changed:
            old_lines[gid] = lines[pos[gid]]
        memo.order = order
        memo.rates = rates
        return len(changed), len(rerated), len(routed.gpus)

    def _check_state(
        self, work: Sequence[Service], lines: list[str]
    ) -> tuple[list[_GPUState], _InstanceMap, int]:
        """The per-interval round-trip + cluster-mirror identity check.

        ``lines`` are the current placement's fingerprint lines; the
        rebuilt map's plans are fresh, so its lines render from scratch
        and a stale cached line cannot pass.  The rebuild runs
        over the whole fleet on every interval; the live allocator state
        (when the last delta left one) must equal it GPU for GPU.  The
        full reference of :meth:`_check_incremental`: returns its
        by-products, the rebuilt states and the deployed instances, and
        the number of lines it rendered.
        """
        placement = self.manager.current
        assert placement is not None
        states = self.manager.build_states()
        allocator = SegmentAllocator(geometry=self.manager.geometry)
        rebuilt = allocator._to_placement(states)
        rebuilt.framework = placement.framework
        rebuilt.assign_rates({s.id: s.request_rate for s in work})
        rebuilt_lines, rendered = rebuilt.render_lines()
        if rebuilt_lines != lines:
            raise OpsIdentityError(
                "incremental placement does not survive the allocator-state "
                "round trip (build_states -> _to_placement)"
            )
        live = self.manager.live_states()
        if live is not None and not _live_matches(live, states):
            raise OpsIdentityError(
                "live allocator state diverged from its rebuild "
                "(build_states)"
            )
        keys: dict[int, set[InstanceKey]] = {}
        for s in placement.to_instance_specs():
            keys.setdefault(s.gpu_id, set()).add(
                (s.gpu_id, s.start, s.size, s.owner)
            )
        want = {gid: tuple(sorted(k)) for gid, k in keys.items()}
        if want != self._cluster_instances():
            raise OpsIdentityError(
                "live cluster instances do not mirror the deployment map"
            )
        return states, want, rendered

    def _cluster_instances(self) -> _InstanceMap:
        """Every instance on the live cluster, keyed as the map's are: a
        fresh map over the sorted keys each GPU maintains."""
        return {
            g.gpu_id: g.instance_keys
            for g in self.manager.cluster.gpus
            if g.instance_keys
        }
