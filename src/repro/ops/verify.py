"""The per-interval state check of the fleet controller.

After each interval the deployed placement must survive
``build_states() -> _to_placement() -> assign_rates()`` byte-identically
— incremental bookkeeping (spares, preserved GPU ids, partial updates)
cannot have corrupted the map — the manager's live allocator state must
equal that rebuild GPU for GPU, and the live cluster's instances must
mirror the map exactly.

:class:`StateVerifier` runs that check.  On the fast path it is
incremental, and every Python-level pass costs O(what changed): a memo
of the last verified interval (per GPU its plan object, its rebuilt
state and the live allocator state found equal to it) lets it rebuild
only the GPUs whose plan is a new object, re-rate only the services
whose shares may have moved (comparing their served rates on the plans
it verified before instead of rendering those lines again), and compare
element-wise only the live states that are not the objects it verified
last.  Coverage stays
whole-fleet at pointer cost: plans are immutable, and the live fleet
freezes every state it commits (a later write replaces the object), so
an unchanged object is an unchanged value; finding the changed ones is
a C-level identity scan.  The rate-identity scan over every service,
the cluster-mirror compare and the fingerprint render stay whole-fleet
on purpose.
A cold memo (a fresh verifier) or reordered GPUs run the full rebuild
(:meth:`StateVerifier._check_state`, the ``fast_path=False`` reference),
which seeds the memo; both raise on the same corrupted states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse
from operator import is_not
from typing import ClassVar, Optional, Sequence

from repro.core.allocator import (
    SegmentAllocator,
    _GPUState,
    plan_from_state,
    states_from_placement,
)
from repro.core.deployment import DeploymentManager
from repro.core.placement import GPUPlan, PlacedSegment, Placement
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
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
    #: published plans plus the check's own round-trip plans of them)
    lines_rendered: int = 0
    #: served rates of re-rated services the check compared on plans it
    #: verified before (their lines are not rendered again)
    rates_compared: int = 0
    #: live allocator states the check compared element-wise with their
    #: rebuild (the whole fleet on a full check; the rest are the very
    #: objects it verified last)
    live_compared: int = 0

    OBS_FIELDS: ClassVar[dict[str, str]] = {
        "gpus_rebuilt": "counter",
        "services_rerated": "counter",
        "full_fallbacks": "counter",
        "lines_rendered": "counter",
        "live_compared": "counter",
        "rates_compared": "counter",
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


def _same_state(a: _GPUState, b: _GPUState) -> bool:
    """Whether two allocator states hold the same GPU.

    ``placed`` lists hold ``(Segment, start)`` pairs of tuples, so the
    segments compare as C-level tuple compares."""
    return (
        a.gpu_id == b.gpu_id
        and a.geometry.name == b.geometry.name
        and a.blocked == b.blocked
        and a.placed == b.placed
    )


def _live_diverged() -> OpsIdentityError:
    return OpsIdentityError(
        "live allocator state diverged from its rebuild (build_states)"
    )


def _live_matches(
    live: Sequence[_GPUState], states: Sequence[_GPUState]
) -> bool:
    """Whether the live allocator state equals ``states`` GPU for GPU."""
    return len(live) == len(states) and all(map(_same_state, live, states))


def _changed_at(new: Sequence[object], old: Sequence[object]) -> list[int]:
    """Positions where two aligned lists hold different objects (a
    C-level identity scan)."""
    return list(compress(range(len(new)), map(is_not, new, old)))


@dataclass
class _CheckMemo:
    """The last interval the state check verified, per GPU.

    For every GPU of the verified placement: its plan object and the
    ``_GPUState`` the check rebuilt from it (which also carries the
    GPU's instance specs and services).  Built by the check itself —
    never shared with the live fleet, so comparing the two stays a real
    comparison.
    """

    #: gpu ids in placement order, and each one's position
    order: list[int]
    pos: dict[int, int]
    #: gpu_id -> the verified plan (immutable: the same object is the
    #: same line)
    plans: dict[int, GPUPlan]
    states: dict[int, _GPUState]
    #: every instance the map deploys, per GPU
    want: _InstanceMap
    #: the request rates the verified map was routed with
    rates: dict[str, float]
    #: the services they were read from, and each one's rate object, in
    #: ``work`` order
    work: list[Service]
    rate_list: list[float]
    #: gpu_id -> the live allocator state found equal to ``states``
    #: (frozen, so still equal while it is the same object); empty when
    #: the manager had no live state
    live: dict[int, _GPUState]
    #: the same for the spares and retired sentinels after the live
    #: GPUs, with the manager's ledgers they were verified against
    ledger: dict[int, _GPUState]
    spares: dict[int, str]
    retired: dict[int, str]
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
            rebuilt, rerated, own, compared, rates_compared = counts
        else:
            stats.full_fallbacks += 1  # counted even if the check raises
            states, want, own = self._check_state(work, lines)
            live = self.manager.live_states()
            rates = {s.id: s.request_rate for s in work}
            gpus = placement.gpus
            order = [g.gpu_id for g in gpus]
            pos = dict(zip(order, range(len(order))))
            if self.fast_path and len(lines) == len(gpus) == len(pos):
                self.memo = _CheckMemo(
                    order=order,
                    pos=pos,
                    plans=dict(zip(order, gpus)),
                    states=dict(zip(order, states)),
                    want=want,
                    rates=rates,
                    work=list(work),
                    rate_list=[s.request_rate for s in work],
                    live={} if live is None else dict(zip(order, live)),
                    ledger=(
                        {} if live is None
                        else {s.gpu_id: s for s in live[len(order):]}
                    ),
                    spares=dict(self.manager.spare_gpus),
                    retired=dict(self.manager.retired_gpus),
                )
            rebuilt, rerated = len(states), len(rates)
            compared = 0 if live is None else len(live)
            rates_compared = 0
        rendered += own
        stats.gpus_rebuilt += rebuilt
        stats.services_rerated += rerated
        stats.lines_rendered += rendered
        stats.live_compared += compared
        stats.rates_compared += rates_compared
        return lines, {
            "gpus_rebuilt": rebuilt, "services_rerated": rerated,
            "lines_rendered": rendered, "live_compared": compared,
            "rates_compared": rates_compared, "full": int(counts is None),
        }

    def _check_incremental(
        self, memo: _CheckMemo, work: Sequence[Service], lines: list[str]
    ) -> Optional[tuple[int, int, int, int, int]]:
        """:meth:`_check_state`'s verdict, re-verifying only what changed.

        Only GPUs whose plan is not the object the memo verified take the
        ``states_from_placement -> plan_from_state`` round trip, and only
        services on a changed or vanished GPU, with a new rate object, or
        that joined or left ``work`` get their shares recomputed — over
        all their segments, in placement order, as ``assign_rates`` does.
        A changed plan's line is rendered from its round trip and
        compared in full.  On a plan the memo verified, every field but
        a re-rated segment's served rate is the object the memo already
        verified, so only those rates are compared, by ``repr`` — what
        the line renders: -0.0 is not 0.0, an int is not its float, and
        one nan is another.
        The live allocator state is compared element-wise only where it
        is not the object the memo verified or where the GPU's plan
        changed; the cluster mirror still compares every instance.
        Updates ``memo`` to this interval and returns ``(GPUs rebuilt,
        services re-rated, lines rendered, live states compared, served
        rates compared)``;
        raises as the reference would; returns None, touching nothing,
        where only the reference can decide: unchanged plans changed
        relative order (every share may sum in a new order), or the map
        holds an empty plan or a repeated GPU id.
        """
        placement = self.manager.current
        assert placement is not None
        gpus = placement.gpus
        n = len(gpus)
        order = [g.gpu_id for g in gpus]
        pos = dict(zip(order, range(n)))
        if not len(lines) == n == len(pos):
            return None
        verified = memo.plans
        at = _changed_at(gpus, list(map(verified.get, order)))
        changed = [order[i] for i in at]
        vanished = (
            list(verified.keys() - pos.keys())
            if len(verified) + sum(g not in verified for g in changed) != n
            else []
        )
        # Plans that did not change must keep their relative order.
        kept = list(order)
        for i in reversed(at):
            del kept[i]
        before = list(memo.order)
        old_pos = memo.pos
        for i in sorted(
            (old_pos[gid] for gid in changed + vanished if gid in old_pos),
            reverse=True,
        ):
            del before[i]
        if kept != before:
            return None

        # 1. the allocator-state round trip, for the changed GPUs only
        rebuilt = states_from_placement(
            Placement(framework="", gpus=[gpus[i] for i in at])
        )

        # 2. re-rate the services whose shares may have moved
        hosts = memo.hosts
        if hosts is None:
            hosts = memo.hosts = {}
            for gid in memo.order:
                for seg, _ in memo.states[gid].placed:
                    hosts.setdefault(seg.service_id, set()).add(gid)
        rates, rerate, rate_list = self._rates(memo, work)
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
        rendered, rates_compared = self._check_rates(
            {state.gpu_id: plan_from_state(state) for state in rebuilt},
            gpus, pos, lines, hosts, rerated,
            {sid: rates[sid] for sid in rerated if sid in rates},
        )

        # 3. the live allocator state, every GPU
        compared = self._check_live(memo, order, pos, at, vanished)

        # 4. the cluster mirror, every instance
        want = memo.want
        for gid in vanished:
            want.pop(gid, None)
        for state in rebuilt:
            want[state.gpu_id] = _instance_keys(state)
        mirror = self._cluster_instances()
        if want != mirror:
            raise OpsIdentityError(
                "live cluster instances do not mirror the deployment map"
            )
        # Equal values; keeping the cluster's own key tuples lets the next
        # compare skip every GPU whose tuple is still the same object.
        memo.want = mirror

        for gid in vanished:
            del verified[gid]
        for i in at:
            verified[order[i]] = gpus[i]
        memo.order = order
        memo.pos = pos
        memo.rates = rates
        memo.rate_list = rate_list
        return len(changed), len(rerated), rendered, compared, rates_compared

    @staticmethod
    def _check_rates(
        round_trip: dict[int, GPUPlan],
        gpus: list[GPUPlan],
        pos: dict[int, int],
        lines: list[str],
        hosts: dict[str, set[int]],
        rerated: list[str],
        rates: dict[str, float],
    ) -> tuple[int, int]:
        """Step 2 of :meth:`_check_incremental`: the re-rated services'
        shares, as the rebuild routes them, against the published map.

        ``round_trip`` holds the changed GPUs' rebuilt plans (rates
        unassigned); every other GPU hosting a re-rated service is a plan
        the memo verified.  Each service in ``rates`` sums its capacity
        over all its segments in placement order, as ``assign_rates``
        does; a re-rated service without a rate keeps the rebuild's
        unrouted 0.0.  Returns ``(lines rendered, served rates
        compared)``.
        """
        order = sorted(
            {gid for sid in rerated for gid in hosts.get(sid, ())},
            key=pos.__getitem__,
        )
        plans = [
            round_trip[gid] if gid in round_trip else gpus[pos[gid]]
            for gid in order
        ]
        capacities: dict[str, list[float]] = {sid: [] for sid in rates}
        for plan in plans:
            for seg in plan.segments:
                caps = capacities.get(seg.service_id)
                if caps is not None:
                    caps.append(seg.capacity)
        totals: dict[str, float] = {}
        for sid, caps in capacities.items():
            if not caps:
                raise ValueError(f"no partitions for service {sid!r}")
            totals[sid] = sum(caps)

        def served(seg: PlacedSegment) -> float:
            # the rebuild's served rate: assign_rates writes the share
            # over the unrouted 0.0 only where it differs
            sid = seg.service_id
            if sid not in rates:
                return 0.0
            share = rates[sid] * seg.capacity / totals[sid]
            return share if share != 0.0 else 0.0

        rerate = set(rerated)
        rendered = compared = 0
        for gid, plan in zip(order, plans):
            published = gpus[pos[gid]]
            if plan is not published:
                rendered += 1
                check = GPUPlan(gid, tuple(
                    seg.with_served_rate(served(seg)) for seg in plan.segments
                ), plan.geometry)
                same = check.fingerprint() == lines[pos[gid]]
            else:
                segs = [s for s in plan.segments if s.service_id in rerate]
                compared += len(segs)
                same = all(
                    repr(served(seg)) == repr(seg.served_rate) for seg in segs
                )
            if not same:
                raise OpsIdentityError(
                    "incremental placement does not survive the "
                    "allocator-state round trip (build_states -> "
                    "_to_placement)"
                )
        return rendered, compared

    @staticmethod
    def _rates(
        memo: _CheckMemo, work: Sequence[Service]
    ) -> tuple[dict[str, float], set[str], list[float]]:
        """The rate-identity scan over every service: ``work``'s rates,
        the services whose rate object is not the one the memo verified
        (or that joined or left), and the rate objects in ``work`` order.

        Identity, not ==: -0.0 == 0.0 and nan != nan, but an unchanged
        rate object is sure to route exactly as it did.  While ``work``
        holds the memo's services in its order, the scan compares rate
        objects position by position and patches the memo's map.
        """
        rate_list = [s.request_rate for s in work]
        if work == memo.work and len(memo.rates) == len(work):
            rates = memo.rates
            moved = _changed_at(rate_list, memo.rate_list)
            for i in moved:
                rates[work[i].id] = rate_list[i]
            return rates, {work[i].id for i in moved}, rate_list
        rates = {s.id: s.request_rate for s in work}
        rerate = {
            sid for sid, rate in rates.items()
            if memo.rates.get(sid) is not rate
        }
        rerate.update(sid for sid in memo.rates if sid not in rates)
        memo.work = list(work)
        return rates, rerate, rate_list

    def _check_live(
        self,
        memo: _CheckMemo,
        order: list[int],
        pos: dict[int, int],
        at: list[int],
        vanished: list[int],
    ) -> int:
        """Step 3 of :meth:`_check_incremental`: the live allocator state
        equals the rebuild GPU for GPU.

        A live state that is the object the memo verified for its GPU,
        on a GPU whose plan did not change (``at`` lists the positions
        whose did), still equals its rebuild: committed states are
        frozen.  Every other one is compared element-wise, and so are the
        spares and retired sentinels after it (see :meth:`_check_ledger`);
        returns how many were.
        """
        live = self.manager.live_states()
        verified = memo.live
        if live is None:
            verified.clear()
            memo.ledger.clear()
            return 0
        n = len(order)
        section = live[:n]
        suspect = set(_changed_at(section, list(map(verified.get, order))))
        suspect.update(at)
        states = memo.states
        if len(section) != n or not all(
            _same_state(section[i], states[order[i]]) for i in suspect
        ):
            raise _live_diverged()
        compared = self._check_ledger(memo, live[n:], pos)
        for gid in vanished:
            verified.pop(gid, None)
        for i in suspect:
            verified[order[i]] = section[i]
        return len(suspect) + compared

    def _check_ledger(
        self, memo: _CheckMemo, tail: list[_GPUState], pos: dict[int, int]
    ) -> int:
        """The live states after the placement's GPUs equal what
        :meth:`DeploymentManager.ledger_states` lists: an empty state per
        spare, then a blocked sentinel per retired id, in gpu-id order.

        The gpu ids are compared in one C-level list compare; a state is
        compared element-wise only where it is not the object the memo
        verified for its GPU or where the GPU's ledger entry changed.
        Returns how many were.
        """
        spares = self.manager.spare_gpus
        retired = self.manager.retired_gpus
        free = list(filterfalse(pos.__contains__, sorted(spares)))
        ids = free + list(filterfalse(pos.__contains__, sorted(retired)))
        if [state.gpu_id for state in tail] != ids:
            raise _live_diverged()
        verified = memo.ledger
        index = dict(zip(ids, range(len(ids))))
        suspect = set(_changed_at(tail, list(map(verified.get, ids))))
        moved = {gid for gid, _ in spares.items() ^ memo.spares.items()}
        moved.update(gid for gid, _ in retired.items() ^ memo.retired.items())
        suspect.update(index[gid] for gid in moved if gid in index)
        for i in suspect:
            gid = ids[i]
            if i < len(free):
                want = _GPUState(gpu_id=gid, geometry=get_geometry(spares[gid]))
            else:
                want = _GPUState(
                    gpu_id=gid, geometry=get_geometry(retired[gid]),
                    blocked=True,
                )
            if not _same_state(tail[i], want):
                raise _live_diverged()
        for gid in verified.keys() - index.keys():
            del verified[gid]
        for i in suspect:
            verified[ids[i]] = tail[i]
        memo.spares = dict(spares)
        memo.retired = dict(retired)
        return len(suspect)

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
