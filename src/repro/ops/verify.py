"""The per-interval state check of the fleet controller.

After each interval the deployed placement must survive
``build_states() -> _to_placement() -> assign_rates()`` byte-identically
— incremental bookkeeping (spares, preserved GPU ids, partial updates)
cannot have corrupted the map — the manager's live allocator state must
equal that rebuild GPU for GPU, and the live cluster's instances must
mirror the map exactly.

:class:`StateVerifier` runs that check.  On the fast path it is
incremental, and every Python-level pass costs O(what changed): a memo
of the last verified interval (its plans, lines and live states as
lists aligned with the placement, and per GPU its rebuilt state) lets
it rebuild only the GPUs whose plan is a new object, re-rate only the
services whose shares may have moved (comparing their served rates on
the plans it verified before instead of rendering those lines again),
and compare element-wise only the live states and cluster GPUs that are
not the objects it verified last.  Coverage stays whole-fleet at
pointer cost: plans are immutable, the live fleet freezes every state
it commits (a later write replaces the object) and a cluster GPU
replaces its instance-key tuple on every change, so an unchanged object
is an unchanged value; finding the changed ones is one C-level aligned
identity scan per list (:func:`~repro.core.align.aligned`) — over every
plan, service rate, live state and cluster GPU — with Python work only
where it finds a difference.
A cold memo is an empty memo: the first check of a verifier rebuilds
every GPU through the same incremental path, and a warm memo that
cannot follow the placement (a plan it verified moved, or a plan joined
between two kept ones) is retried once from an empty memo.  Only what
no memo can follow — an empty plan, a repeated GPU id or a repeated
service id — runs the full rebuild (:meth:`StateVerifier._check_state`,
the ``fast_path=False`` reference); both raise on the same corrupted
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from typing import ClassVar, Optional, Sequence

from repro.core.allocator import (
    SegmentAllocator,
    _GPUState,
    plan_from_state,
    states_from_placement,
)
from repro.core.align import Run, aligned, changed_at, spliced
from repro.core.deployment import DeploymentManager
from repro.core.placement import (
    GPUPlan, PlacedSegment, Placement, render_lines, same_segment_line,
)
from repro.core.service import Service
from repro.gpu.geometry import get_geometry
from repro.gpu.gpu import GPU, InstanceKey


class OpsIdentityError(RuntimeError):
    """An identity check failed: incremental state diverged from reference."""


@dataclass
class CheckStats:
    """Deterministic work counters of the per-interval state check.

    Sidecar-only (never fingerprinted); the fleet controller attaches
    them to its registry as ``check_*`` families.
    """

    #: GPUs the check rebuilt from the placement (the whole fleet, spares
    #: included, on a full check)
    gpus_rebuilt: int = 0
    #: services whose proportional shares the check recomputed
    services_rerated: int = 0
    #: intervals the full reference decided (every interval with
    #: ``fast_path=False``; on the fast path only a map no memo can
    #: follow)
    full_fallbacks: int = 0
    #: fingerprint lines the check rendered (cache misses: changed
    #: published plans; the full reference also renders its round-trip
    #: plans of them)
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


def _round_trip_failed() -> OpsIdentityError:
    return OpsIdentityError(
        "incremental placement does not survive the allocator-state "
        "round trip (build_states -> _to_placement)"
    )


def _not_mirrored() -> OpsIdentityError:
    return OpsIdentityError(
        "live cluster instances do not mirror the deployment map"
    )


@dataclass
class _CheckMemo:
    """The last interval the state check verified; empty when built.

    Its lists are aligned with the verified placement's plans, so the
    next check finds what changed with one aligned identity scan
    (:func:`~repro.core.align.aligned`) and patches only those
    positions — on an empty memo, every position.  Built by the check
    itself — never shared with the live fleet, so comparing the two
    stays a real comparison.
    """

    #: the verified plans in placement order, and each one's line
    gpus: list[GPUPlan] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    #: gpu_id -> the verified plan (immutable: the same object is the
    #: same line)
    plans: dict[int, GPUPlan] = field(default_factory=dict)
    #: gpu_id -> an order key, ascending in placement order: a GPU that
    #: left leaves a gap, a replacement takes a key of the gap it fills
    #: and an appended GPU one past every key given out (``next_rank``)
    rank: dict[int, int] = field(default_factory=dict)
    next_rank: int = 0
    #: gpu_id -> the ``_GPUState`` the check rebuilt from the verified
    #: plan (which also carries the GPU's instance specs and services)
    states: dict[int, _GPUState] = field(default_factory=dict)
    #: service -> ids of the GPUs hosting it
    hosts: dict[str, set[int]] = field(default_factory=dict)
    #: every instance the map deploys, per GPU
    want: _InstanceMap = field(default_factory=dict)
    #: the request rates the verified map was routed with
    rates: dict[str, float] = field(default_factory=dict)
    #: the services they were read from, and each one's rate object, in
    #: ``work`` order
    work: list[Service] = field(default_factory=list)
    rate_list: list[float] = field(default_factory=list)
    #: the live allocator states found equal to ``states``, aligned with
    #: ``gpus`` (frozen, so still equal while the same object); empty
    #: when the manager had no live state
    live: list[_GPUState] = field(default_factory=list)
    #: gpu_id -> the same for the spares after the live GPUs, in order,
    #: with the spare ledger they were verified against (both empty when
    #: none was)
    ledger: dict[int, _GPUState] = field(default_factory=dict)
    spares: dict[int, str] = field(default_factory=dict)
    #: the cluster's GPUs, each one's instance-key tuple as last
    #: compared, and gpu_id -> position
    cluster: tuple[GPU, ...] = ()
    cluster_keys: list[tuple[InstanceKey, ...]] = field(default_factory=list)
    cluster_at: dict[int, int] = field(default_factory=dict)


class StateVerifier:
    """Checks one deployment manager's state, interval after interval.

    Owns the memo of the last verified interval (None until a check
    passes) and the check's :class:`CheckStats`.  ``fast_path=False``
    keeps no memo, so every interval runs the full reference.
    """

    def __init__(
        self, manager: DeploymentManager, fast_path: bool = True
    ) -> None:
        self.manager = manager
        self.fast_path = fast_path
        self.stats = CheckStats()
        #: the last verified interval (None: the next check starts from
        #: an empty memo)
        self.memo: Optional[_CheckMemo] = None

    def verify(
        self, work: Sequence[Service]
    ) -> tuple[list[str], dict[str, int]]:
        """The interval's state check: returns the placement's fingerprint
        lines and the check span's counts.

        The fast path checks incrementally against the memo of the last
        verified interval (:meth:`_check_incremental`), or against an
        empty memo when there is none or the memo cannot follow the
        placement.  The full reference :meth:`_check_state` decides only
        what no memo can follow, and every interval with
        ``fast_path=False``; it leaves no memo.  Published plans cache
        their lines, so the render costs O(changed plans);
        ``lines_rendered`` counts the lines the check rendered (cache
        misses) — the reference renders its own round-trip plans too;
        the incremental check compares those field by field — and
        ``positions_compared`` the list positions (plans, live states,
        cluster GPUs, services) its identity scans flagged and compared
        element-wise — the whole of each list on a full check.  The memo
        keeps the lines list it returns; no check edits it in place.
        """
        placement = self.manager.current
        assert placement is not None
        memo, self.memo = self.memo, None  # kept if verified
        counts = None
        if self.fast_path:
            if memo is not None:
                counts = self._check_incremental(memo, work)
            if counts is None:
                memo = _CheckMemo()
                counts = self._check_incremental(memo, work)
        stats = self.stats
        if counts is not None:
            assert memo is not None
            self.memo = memo
            lines = memo.lines
            rebuilt, rerated, rendered, compared, rates_compared, positions = (
                counts
            )
        else:
            stats.full_fallbacks += 1  # counted even if the check raises
            lines, rendered, rebuilt = self._check_state(work)
            live = self.manager.live_states()
            rerated = len({s.id for s in work})
            compared = 0 if live is None else len(live)
            rates_compared = 0
            positions = (
                len(placement.gpus) + compared
                + len(self.manager.cluster.gpus) + len(work)
            )
        stats.gpus_rebuilt += rebuilt
        stats.services_rerated += rerated
        stats.lines_rendered += rendered
        stats.live_compared += compared
        stats.rates_compared += rates_compared
        return lines, {
            "gpus_rebuilt": rebuilt, "services_rerated": rerated,
            "lines_rendered": rendered, "live_compared": compared,
            "rates_compared": rates_compared,
            "positions_compared": positions, "full": int(counts is None),
        }

    def _check_incremental(
        self, memo: _CheckMemo, work: Sequence[Service]
    ) -> Optional[tuple[int, int, int, int, int, int]]:
        """:meth:`_check_state`'s verdict, re-verifying only what changed.

        One aligned identity scan of the placement's plans against the
        memo's finds the plans that are not the objects it verified
        (replaced, appended) and the positions that left; the memo's
        lines are patched at just those positions.  Only the new plans
        take the ``states_from_placement -> plan_from_state`` round trip,
        and only services on a new or vanished plan, with a new rate
        object, or that joined or left ``work`` get their shares
        recomputed — over all their segments, in placement order, as
        ``assign_rates`` does.  A changed plan's round trip is compared
        with the published plan in full, field by field.  On a plan the memo
        verified, every field but a re-rated segment's served rate is
        the object the memo already verified, so only those rates are
        compared, by ``repr`` — what the line renders: -0.0 is not 0.0,
        an int is not its float, and one nan is another.
        The live allocator state and the cluster's instances are compared
        element-wise only where the same aligned scans find an object
        that is not the one verified, or where the GPU's plan changed.
        On an empty memo every plan, service, live state and cluster GPU
        is new, so the whole fleet is checked.
        Updates ``memo`` to this interval and returns ``(GPUs rebuilt,
        services re-rated, lines rendered, live states compared, served
        rates compared, positions compared)``; raises as the reference
        would; returns None where this memo cannot follow the map: a
        plan it verified moved relative to the others (every share may
        sum in a new order) or a plan joined between two kept ones — an
        empty memo follows both — and where no memo can: the map holds
        an empty plan, a repeated GPU id or a repeated service id.
        """
        placement = self.manager.current
        assert placement is not None
        gpus = placement.gpus
        runs, added, dropped = aligned(gpus, memo.gpus)
        verified = memo.plans
        fresh = [gpus[i] for i in added]
        freed = dict.fromkeys(memo.gpus[j].gpu_id for j in dropped)
        changed: dict[int, None] = {}
        for plan in fresh:
            gid = plan.gpu_id
            if (
                not plan.segments or gid in changed
                or verified.get(gid) is plan  # moved
                or (gid in verified and gid not in freed)  # repeated
            ):
                return None
            changed[gid] = None
        vanished = [gid for gid in freed if gid not in changed]
        ranks = self._ranks(memo, gpus, runs, added, dropped)
        if ranks is None:
            return None
        fresh_lines, rendered = render_lines(fresh)
        lines = (
            spliced(memo.lines, runs, fresh_lines) if added or dropped
            else memo.lines
        )

        # 1. the allocator-state round trip, for the changed GPUs only
        rebuilt = states_from_placement(
            Placement(framework="", gpus=fresh)
        )

        # 2. re-rate the services whose shares may have moved
        hosts = memo.hosts
        scanned = self._rates(memo, work)
        if scanned is None:
            return None
        rerate, flagged = scanned
        rates = memo.rates
        for gid in vanished + list(changed):
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
        for gid in vanished:
            del verified[gid], memo.rank[gid]
        for plan in fresh:
            verified[plan.gpu_id] = plan
        memo.rank.update(ranks)
        # a retired GPU holds no state: the rebuild leaves it out, so a
        # service only it hosts has no partitions to route over
        retired = [gid for gid in self.manager.retired_gpus if gid in verified]
        for gid in retired:
            for seg, _ in memo.states[gid].placed:
                sid = seg.service_id
                if sid in rates and hosts[sid].issubset(retired):
                    raise ValueError(f"no partitions for service {sid!r}")
        if retired:
            raise _round_trip_failed()
        rates_compared = self._check_rates(
            {state.gpu_id: plan_from_state(state) for state in rebuilt},
            verified, memo.rank, hosts, rerated,
            {sid: rates[sid] for sid in rerated if sid in rates},
        )

        # 3. the live allocator state, every GPU
        compared = self._check_live(
            memo, gpus, runs, added, changed.keys() == freed.keys()
        )

        # 4. the cluster mirror, every instance
        mirrored = self._check_cluster(memo, rebuilt, vanished)

        memo.gpus = list(gpus)
        memo.lines = lines
        return (
            len(changed), len(rerated), rendered, compared,
            rates_compared, len(added) + compared + mirrored + flagged,
        )

    @staticmethod
    def _ranks(
        memo: _CheckMemo,
        gpus: list[GPUPlan],
        runs: list[Run],
        added: list[int],
        dropped: list[int],
    ) -> Optional[dict[int, int]]:
        """Order keys for the plans at ``added``, ascending in placement
        order with the kept plans' keys: each gap between two matched
        runs hands its dropped plans' keys to its added ones, and the
        gap at the end counts on from ``memo.next_rank``.  None where a
        gap before a kept plan added more plans than it dropped."""
        old = memo.gpus
        rank = memo.rank
        out: dict[int, int] = {}
        ai = di = 0
        ends = [(a, b) for a, b, _ in runs] + [(len(gpus), len(old))]
        for r, (a, b) in enumerate(ends):
            new = []
            while ai < len(added) and added[ai] < a:
                new.append(added[ai])
                ai += 1
            keys = []
            while di < len(dropped) and dropped[di] < b:
                keys.append(rank[old[dropped[di]].gpu_id])
                di += 1
            if len(new) > len(keys):
                if r < len(ends) - 1:
                    return None
                start = memo.next_rank
                memo.next_rank += len(new) - len(keys)
                keys.extend(range(start, memo.next_rank))
            for i, key in zip(new, keys):
                out[gpus[i].gpu_id] = key
        return out

    @staticmethod
    def _check_rates(
        round_trip: dict[int, GPUPlan],
        published: dict[int, GPUPlan],
        rank: dict[int, int],
        hosts: dict[str, set[int]],
        rerated: list[str],
        rates: dict[str, float],
    ) -> int:
        """Step 2 of :meth:`_check_incremental`: the re-rated services'
        shares, as the rebuild routes them, against the published map.

        ``round_trip`` holds the changed GPUs' rebuilt plans (rates
        unassigned); every other GPU hosting a re-rated service is a plan
        the memo verified.  Each service in ``rates`` sums its capacity
        over all its segments in placement order (``rank`` order), as
        ``assign_rates`` does; a re-rated service without a rate keeps
        the rebuild's unrouted 0.0.  A changed GPU's round trip is
        compared with its published plan field by field, as the line
        renders each field (:func:`~repro.core.placement.same_segment_line`),
        so the check renders no line of its own.  Returns the served
        rates compared on plans the memo verified.
        """
        order = sorted(
            {gid for sid in rerated for gid in hosts.get(sid, ())},
            key=rank.__getitem__,
        )
        plans = [
            round_trip[gid] if gid in round_trip else published[gid]
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
        compared = 0
        for gid, plan in zip(order, plans):
            ref = published[gid]
            if plan is not ref:
                # the re-rated round trip against the published plan,
                # field by field as its line renders them
                same = (
                    str(plan.geometry) == str(ref.geometry)
                    and len(plan.segments) == len(ref.segments)
                    and all(
                        same_segment_line(
                            seg.with_served_rate(served(seg)), want
                        )
                        for seg, want in zip(plan.segments, ref.segments)
                    )
                )
            else:
                segs = [s for s in plan.segments if s.service_id in rerate]
                compared += len(segs)
                same = all(
                    repr(served(seg)) == repr(seg.served_rate) for seg in segs
                )
            if not same:
                raise _round_trip_failed()
        return compared

    @staticmethod
    def _rates(
        memo: _CheckMemo, work: Sequence[Service]
    ) -> Optional[tuple[set[str], int]]:
        """The rate-identity scan over every service: patches
        ``memo.rates`` (``work``'s rates) and ``memo.rate_list`` (the
        rate objects in ``work`` order), and returns the services whose
        rate object is not the one the memo verified (or that joined or
        left) with how many positions the scan flagged; None for a
        repeated service id.

        Identity, not ==: -0.0 == 0.0 and nan != nan, but an unchanged
        rate object is sure to route exactly as it did.  The scan
        compares rate objects position by position over the runs ``work``
        shares with the memo's services; services that joined or left
        ``work`` (or moved in it) are looked up by id.
        """
        rates = memo.rates
        if len(rates) != len(memo.work):
            return None
        rate_list = [s.request_rate for s in work]
        if work == memo.work:
            runs: list[Run] = [(0, 0, len(work))]
            added: list[int] = []
            dropped: list[int] = []
        else:
            runs, added, dropped = aligned(work, memo.work)
        rerate: set[str] = set()
        flagged = 0
        old_rates = memo.rate_list
        for a, b, k in runs:
            moved = changed_at(rate_list[a:a + k], old_rates[b:b + k])
            flagged += len(moved)
            for d in moved:
                svc = work[a + d]
                rerate.add(svc.id)
                rates[svc.id] = rate_list[a + d]
        if added or dropped:
            left = dict.fromkeys(memo.work[j].id for j in dropped)
            joined = {work[i].id: rate_list[i] for i in added}
            if len(joined) != len(added) or any(
                sid in rates and sid not in left for sid in joined
            ):
                return None
            for sid in left:
                if sid not in joined:
                    rerate.add(sid)
                    del rates[sid]
            for sid, rate in joined.items():
                if rates.get(sid) is not rate:
                    rerate.add(sid)
                rates[sid] = rate
            flagged += len(added) + len(dropped)
        memo.work = list(work)
        memo.rate_list = rate_list
        return rerate, flagged

    def _check_live(
        self,
        memo: _CheckMemo,
        gpus: list[GPUPlan],
        runs: list[Run],
        added: list[int],
        same_ids: bool,
    ) -> int:
        """Step 3 of :meth:`_check_incremental`: the live allocator state
        equals the rebuild GPU for GPU.

        A live state that is the object the memo verified at the aligned
        position of an unchanged plan still equals its rebuild: committed
        states are frozen.  A run of such positions whose states compare
        equal to the verified ones (C-level: the same object, or equal
        field for field) is done; in any other run, every state that is
        not the verified object is compared element-wise with its
        rebuild, as is every state whose plan changed (``added``).  So
        are the spares after them (see :meth:`_check_ledger`;
        ``same_ids``: the placement holds the GPU ids it held).  Returns
        how many were.
        """
        live = self.manager.live_states()
        if live is None:
            # no ledger verified: the next one compares every state
            memo.live, memo.ledger, memo.spares = [], {}, {}
            return 0
        n = len(gpus)
        section = live[:n]
        old = memo.live
        if not old:
            suspect = list(range(n))
        else:
            suspect = list(added)
            for a, b, k in runs:
                now, then = section[a:a + k], old[b:b + k]
                if now != then:
                    suspect += [a + d for d in changed_at(now, then)]
        states = memo.states
        if len(section) != n or not all(
            _same_state(section[i], states[gpus[i].gpu_id]) for i in suspect
        ):
            raise _live_diverged()
        compared = self._check_ledger(memo, live[n:], same_ids)
        memo.live = section
        return len(suspect) + compared

    def _check_ledger(
        self, memo: _CheckMemo, tail: list[_GPUState], same_ids: bool
    ) -> int:
        """The live states after the placement's GPUs equal what
        :meth:`DeploymentManager.build_states` appends: an empty state per
        spare the placement does not list, in gpu-id order.

        While the placement holds the GPU ids it held (``same_ids``) and
        the spare ledger is the one verified, states equal to the verified
        ones are done.  Otherwise the gpu ids are compared in one C-level
        list compare, and a state is compared element-wise only where it
        is not the object the memo verified for its GPU or where the
        GPU's ledger entry changed.  Returns how many were.
        """
        spares = self.manager.spare_gpus
        if (
            same_ids and spares == memo.spares
            and tail == list(memo.ledger.values())
        ):
            return 0
        ids = list(filterfalse(memo.plans.__contains__, sorted(spares)))
        if [state.gpu_id for state in tail] != ids:
            raise _live_diverged()
        verified = memo.ledger
        index = dict(zip(ids, range(len(ids))))
        suspect = set(changed_at(tail, list(map(verified.get, ids))))
        moved = {gid for gid, _ in spares.items() ^ memo.spares.items()}
        suspect.update(index[gid] for gid in moved if gid in index)
        for i in suspect:
            gid = ids[i]
            want = _GPUState(gpu_id=gid, geometry=get_geometry(spares[gid]))
            if not _same_state(tail[i], want):
                raise _live_diverged()
        memo.ledger = dict(zip(ids, tail))
        memo.spares = dict(spares)
        return len(suspect)

    def _check_cluster(
        self,
        memo: _CheckMemo,
        rebuilt: list[_GPUState],
        vanished: list[int],
    ) -> int:
        """Step 4 of :meth:`_check_incremental`: the live cluster's
        instances mirror the map, every instance.

        The map's instances change only on the GPUs whose plan changed
        or vanished; the cluster's only where a GPU's instance-key tuple
        (replaced on every create and destroy) is not the one the memo
        compared, or where a GPU joined the pool.  Those GPUs are
        compared; any other change to the pool's GPUs compares the whole
        mirror.  Returns how many cluster GPUs were compared.
        """
        want = memo.want
        for gid in vanished:
            want.pop(gid, None)
        for state in rebuilt:
            want[state.gpu_id] = _instance_keys(state)
        cluster = self.manager.cluster.gpus
        keys = [g.instance_keys for g in cluster]
        m = len(memo.cluster)
        at = memo.cluster_at
        if cluster[:m] == memo.cluster:  # GPUs compare by identity
            flagged = (
                [] if keys[:m] == memo.cluster_keys
                else changed_at(keys, memo.cluster_keys)
            )
            flagged += range(m, len(cluster))
            for i in range(m, len(cluster)):
                at[cluster[i].gpu_id] = i
            gids = dict.fromkeys(cluster[i].gpu_id for i in flagged)
            gids.update(dict.fromkeys(vanished))
            gids.update(dict.fromkeys(s.gpu_id for s in rebuilt))
            for gid in gids:
                i = at.get(gid)
                if want.get(gid, ()) != (() if i is None else keys[i]):
                    raise _not_mirrored()
            compared = len(flagged)
        else:
            if want != self._cluster_instances():
                raise _not_mirrored()
            memo.cluster_at = {g.gpu_id: i for i, g in enumerate(cluster)}
            compared = len(cluster)
        memo.cluster = cluster
        memo.cluster_keys = keys
        return compared

    def _check_state(
        self, work: Sequence[Service]
    ) -> tuple[list[str], int, int]:
        """The per-interval round-trip + cluster-mirror identity check.

        The rebuilt map's plans are fresh, so its lines render from
        scratch and a stale cached line cannot pass.  The rebuild runs
        over the whole fleet on every interval; the live allocator state
        (when the last delta left one) must equal it GPU for GPU.  The
        full reference of :meth:`_check_incremental`: returns the
        placement's fingerprint lines, the number of lines it rendered
        and the number of GPUs it rebuilt.
        """
        placement = self.manager.current
        assert placement is not None
        lines, rendered = placement.render_lines()
        states = self.manager.build_states()
        allocator = SegmentAllocator(geometry=self.manager.geometry)
        rebuilt = allocator._to_placement(states)
        rebuilt.framework = placement.framework
        rebuilt.assign_rates({s.id: s.request_rate for s in work})
        rebuilt_lines, own = rebuilt.render_lines()
        if rebuilt_lines != lines:
            raise _round_trip_failed()
        live = self.manager.live_states()
        if live is not None and not _live_matches(live, states):
            raise _live_diverged()
        keys: dict[int, set[InstanceKey]] = {}
        for s in placement.to_instance_specs():
            keys.setdefault(s.gpu_id, set()).add(
                (s.gpu_id, s.start, s.size, s.owner)
            )
        want = {gid: tuple(sorted(k)) for gid, k in keys.items()}
        if want != self._cluster_instances():
            raise _not_mirrored()
        return lines, rendered + own, len(states)

    def _cluster_instances(self) -> _InstanceMap:
        """Every instance on the live cluster, keyed as the map's are: a
        fresh map over the sorted keys each GPU maintains."""
        return {
            g.gpu_id: g.instance_keys
            for g in self.manager.cluster.gpus
            if g.instance_keys
        }
