"""The simulated farm as a projection of a synchronous run's round ledger."""

from __future__ import annotations

from .machine import FarmModel
from .trace import EventKind, FarmTrace

__all__ = ["project"]


def project(
    rounds: list, farm: FarmModel | None, n_slaves: int, m: int
) -> tuple[float, list[tuple[float, float, dict[int, float]]], FarmTrace | None]:
    """Charge the rounds of a sync run to ``farm``; ``m`` = constraints.

    A :class:`~repro.master.result.RoundStats` holds what the farm charges:
    task and report bytes and straggle slowdowns by slave id, and each
    accepted report's evaluations.  Returns the makespan, per round
    ``(round_virtual_seconds, communication_seconds,
    slave_virtual_seconds)``, and the trace of every charge plus each
    round's measured wall phases (none for a round without a phase split).
    Without a farm every round charges zero and there is no trace.

    Slaves are ranks ``0 … n_slaves-1``, the master rank ``n_slaves``; all
    clocks start at 0.  A round is the synchronous scheme:

    * **scatter** — the master's outgoing link sends the tasks one by one
      in slave-id order (``farm.transfer_seconds(bytes)`` each, on the
      master's clock); a slave cannot start before its task arrives;
    * **compute** — each slave with an accepted report burns
      ``farm.compute_seconds_on(k, evaluations, m)`` (its own speed on a
      heterogeneous farm) times its straggle slowdown;
    * **gather** — the master's incoming link takes the reports one by one
      in slave-id order, each once both the master and its sender are
      free; the event is filed under the sender;
    * **barrier** — every slave waits for the master to finish the round.

    A crashed slave is charged only the traffic that crossed the links, and
    the barrier still synchronizes every rank, so no clock runs backwards.
    A round's virtual seconds are the makespan's growth over it, its
    communication seconds its task transfers (in ledger order) plus its
    report transfers, its slave seconds the compute charges by slave id.
    Each value is a fixed sequence of float operations on the rounds, so it
    has the same bits on every read and every host.
    """
    if farm is None:
        return 0.0, [(0.0, 0.0, dict.fromkeys(s.report_evaluations, 0.0)) for s in rounds], None
    master = n_slaves
    t = [0.0] * (n_slaves + 1)
    trace = FarmTrace()
    record = trace.record
    transfer = farm.transfer_seconds
    charges = []
    for s in rounds:
        t_round_start = max(t)
        sends = {k: transfer(b) for k, b in s.task_nbytes.items()}
        for k in sorted(sends):
            t0 = t[master]
            t[master] = t0 + sends[k]
            record(master, EventKind.SEND, t0, t[master], f"task->{k}")
            t[k] = max(t[k], t[master])

        slave_seconds = {}
        for k in sorted(s.report_evaluations):
            dt = farm.compute_seconds_on(k, s.report_evaluations[k], m)
            dt *= float(s.slowdowns.get(k, 1.0))
            t0 = t[k]
            t[k] = t0 + dt
            record(k, EventKind.COMPUTE, t0, t[k], "round-search")
            slave_seconds[k] = dt

        comm_seconds = sum(sends.values(), 0.0)
        for k in sorted(s.report_nbytes):
            dt = transfer(s.report_nbytes[k])
            t0 = max(t[master], t[k])
            t[master] = t0 + dt
            record(k, EventKind.SEND, t0, t[master], f"report<-{k}")
            comm_seconds += dt

        barrier = t[master]
        for k in range(n_slaves):
            idle = max(0.0, barrier - t[k])
            t[k] = max(t[k], barrier)
            if idle > 0:
                record(k, EventKind.BARRIER_WAIT, barrier - idle, barrier, "barrier")
        charges.append((max(t) - t_round_start, comm_seconds, slave_seconds))
        if s.phase_wall_seconds:
            trace.record_wall_phases(
                s.round_index, s.phase_wall_seconds, s.gather_idle_s, s.master_wait_s
            )
    return max(t), charges, trace
