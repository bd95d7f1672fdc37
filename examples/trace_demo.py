"""Multi-group traces: generate -> replay on one substrate -> serve.

The whole `repro.traces` loop in one script:

1. generate a deterministic IGMP-like trace — N groups joining/leaving
   over a field of access points, with RSSI handovers that move a
   station for *every* group at once;
2. replay all groups through one MultiGroupSession and show the
   shared-artifact counters: the network/closure/xi substrate is built
   once per distinct geometry, not once per group;
3. verify the shared replay is bit-identical to fully independent cold
   per-group sessions (the acceptance property of the layer);
4. price the same (group, epoch) cells through the HTTP service wire
   protocol and check the echoes match the direct rows.

Run with ``PYTHONPATH=src python examples/trace_demo.py``.

This file is kept ``ruff format``-clean (CI checks it).
"""

import asyncio
import json

from repro.analysis.tables import format_table
from repro.dynamic import trajectory_row
from repro.service import CostSharingService, ServiceClient
from repro.traces import MultiGroupSession, check_trace_replay, generate_trace


def main() -> None:
    # -- 1. a deterministic handover trace ----------------------------------
    trace = generate_trace(
        n=16, groups=3, epochs=4, seed=7, aps=4, member_rate=0.7, handover_rate=0.15
    )
    counts = trace.event_counts()
    print(
        f"trace: {len(trace.groups)} groups x {trace.epochs} epochs over "
        f"n=16; {counts['join']} joins, {counts['leave']} leaves, "
        f"{counts['move']} handovers"
    )

    # -- 2. shared-substrate replay -----------------------------------------
    session = MultiGroupSession(trace)
    rows = session.replay("tree-shapley")
    table = [
        {"group": group, **trajectory_row(row)}
        for group in sorted(rows)
        for row in rows[group]
    ]
    print(format_table(table, title="tree-shapley over the trace"))
    counters = session.counters()
    print(
        f"substrates built {counters['substrate_sessions_built']}, "
        f"shared {counters['substrate_sessions_shared']} across "
        f"{len(trace.groups)} groups"
    )
    assert counters["substrate_sessions_built"] < len(trace.groups) * trace.epochs

    # -- 3. shared == cold per-group ----------------------------------------
    outcome = check_trace_replay(trace, "tree-shapley")
    assert outcome["identical"], outcome["mismatches"]
    cells = sum(len(group_rows) for group_rows in outcome["rows"].values())
    print(f"shared-substrate replay == cold per-group replay over {cells} cells")

    # -- 4. the same cells through the service wire protocol ----------------
    spec = trace.to_spec()
    profiles = [{str(a): float(a % 3 + 1) for a in spec.agents()}]

    async def serve_all():
        client = ServiceClient(CostSharingService())
        out = {}
        for epoch in range(spec.n_epochs):
            for group in spec.group_ids:
                status, payload = await client.run(
                    spec, "tree-shapley", profiles, epoch=epoch, group=group
                )
                assert status == 200, payload
                out[(group, epoch)] = payload
        await client.service.drain()
        return out, client.service.store.stats()

    payloads, stats = asyncio.run(serve_all())
    for (group, epoch), payload in payloads.items():
        assert (payload["group"], payload["epoch"]) == (group, epoch)
        direct = session.run_epoch(group, epoch, "tree-shapley", [
            {int(a): v for a, v in profiles[0].items()}
        ])
        from repro.api import result_to_dict

        assert json.dumps(payload["results"], sort_keys=True) == json.dumps(
            [result_to_dict(r) for r in direct], sort_keys=True
        )
    print(
        f"service: {len(payloads)} (group, epoch) cells priced over "
        f"{stats['size']} store entry/entries, {stats['hits']} warm hits"
    )


if __name__ == "__main__":
    main()
