"""``python -m repro`` — experiment report, scenario pricing and sweep CLI.

Three modes:

* **Experiment report** (default): runs every experiment of DESIGN.md
  section 4 at moderate parameters and prints the paper-vs-measured
  tables.  Pass experiment ids to run a subset::

      python -m repro F1 F2 T6

* **Scenario pricing** (``run``): prices utility profiles over a
  declarative :class:`repro.api.ScenarioSpec` through the caching
  :class:`repro.api.MulticastSession` facade — the JSON-in/JSON-out shape
  a service speaks::

      python -m repro run --scenario spec.json --mechanism jv \\
          --profiles profiles.json --json

* **Parallel sweeps** (``sweep``): expands a :class:`repro.runner.SweepSpec`
  grid (layout families x sizes x alphas x seeds x mechanisms), prices it
  across worker processes, streams rows to a resumable JSONL sink, and
  prints the aggregated summary table::

      python -m repro sweep --spec sweep.json --workers 4 \\
          --out results.jsonl [--resume] [--audit]

* **Dynamic sessions** (``dynamic``): replays epoch-based churn
  (join/leave/move) over one scenario through the incremental
  :class:`repro.dynamic.DynamicSession`, printing the per-epoch
  trajectory; ``--check`` additionally recomputes every epoch cold and
  fails unless the rows are bit-identical::

      python -m repro dynamic --n 12 --epochs 4 --mechanism jv --check

* **Serving** (``serve`` / ``loadgen``): runs the asyncio HTTP/JSON
  endpoint of :mod:`repro.service` (LRU session store, execution
  group-committed per scenario, 429 backpressure), and drives it
  with a deterministic closed-loop load generator reporting p50/p95
  latency and throughput::

      python -m repro serve --port 8123 --cache-size 64
      python -m repro loadgen --port 8123 --requests 100 --concurrency 8

  The server exposes Prometheus text metrics on ``GET /metrics`` and
  writes structured JSON request logs with ``--request-log``;
  ``loadgen`` scrapes the metrics and summarizes per-stage latency next
  to its client-side percentiles.  SIGTERM stops ``serve`` and ``fleet``
  the way Ctrl-C does: the server drains, and a fleet router terminates
  its workers.  Any later SIGTERM is ignored while that shutdown runs.

* **Sharded fleets** (``fleet`` / ``serve --workers N``): the same wire
  protocol served by a consistent-hash router over N shared-nothing
  worker processes, with per-shard ``/metrics`` labels, ``/v1/fleet``
  add/drain admin endpoints and graceful rehash on resize; ``loadgen
  --keys K --zipf S`` generates the fleet-shaped skewed workload and
  ``--expect-shards N`` turns the per-shard report into a CI gate::

      python -m repro fleet --port 8123 --workers 4
      python -m repro loadgen --port 8123 --requests 200 --keys 12 \\
          --zipf 1.1 --expect-shards 4

* **Multi-group traces** (``trace``): generate IGMP-like multi-group
  handover traces (frozen JSONL format), validate trace files, and
  replay them through the substrate-sharing
  :class:`repro.traces.MultiGroupSession`; ``--check`` recomputes every
  ``(group, epoch)`` cell through independent cold per-group sessions
  and fails unless the rows are bit-identical.  ``loadgen --trace FILE``
  replays a trace closed-loop against a running service or fleet and
  reports per-group cost-share trajectories::

      python -m repro trace generate --out trace.jsonl --n 24 --groups 3
      python -m repro trace replay trace.jsonl --mechanism jv --check
      python -m repro loadgen --port 8123 --trace trace.jsonl --expect-groups 3

* **Telemetry snapshots** (``metrics-dump``): one JSON dump of the
  metrics — scraped from a running service, or accumulated in-process by
  running a sweep spec::

      python -m repro metrics-dump --port 8123
      python -m repro metrics-dump --spec sweep.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.analysis import experiments as E
from repro.analysis.tables import format_table

RUNNERS = {
    "F1": ("Fig. 1 — NWST mechanism collusion", lambda: E.exp_f1_collusion()),
    "F2": ("Fig. 2 — pentagon empty core", lambda: E.exp_f2_empty_core()),
    "T1": ("Lemma 2.1 / §2.1 — universal-tree mechanisms",
           lambda: E.exp_t1_universal_tree(n_instances=4, n=7)),
    "T2": ("Thms 2.2/2.3 — NWST mechanism",
           lambda: E.exp_t2_nwst(n_instances=4, n=14, k=5, check_sp=False)),
    "T3": ("§2.2.3 — wireless multicast mechanism",
           lambda: E.exp_t3_wireless(n_instances=4, n=7)),
    "T4": ("Lemma 3.1 / Thm 3.2 — optimal Euclidean mechanisms",
           lambda: E.exp_t4_euclidean_optimal(n_instances=3, n=7)),
    "T5": ("Lemma 3.3 — core emptiness frequency",
           lambda: E.exp_t5_core_emptiness(n_instances=20, n=6)),
    "T6": ("Lemmas 3.4/3.5 — Steiner/MST bounds",
           lambda: E.exp_t6_steiner_bounds(n_instances=6, n=8)),
    "T7": ("Thms 3.6/3.7 — Jain-Vazirani mechanism",
           lambda: E.exp_t7_jv(n_instances=4, n=7)),
    "E1": ("C* non-submodularity at small scale",
           lambda: E.exp_e1_nonsubmodularity(n_instances=10, n=6)),
    "E2": ("Distributed tree protocol (Penna-Ventre)",
           lambda: E.exp_e2_distributed()),
    "E3": ("Properties matrix (all mechanisms vs all axioms)",
           lambda: E.exp_e3_properties_matrix()),
    "E4": ("Efficiency loss of BB methods (Shapley vs marginal vectors)",
           lambda: E.exp_e4_efficiency_loss()),
    "S1": ("Fleet sweep — layout families x mechanisms (repro.runner)",
           lambda: E.exp_s1_sweep_fleet()),
    "S2": ("Batched mechanism pipeline (repro.api session facade)",
           lambda: E.exp_s2_batch_pipeline()),
    "D1": ("Dynamic session — cost-share trajectories under churn (repro.dynamic)",
           lambda: E.exp_d1_churn_trajectories()),
    "A1": ("Ablation — universal-tree choice", lambda: E.exp_a1_tree_ablation()),
    "A2": ("Ablation — spider flavour", lambda: E.exp_a2_spider_ablation()),
    "A3": ("Ablation — JV share family", lambda: E.exp_a3_jv_weights()),
    "A4": ("Baseline — multicast heuristics vs C*",
           lambda: E.exp_a4_multicast_heuristics()),
}


def run_command(argv: list[str]) -> int:
    """The ``run`` subcommand: spec JSON in, result JSON (or a table) out."""
    from repro.api import (
        MechanismSpec,
        MulticastSession,
        ScenarioSpec,
        available_mechanisms,
        result_to_dict,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Price utility profiles over a declarative scenario spec.",
    )
    parser.add_argument("--scenario", required=True,
                        help="path to a ScenarioSpec JSON file")
    parser.add_argument("--mechanism", required=True,
                        help=f"registry name, one of: {', '.join(available_mechanisms())}")
    parser.add_argument("--profiles", required=True,
                        help="path to a JSON utility profile ({station: utility}) "
                             "or a list of them")
    parser.add_argument("--params", default=None,
                        help="optional path to a JSON dict of mechanism parameters")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full JSON payload instead of a table")
    parser.add_argument("--out", default=None,
                        help="write the JSON payload to this path")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the pricing run and print per-stage "
                             "(build/closure/tree/xi) attribution to stderr")
    args = parser.parse_args(argv)

    if args.mechanism not in available_mechanisms():
        # stdout is reserved for the result payload (it gets piped).
        print(f"unknown mechanism {args.mechanism!r}; "
              f"available: {list(available_mechanisms())}", file=sys.stderr)
        return 2

    # Predictable bad inputs (missing/malformed files, invalid specs or
    # profiles) get a diagnostic + exit 2, not a traceback.
    try:
        scenario = ScenarioSpec.from_json(pathlib.Path(args.scenario).read_text())
        raw = json.loads(pathlib.Path(args.profiles).read_text())
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list) or not all(isinstance(p, dict) for p in raw):
            raise ValueError(
                "profiles must be a JSON object {station: utility} or a list of them")
        profiles = [{int(a): float(v) for a, v in prof.items()} for prof in raw]
        params = json.loads(pathlib.Path(args.params).read_text()) if args.params else {}
        mspec = MechanismSpec(args.mechanism, params)

        from repro.runner.profiling import maybe_profile

        with maybe_profile(args.profile) as prof:
            session = MulticastSession(scenario)
            results = session.run_batch(mspec, profiles)
        if prof is not None:
            prof.report(sys.stderr)
    except (OSError, ValueError, TypeError) as exc:
        # ValueError covers json.JSONDecodeError, bad specs/params, and
        # profile validation (missing/stray agents, negative utilities).
        print(f"error: {exc}", file=sys.stderr)
        return 2

    payload = {
        "schema": 1,
        "scenario": scenario.to_dict(),
        "mechanism": mspec.to_dict(),
        "results": [result_to_dict(r) for r in results],
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            pathlib.Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.as_json:
        print(text)
    else:
        rows = [{
            "profile": idx,
            "receivers": len(r.receivers),
            "charged": r.total_charged(),
            "cost": r.cost,
        } for idx, r in enumerate(results)]
        print(format_table(
            rows, title=f"{args.mechanism} on {scenario.kind} scenario "
                        f"(n={scenario.n_stations}, source={scenario.source})"))
    return 0


def _audit_verdict(rows: list[dict], where, *, clean_stream=None) -> int:
    """Shared audit epilogue: itemize violations to stderr (exit 1) or
    print the clean-audit line (exit 0).  ``where(row)`` labels a row;
    ``clean_stream`` routes the clean line (stderr when stdout must stay
    machine-parseable, e.g. under ``--json``)."""
    violations = [(row, v) for row in rows for v in row["audit"]["violations"]]
    if violations:
        for row, violation in violations:
            print(f"AXIOM VIOLATION in {where(row)}: {violation}", file=sys.stderr)
        return 1
    print(f"audit: {len(rows)} rows, 0 axiom violations",
          file=clean_stream or sys.stdout)
    return 0


def sweep_command(argv: list[str]) -> int:
    """The ``sweep`` subcommand: grid JSON in, JSONL rows + summary out."""
    from repro.runner import SweepSpec, run_sweep, summarize_rows

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Expand a SweepSpec grid and price it across processes.",
    )
    parser.add_argument("--spec", required=True,
                        help="path to a SweepSpec JSON file")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default 1 = serial; outputs "
                             "are identical either way)")
    parser.add_argument("--out", default=None,
                        help="JSONL sink path (one row per work item, "
                             "appended as items complete)")
    parser.add_argument("--resume", action="store_true",
                        help="skip items already present in --out (requires --out)")
    parser.add_argument("--audit", action="store_true",
                        help="run the axiom auditors (NPT/VP/cost recovery + "
                             "budget-balance factor) on every row and embed "
                             "the report; exit 1 on any violation")
    parser.add_argument("--by", default="layout,mechanism,n,alpha",
                        help="comma-separated summary grouping columns "
                             "(default: layout,mechanism,n,alpha)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the sweep and print per-stage "
                             "(build/closure/tree/xi) attribution to stderr "
                             "(profiles this process only — use --workers 1)")
    args = parser.parse_args(argv)

    if args.profile and args.workers != 1:
        print("error: --profile needs --workers 1 (worker processes are "
              "not captured by the parent's profiler)", file=sys.stderr)
        return 2
    if args.resume and not args.out:
        print("error: --resume requires --out (the sink to resume from)",
              file=sys.stderr)
        return 2

    def progress(row: dict) -> None:
        # stdout is reserved for the summary table (it gets piped).
        print(f"  done {row['item']}", file=sys.stderr)

    try:
        from repro.runner.profiling import maybe_profile

        spec = SweepSpec.from_json(pathlib.Path(args.spec).read_text())
        t0 = time.perf_counter()
        with maybe_profile(args.profile) as prof:
            rows = run_sweep(spec, workers=args.workers, out=args.out,
                             resume=args.resume, audit=args.audit,
                             progress=progress)
        elapsed = time.perf_counter() - t0
        if prof is not None:
            prof.report(sys.stderr)
    except (OSError, ValueError, TypeError) as exc:
        # ValueError covers json.JSONDecodeError, bad specs, and unknown
        # mechanism names (the message lists the registered ones).
        print(f"error: {exc}", file=sys.stderr)
        return 2

    epochs = "" if spec.churn is None else f" x {spec.n_epochs()} epochs"
    by = [c.strip() for c in args.by.split(",") if c.strip()]
    print(format_table(
        summarize_rows(rows, by=by),
        title=f"sweep: {spec.n_items()} items ({len(spec.scenarios())} scenarios x "
              f"{len(spec.mechanisms)} mechanisms{epochs} = {len(rows)} rows) "
              f"in {elapsed:.1f}s with {args.workers} worker(s)"))
    if args.out:
        print(f"rows: {args.out}")
    if args.audit:
        return _audit_verdict(rows, lambda row: (
            row["item"] if row.get("epoch") is None
            else f"{row['item']} epoch {row['epoch']}"))
    return 0


def dynamic_command(argv: list[str]) -> int:
    """The ``dynamic`` subcommand: churn spec in, per-epoch trajectory out."""
    from repro.api import available_mechanisms
    from repro.dynamic import ChurnSpec, DynamicScenarioSpec, DynamicSession, replay_dynamic, trajectory_row
    from repro.geometry.layouts import LAYOUT_FAMILIES
    from repro.runner import ProfileSpec

    parser = argparse.ArgumentParser(
        prog="python -m repro dynamic",
        description="Replay epoch-based churn over one scenario through the "
                    "incremental DynamicSession.",
    )
    parser.add_argument("--spec", default=None,
                        help="path to a DynamicScenarioSpec JSON file "
                             "(overrides the inline scenario flags)")
    parser.add_argument("--n", type=int, default=12, help="stations (inline spec)")
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0, help="layout seed")
    parser.add_argument("--side", type=float, default=10.0)
    parser.add_argument("--layout", default="uniform",
                        help=f"layout family, one of: {', '.join(LAYOUT_FAMILIES)}")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--churn-seed", type=int, default=0)
    parser.add_argument("--join-rate", type=float, default=0.2)
    parser.add_argument("--leave-rate", type=float, default=0.2)
    parser.add_argument("--move-rate", type=float, default=0.0)
    parser.add_argument("--move-scale", type=float, default=0.5)
    parser.add_argument("--mechanism", default="tree-shapley",
                        help=f"registry name, one of: {', '.join(available_mechanisms())}")
    parser.add_argument("--profile-count", type=int, default=3,
                        help="utility profiles priced per epoch")
    parser.add_argument("--profile-generator", default="uniform",
                        choices=("uniform", "constant"))
    parser.add_argument("--audit", action="store_true",
                        help="audit NPT/VP/cost recovery every epoch; exit 1 "
                             "on any violation")
    parser.add_argument("--check", action="store_true",
                        help="also recompute every epoch cold and fail unless "
                             "the incremental rows are bit-identical")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full JSON payload instead of a table")
    parser.add_argument("--out", default=None,
                        help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    if args.mechanism not in available_mechanisms():
        print(f"unknown mechanism {args.mechanism!r}; "
              f"available: {list(available_mechanisms())}", file=sys.stderr)
        return 2

    try:
        if args.spec is not None:
            spec = DynamicScenarioSpec.from_json(pathlib.Path(args.spec).read_text())
        else:
            spec = DynamicScenarioSpec(
                kind="random", n=args.n, alpha=args.alpha, seed=args.seed,
                side=args.side, layout=args.layout,
                churn=ChurnSpec(epochs=args.epochs, seed=args.churn_seed,
                                join_rate=args.join_rate,
                                leave_rate=args.leave_rate,
                                move_rate=args.move_rate,
                                move_scale=args.move_scale),
            )
        profile_spec = ProfileSpec(generator=args.profile_generator,
                                   count=args.profile_count)
        dyn = DynamicSession(spec)
        t0 = time.perf_counter()
        rows = replay_dynamic(dyn, args.mechanism, profile_spec, audit=args.audit)
        incremental_s = time.perf_counter() - t0
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check:
        t0 = time.perf_counter()
        cold = replay_dynamic(spec, args.mechanism, profile_spec,
                              incremental=False, audit=args.audit)
        cold_s = time.perf_counter() - t0
        if rows != cold:
            print("CHECK FAILED: incremental epoch replay diverged from cold "
                  "recomputation", file=sys.stderr)
            return 1
        speedup = cold_s / incremental_s if incremental_s > 0 else float("inf")
        print(f"check: incremental == cold over {len(rows)} epochs "
              f"(incremental {incremental_s:.3f}s, cold {cold_s:.3f}s, "
              f"{speedup:.2f}x)",
              # stdout stays machine-parseable under --json
              file=sys.stderr if args.as_json else sys.stdout)

    payload = {
        "schema": 1,
        "scenario": spec.to_dict(),
        "mechanism": args.mechanism,
        "rows": rows,
        "reuse": dyn.counters,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            pathlib.Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.as_json:
        print(text)
    else:
        table = [trajectory_row(row) for row in rows]
        counters = dyn.counters
        print(format_table(
            table, title=f"{args.mechanism} under churn "
                         f"(n={spec.n_stations}, {spec.n_epochs} epochs, "
                         f"sessions built {counters['sessions_built']}, "
                         f"carried {counters['sessions_carried']})"))
    if args.audit:
        return _audit_verdict(rows, lambda row: f"epoch {row['epoch']}",
                              clean_stream=sys.stderr if args.as_json else None)
    return 0


async def _serve_until_stopped(app, host: str, port: int, ready) -> None:
    """Serve ``app`` (a service or a fleet router) until SIGTERM or Ctrl-C.

    ``asyncio.run`` answers Ctrl-C by cancelling its main task; SIGTERM
    does the same here, so both unwind through the same ``finally``
    blocks: the server closes and drains, then the caller closes its
    logs or terminates its fleet workers.  The first SIGTERM also makes
    the process ignore later ones, so a second (a group kill, then a
    supervisor's ``terminate()``) cannot cancel the drain or kill a
    router still stopping its workers; SIGKILL still ends a stuck
    shutdown.  A plain ``signal`` handler, not the loop's: that one
    writes to a wakeup fd that ``asyncio.run`` closes on exit."""
    import asyncio
    import signal

    from repro.service import run_server

    loop, main = asyncio.get_running_loop(), asyncio.current_task()

    def stop(signum, frame) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        loop.call_soon_threadsafe(main.cancel)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        await run_server(app, host, port, ready=ready)
    finally:
        if signal.getsignal(signal.SIGTERM) is stop:
            signal.signal(signal.SIGTERM, previous)


def serve_command(argv: list[str]) -> int:
    """The ``serve`` subcommand: run the HTTP/JSON cost-sharing service."""
    import asyncio

    from repro.service import CostSharingService

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve cost-sharing requests over HTTP/JSON "
                    "(POST /v1/run, /v1/batch; GET /v1/healthz, /v1/stats).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123,
                        help="listen port (0 = ephemeral, printed on startup)")
    parser.add_argument("--cache-size", type=int, default=64,
                        help="LRU session store capacity (scenarios kept warm; "
                             "0 disables retention)")
    parser.add_argument("--queue-limit", type=int, default=128,
                        help="admitted in-flight requests beyond which new "
                             "ones are answered 429 + Retry-After")
    parser.add_argument("--request-log", default=None, metavar="PATH",
                        help="append one JSON line per priced request "
                             "('-' = stderr); with --workers > 1, a "
                             "directory holding one log per shard")
    parser.add_argument("--span-log", default=None, metavar="PATH",
                        help="record request spans as JSON lines here "
                             "('-' = stderr); with --workers > 1, a "
                             "directory holding one span log per shard "
                             "plus the router's — read them back with "
                             "`python -m repro spans report`")
    parser.add_argument("--workers", type=int, default=1,
                        help="run a sharded fleet of this many worker "
                             "processes behind a consistent-hash router "
                             "(default 1 = single process, this process)")
    parser.add_argument("--shard", default=None, metavar="ID",
                        help="shard identity label, surfaced in /v1/healthz "
                             "and /v1/stats (set by the fleet supervisor)")
    args = parser.parse_args(argv)

    if args.workers > 1:
        return _serve_fleet(args)
    if args.workers < 1:
        print(f"error: need --workers >= 1, got {args.workers}",
              file=sys.stderr)
        return 2

    from repro.observability import RequestLogger, SpanRecorder

    request_log = (RequestLogger.open(args.request_log)
                   if args.request_log else None)
    span_log = (SpanRecorder.open(args.span_log)
                if getattr(args, "span_log", None) else None)
    try:
        service = CostSharingService(
            cache_size=args.cache_size, queue_limit=args.queue_limit,
            request_log=request_log, shard=args.shard, spans=span_log)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def ready(server) -> None:
        # Machine-readable: loadgen/CI scrape the port from this line.
        print(f"serving on http://{args.host}:{server.port}", flush=True)

    try:
        asyncio.run(_serve_until_stopped(service, args.host, args.port, ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        if request_log is not None:
            request_log.close()
        if span_log is not None:
            span_log.close()
    return 0


def _serve_fleet(args) -> int:
    """``serve --workers N`` / ``fleet``: boot N shared-nothing worker
    processes and serve the consistent-hash router over them."""
    import asyncio

    from repro.service import Fleet

    try:
        fleet = Fleet(workers=args.workers, host=args.host,
                      cache_size=args.cache_size, queue_limit=args.queue_limit,
                      request_log_dir=getattr(args, "request_log", None),
                      span_log_dir=getattr(args, "span_log", None),
                      replicas=getattr(args, "replicas", None) or 64)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        router = fleet.start()
    except (RuntimeError, OSError) as exc:
        fleet.shutdown()
        print(f"error: cannot start fleet: {exc}", file=sys.stderr)
        return 2

    def ready(server) -> None:
        workers = router.live_workers()
        print(f"fleet: {len(workers)} workers "
              f"({', '.join(w.shard for w in workers)})", flush=True)
        # Same machine-readable ready line as single-process serve.
        print(f"serving on http://{args.host}:{server.port}", flush=True)

    try:
        asyncio.run(_serve_until_stopped(router, args.host, args.port, ready))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        fleet.shutdown()
    return 0


def fleet_command(argv: list[str]) -> int:
    """The ``fleet`` subcommand: explicit spelling of
    ``serve --workers N`` with the ring knob exposed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Serve a sharded worker fleet behind a consistent-hash "
                    "router (same wire protocol as `serve`, plus /v1/fleet "
                    "admin endpoints for add/drain).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123,
                        help="router listen port (0 = ephemeral, printed on "
                             "startup; workers always bind ephemeral ports)")
    parser.add_argument("--workers", type=int, default=2,
                        help="initial worker processes (shards w0..wN-1)")
    parser.add_argument("--cache-size", type=int, default=64,
                        help="per-worker LRU session store capacity")
    parser.add_argument("--queue-limit", type=int, default=128,
                        help="per-worker admission limit (429 beyond it)")
    parser.add_argument("--replicas", type=int, default=64,
                        help="virtual nodes per shard on the hash ring")
    parser.add_argument("--request-log", default=None, metavar="DIR",
                        help="directory for per-shard JSON request logs")
    parser.add_argument("--span-log", default=None, metavar="DIR",
                        help="directory for per-shard span logs (plus the "
                             "router's own router.spans.jsonl) — read them "
                             "back with `python -m repro spans report`")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"error: need --workers >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    return _serve_fleet(args)


def loadgen_command(argv: list[str]) -> int:
    """The ``loadgen`` subcommand: deterministic closed-loop load over a
    running service; reports latency percentiles and throughput."""
    from repro.service.loadgen import run_loadgen

    from repro.api import available_mechanisms
    from repro.geometry.layouts import LAYOUT_FAMILIES

    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Closed-loop load generator for `python -m repro serve`.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="port of the running service")
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop workers (each sends its next "
                             "request as soon as the previous one answers)")
    parser.add_argument("--n", type=int, default=20, help="stations per scenario")
    parser.add_argument("--alpha", type=float, default=2.0)
    parser.add_argument("--side", type=float, default=10.0)
    parser.add_argument("--seeds", default="0",
                        help="comma-separated layout seeds (default: 0)")
    parser.add_argument("--layouts", default="uniform",
                        help="comma-separated layout families, from: "
                             f"{', '.join(LAYOUT_FAMILIES)}")
    parser.add_argument("--mechanisms", default="tree-shapley,jv",
                        help="comma-separated registry names "
                             f"(available: {', '.join(available_mechanisms())})")
    parser.add_argument("--profile-count", type=int, default=2,
                        help="utility profiles per request")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--keys", type=int, default=None,
                        help="Zipf-skewed workload over this many distinct "
                             "scenario keys (per-key seeds are SHA-256 "
                             "derived; --seeds is ignored)")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf skew exponent for --keys (0 = uniform)")
    parser.add_argument("--expect-engaged", action="store_true",
                        help="fail unless /v1/stats shows the warm paths "
                             "engaged (cache hits or coalescing, and at "
                             "least one multi-request batch)")
    parser.add_argument("--expect-shards", type=int, default=None,
                        metavar="N",
                        help="fail unless >= N distinct shards answered "
                             "(X-Repro-Shard) and each one served warm "
                             "lookups — for fleet smoke tests")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="replay a multi-group trace (JSONL from "
                             "`trace generate`) instead of the synthetic "
                             "scenario mix; --requests/--n/--seeds/--layouts/"
                             "--keys are ignored")
    parser.add_argument("--trace-repeats", type=int, default=1,
                        help="price each (group, epoch) cell this many "
                             "times per mechanism (trace mode only)")
    parser.add_argument("--expect-groups", type=int, default=None,
                        metavar="N",
                        help="fail unless >= N trace groups were priced and "
                             "every observed group completed at every epoch")
    args = parser.parse_args(argv)

    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    unknown = sorted(set(mechanisms) - set(available_mechanisms()))
    if unknown:
        print(f"unknown mechanisms {unknown}; "
              f"available: {list(available_mechanisms())}", file=sys.stderr)
        return 2
    layouts = [l.strip() for l in args.layouts.split(",") if l.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: --seeds must be comma-separated integers: {exc}",
              file=sys.stderr)
        return 2

    trace = None
    if args.trace is not None:
        from repro.traces import Trace, TraceError

        try:
            trace = Trace.read(args.trace)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TraceError as exc:
            print(f"invalid trace: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_loadgen(
            host=args.host, port=args.port, requests=args.requests,
            concurrency=args.concurrency, n=args.n, alpha=args.alpha,
            side=args.side, seeds=seeds, layouts=layouts,
            mechanisms=mechanisms, profile_count=args.profile_count,
            timeout=args.timeout, keys=args.keys, zipf=args.zipf,
            trace=trace, trace_repeats=args.trace_repeats)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line in report.lines():
        print(line)
    failures = report.check(expect_engaged=args.expect_engaged,
                            expect_shards=args.expect_shards,
                            expect_groups=args.expect_groups)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def trace_command(argv: list[str]) -> int:
    """The ``trace`` subcommand: generate / validate / replay multi-group
    handover traces through the substrate-sharing MultiGroupSession."""
    from repro.api import available_mechanisms
    from repro.dynamic import trajectory_row
    from repro.traces import (
        Trace,
        TraceError,
        check_trace_replay,
        generate_trace,
        replay_trace,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Multi-group trace workloads: generate an IGMP-like "
                    "synthetic trace (JSONL), validate a trace file, or "
                    "replay one through shared-substrate sessions.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    gen = sub.add_parser("generate", help="emit a deterministic synthetic "
                                          "trace (stdout or --out)")
    gen.add_argument("--out", default=None, help="write the JSONL here "
                                                 "(default: stdout)")
    gen.add_argument("--n", type=int, default=24, help="stations")
    gen.add_argument("--groups", type=int, default=3, help="IGMP groups")
    gen.add_argument("--epochs", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--alpha", type=float, default=2.0)
    gen.add_argument("--side", type=float, default=10.0)
    gen.add_argument("--aps", type=int, default=4,
                     help="access points stations park near (handovers "
                          "re-park at a different one)")
    gen.add_argument("--member-rate", type=float, default=0.7,
                     help="initial membership probability per (group, station)")
    gen.add_argument("--join-rate", type=float, default=0.2)
    gen.add_argument("--leave-rate", type=float, default=0.2)
    gen.add_argument("--handover-rate", type=float, default=0.1,
                     help="per-epoch probability a station hands over "
                          "(substrate-wide move)")

    val = sub.add_parser("validate", help="parse + semantically validate a "
                                          "trace file")
    val.add_argument("file", help="path to a trace JSONL file")

    rep = sub.add_parser("replay", help="replay a trace through a "
                                        "MultiGroupSession")
    rep.add_argument("file", help="path to a trace JSONL file")
    rep.add_argument("--mechanism", default="tree-shapley",
                     help=f"registry name, one of: {', '.join(available_mechanisms())}")
    rep.add_argument("--profile-count", type=int, default=3,
                     help="utility profiles priced per (group, epoch)")
    rep.add_argument("--check", action="store_true",
                     help="also recompute every (group, epoch) cell through "
                          "independent cold per-group sessions and fail "
                          "unless the rows are bit-identical")
    rep.add_argument("--audit", action="store_true",
                     help="audit NPT/VP/cost recovery on every row; exit 1 "
                          "on any violation")
    rep.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the full JSON payload instead of tables")
    rep.add_argument("--out", default=None,
                     help="write the JSON payload to this path")
    args = parser.parse_args(argv)

    if args.action == "generate":
        try:
            trace = generate_trace(
                n=args.n, groups=args.groups, epochs=args.epochs,
                seed=args.seed, alpha=args.alpha, side=args.side,
                aps=args.aps, member_rate=args.member_rate,
                join_rate=args.join_rate, leave_rate=args.leave_rate,
                handover_rate=args.handover_rate)
        except (ValueError, TraceError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        text = trace.to_jsonl()
        if args.out:
            try:
                pathlib.Path(args.out).write_text(text)
            except OSError as exc:
                print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
                return 2
            counts = trace.event_counts()
            print(f"trace: {args.out} — {len(trace.groups)} groups x "
                  f"{trace.epochs} epochs over n={trace.scenario.n_stations}, "
                  f"{counts['join']} joins, {counts['leave']} leaves, "
                  f"{counts['move']} handovers")
        else:
            sys.stdout.write(text)
        return 0

    if args.action == "validate":
        try:
            trace = Trace.read(args.file)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TraceError as exc:
            print(f"invalid trace: {exc}", file=sys.stderr)
            return 1
        counts = trace.event_counts()
        print(f"valid trace: {len(trace.groups)} groups "
              f"({', '.join(trace.groups)}) x {trace.epochs} epochs over "
              f"n={trace.scenario.n_stations}; {counts['join']} joins, "
              f"{counts['leave']} leaves, {counts['move']} handovers")
        return 0

    # replay
    if args.mechanism not in available_mechanisms():
        print(f"unknown mechanism {args.mechanism!r}; "
              f"available: {list(available_mechanisms())}", file=sys.stderr)
        return 2
    try:
        trace = Trace.read(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    from repro.runner import ProfileSpec

    profile_spec = ProfileSpec(count=args.profile_count)
    t0 = time.perf_counter()
    if args.check:
        outcome = check_trace_replay(trace, args.mechanism, profile_spec,
                                     audit=args.audit)
        elapsed = time.perf_counter() - t0
        if not outcome["identical"]:
            for group, epoch in outcome["mismatches"]:
                print(f"CHECK FAILED: group {group} epoch {epoch} diverged "
                      "from the cold per-group replay", file=sys.stderr)
            return 1
        cells = sum(len(rows) for rows in outcome["rows"].values())
        print(f"check: shared-substrate replay == cold per-group replay "
              f"over {cells} (group, epoch) cells ({elapsed:.3f}s)",
              file=sys.stderr if args.as_json else sys.stdout)
    else:
        outcome = replay_trace(trace, args.mechanism, profile_spec,
                               audit=args.audit)
        elapsed = time.perf_counter() - t0

    counters = outcome["counters"]
    payload = {
        "schema": 1,
        "scenario": trace.to_spec().to_dict(),
        "mechanism": args.mechanism,
        "rows": outcome["rows"],
        "counters": counters,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        try:
            pathlib.Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if args.as_json:
        print(text)
    else:
        table = []
        for group in sorted(outcome["rows"]):
            for row in outcome["rows"][group]:
                table.append({"group": group, **trajectory_row(row)})
        print(format_table(
            table,
            title=f"{args.mechanism} over {len(outcome['rows'])} groups x "
                  f"{trace.epochs} epochs "
                  f"(substrates built {counters['substrate_sessions_built']}, "
                  f"shared {counters['substrate_sessions_shared']})"))
    if args.audit:
        rows = [row for rows in outcome["rows"].values() for row in rows]
        return _audit_verdict(
            rows, lambda row: f"group {row['group']} epoch {row['epoch']}",
            clean_stream=sys.stderr if args.as_json else None)
    return 0


def spans_command(argv: list[str]) -> int:
    """The ``spans`` subcommand: reconstruct request traces from the span
    logs a traced service/fleet wrote and report the SLO picture."""
    from repro.observability import load_span_logs, render_span_report, span_report

    parser = argparse.ArgumentParser(
        prog="python -m repro spans",
        description="Analyze request-span logs (--span-log output): stitch "
                    "per-process JSONL files back into cross-process traces "
                    "and report per-stage latency, per-shard exemplars, and "
                    "trace well-formedness.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    rep = sub.add_parser("report", help="span-forest report over one or "
                                        "more span logs")
    rep.add_argument("files", nargs="+", metavar="LOG",
                     help="span JSONL files (a fleet's full picture needs "
                          "every worker's log plus the router's)")
    rep.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the full report as JSON")
    rep.add_argument("--require-complete", type=int, default=None,
                     metavar="N", help="exit 1 unless every worker shard "
                                       "shows >= N complete cross-process "
                                       "traces (router + worker spans in "
                                       "one tree) — for CI smoke jobs")
    args = parser.parse_args(argv)

    try:
        spans, malformed = load_span_logs(args.files)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = span_report(spans, malformed=malformed, files=len(args.files))
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in render_span_report(report):
            print(line)
    if args.require_complete is not None:
        cross = report["cross_process_traces"]
        failures = [f"shard {shard}: {count} complete cross-process "
                    f"trace(s), need >= {args.require_complete}"
                    for shard, count in sorted(cross.items())
                    if count < args.require_complete]
        if not cross:
            failures.append("no worker shards observed in the span logs")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 1 if report["problems"] else 0


def metrics_dump_command(argv: list[str]) -> int:
    """The ``metrics-dump`` subcommand: one JSON telemetry snapshot —
    either scraped from a running service's ``/metrics`` or accumulated
    by running a sweep in-process against the default registry."""
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics-dump",
        description="Dump a metrics snapshot as JSON: scrape a running "
                    "service (--port) or run a sweep spec in-process "
                    "(--spec) and report the default registry.  Pointed at "
                    "a fleet router's port, the scrape is the merged fleet "
                    "exposition (every worker relabeled by shard) and the "
                    "JSON gains a per-shard summary block.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="scrape GET /metrics from a running service")
    parser.add_argument("--spec", default=None, metavar="PATH",
                        help="run this sweep spec serially in-process and "
                             "dump the sweep/session telemetry it produced")
    parser.add_argument("--raw", action="store_true",
                        help="with --port: print the raw Prometheus text "
                             "instead of JSON")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the snapshot here instead of stdout")
    args = parser.parse_args(argv)

    if (args.port is None) == (args.spec is None):
        print("error: give exactly one of --port or --spec", file=sys.stderr)
        return 2

    if args.port is not None:
        import http.client

        from repro.observability import parse_exposition

        try:
            connection = http.client.HTTPConnection(args.host, args.port,
                                                    timeout=30.0)
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            status = response.status
            connection.close()
        except OSError as exc:
            print(f"error: cannot scrape {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 2
        if status != 200:
            print(f"error: GET /metrics answered {status}", file=sys.stderr)
            return 2
        if args.raw:
            output = text
        else:
            parsed = parse_exposition(text)
            # A router's exposition is already the fleet merge with every
            # series relabeled by shard — surface that shape explicitly
            # (additively: the "types"/"samples" keys stay as-is) so
            # consumers need not re-derive it from the label sets.
            shards = sorted({
                labels["shard"]
                for entries in parsed["samples"].values()
                for labels, _ in entries
                if "shard" in labels})
            if shards:
                parsed["fleet"] = {
                    "shards": shards,
                    "workers": [s for s in shards if s != "router"]}
            output = json.dumps(parsed, indent=2, sort_keys=True)
    else:
        from repro.observability import default_registry
        from repro.runner import SweepSpec, run_sweep

        try:
            spec = SweepSpec.from_json(open(args.spec).read())
            rows = run_sweep(spec, workers=1)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        snapshot = default_registry().snapshot()
        output = json.dumps({"rows": len(rows), "metrics": snapshot},
                            indent=2, sort_keys=True)

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output if output.endswith("\n") else output + "\n")
    else:
        print(output)
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "run":
        return run_command(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_command(argv[1:])
    if argv and argv[0] == "dynamic":
        return dynamic_command(argv[1:])
    if argv and argv[0] == "serve":
        return serve_command(argv[1:])
    if argv and argv[0] == "fleet":
        return fleet_command(argv[1:])
    if argv and argv[0] == "loadgen":
        return loadgen_command(argv[1:])
    if argv and argv[0] == "trace":
        return trace_command(argv[1:])
    if argv and argv[0] == "spans":
        return spans_command(argv[1:])
    if argv and argv[0] == "metrics-dump":
        return metrics_dump_command(argv[1:])
    wanted = [a.upper() for a in argv] or list(RUNNERS)
    unknown = [w for w in wanted if w not in RUNNERS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {list(RUNNERS)}")
        return 2
    for key in wanted:
        title, runner = RUNNERS[key]
        t0 = time.perf_counter()
        out = runner()
        elapsed = time.perf_counter() - t0
        print(f"\n=== EXP-{key}: {title}  ({elapsed:.1f}s)")
        print(format_table(out["rows"]))
        for extra_key, value in out.items():
            if extra_key != "rows" and not isinstance(value, (list, dict)):
                print(f"{extra_key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
