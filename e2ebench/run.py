"""Run one benchmark workload with one seed and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fleet-cad-tree --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload again, half untraced and half traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run record (host, process layout, host probe, steal
time, p99s with their sample counts).  The exit code is 0 only when
every advice digest matched and no two roles shared a process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

T_PROCESS = time.perf_counter()

import host  # noqa: E402  (the benchmark's own modules, beside this file)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

WORKLOADS = ("sim-cad-tree", "fleet-cad-tree", "serve-tenant-churn")

END_TO_END = {
    "refs_per_s": "1/s", "observe_p50_ms": "ms", "sessions_per_s": "1/s",
    "open_p50_ms": "ms", "close_p50_ms": "ms", "setup_s": "s",
    "rss_mb": "MiB",
}

PER_LAYER = {
    # engine, measured on sim-cad-tree
    "sim.step_us": "us", "policies.observe_us": "us",
    "policies.prefetch_round_us": "us", "core.costbenefit_us": "us",
    "core.costbenefit_calls_per_ref": "1/ref", "cache.reference_us": "us",
    "cache.reclaim_us": "us", "cache.ghost_record_us": "us",
    "core.tree_nodes": "count", "engine.candidates_per_ref": "1/ref",
    "engine.issued_share": "share", "engine.rejected_cost_share": "share",
    "engine.prefetch_used_share": "share",
    # served path, measured on fleet-cad-tree
    "loadgen.cpu_us_per_ref": "us", "gateway.cpu_us_per_ref": "us",
    "worker.cpu_us_per_ref": "us", "client.rpc_us": "us",
    "client.codec_us": "us", "gateway.self_us": "us",
    "gateway.admission_us": "us", "gateway.ring_lookup_us": "us",
    "gateway.journal_append_us": "us", "gateway.reply_relay_us": "us",
    "gateway.worker_rpc_us": "us", "worker.predictor_step_us": "us",
    "worker.plumbing_us": "us", "wire.loadgen_gateway_us": "us",
    "obs.tracing_overhead_share": "share",
    # sessions, measured on serve-tenant-churn
    "server.cpu_us_per_ref": "us", "server.cpu_ms_per_session": "ms",
    "client.connect_ms": "ms", "worker.open_us": "us",
    "tenancy.delta_items_per_session": "count",
    "tenancy.base_bytes": "bytes", "store.model_load_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make(name: str, seed: int, root: str, work: str):
    if name == "sim-cad-tree":
        from offline import SimWorkload

        return SimWorkload(seed)
    from served import ChurnWorkload, FleetWorkload

    cls = FleetWorkload if name == "fleet-cad-tree" else ChurnWorkload
    return cls(seed, root, work)


def _run(args, root: str, work: str):
    workload = _make(args.workload, args.seed, root, work)
    try:
        if args.trace:
            import layers

            layers.check_fold()
            workload.setup()
            out = workload.measure_layers(args.seconds)
            names = PER_LAYER
        else:
            setups, raw_setups = [], []
            for i in range(SETUPS):
                track = host.SpeedTrack()
                track.probe()
                t0 = time.perf_counter()
                workload.setup()
                t1 = time.perf_counter()
                track.probe()
                raw_setups.append(t1 - t0)
                setups.append(track.active(t0, t1))
                if i == 0:
                    first_from_start = time.perf_counter() - T_PROCESS
                if i < SETUPS - 1:
                    workload.teardown()
            out = workload.measure(args.seconds)
            out["metrics"]["setup_s"] = statistics.median(setups)
            out["record"]["setup_runs_s"] = setups
            out["record"]["raw_setup_runs_s"] = raw_setups
            out["record"]["setup_first_from_process_start_s"] = (
                first_from_start)
            names = END_TO_END
        if "layout" not in out["record"]:
            out["record"]["layout"] = workload.layout()
    finally:
        workload.teardown()
    # A layer this workload does not run reads 0.
    out["metrics"] = {
        name: {"value": float(out["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    # Every process of the run (this one and the tiers it spawns, which
    # inherit the mask) shares one CPU.  On a small shared VM a reply
    # that must wake a halted second vCPU waits on the hypervisor, and
    # that wait, not the program, decided the served figures.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = os.path.join(root, ".e2ebench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host.host_info(), "cpu": cpu}
    record["host_probe_before_ms"] = host.host_probe_ms()
    steal0 = host.steal_seconds()
    try:
        out = _run(args, root, work)
    except Exception:
        traceback.print_exc()
        print("error: the run failed before producing a result",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["host_probe_after_ms"] = host.host_probe_ms()
    record["steal_s"] = host.steal_seconds() - steal0
    record.update(out["record"])
    correct = out["failed"] == 0
    if out["errors"]:
        record["errors"] = out["errors"]
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
