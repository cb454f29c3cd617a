"""Command-line interface.

Mirrors the paper's deployment workflow:

- ``repro compile``  — compile a ruleset file to a DFA and report its size;
- ``repro profile``  — random-input profiling + merge, saving the predicted
  convergence sets to JSON (the offline step);
- ``repro run``      — scan an input file with a chosen engine, printing
  final state, reports, and modeled speedup;
- ``repro suite``    — run one or all Table-I benchmarks and print the
  Figure-12 style comparison;
- ``repro figures``  — regenerate a named paper artifact (fig12, fig13, ...);
- ``repro anml``     — load an ANMLZoo automaton file and report/scan it;
- ``repro plan``     — pick the best half-core allocation for a ruleset
  using the closed-form performance model;
- ``repro software`` — measured wall-clock software CSE scan with a
  selectable execution kernel (python/dense/native/prefilter);
- ``repro stats``    — pretty-print a metrics snapshot emitted by
  ``--metrics-out``;
- ``repro check``    — static soundness verification (:mod:`repro.check`):
  ``check artifact`` verifies a compiled artifact / ruleset (table
  bounds, partition soundness, kernel-table equivalence, exact
  convergence certification) and ``check lint`` runs the repo's AST
  lint rules.  Both exit nonzero on error-severity findings — the
  ``make check`` CI gate.

``repro run`` and ``repro software`` accept ``--metrics-out PATH`` /
``--trace-out PATH`` to capture runtime telemetry (:mod:`repro.obs`):
a metrics snapshot (JSON, JSON-lines, or Prometheus text by suffix) and
a Chrome trace-event file loadable in Perfetto.

Examples::

    python -m repro.cli compile rules.txt
    python -m repro.cli profile rules.txt --cutoff 0.99 -o sets.json
    python -m repro.cli run rules.txt input.bin --engine cse --segments 16
    python -m repro.cli suite --benchmark Snort
    python -m repro.cli figures fig12
    python -m repro.cli software rules.txt input.bin --metrics-out m.json \\
        --trace-out t.json
    python -m repro.cli stats m.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.analysis.report import render_grouped, render_series, render_table
from repro.core.engine import CseEngine
from repro.core.profiling import ProfilingConfig, merge_to_cutoff, profile_partitions
from repro.core.store import load_partition, save_partition
from repro.engines.enumerative import EnumerativeEngine
from repro.engines.lbe import LbeEngine
from repro.engines.pap import PapEngine
from repro.engines.sequential import SequentialEngine
from repro.fleet.planner import SHARD_MAX_STATES
from repro.kernels.batch import BACKENDS
from repro.regex.compile import compile_ruleset

__all__ = ["main", "build_parser"]


def _read_rules(path: str) -> List[str]:
    lines = Path(path).read_text().splitlines()
    rules = [line.strip() for line in lines if line.strip() and not line.startswith("#")]
    if not rules:
        raise SystemExit(f"no rules found in {path}")
    return rules


def _compile(args) -> int:
    rules = _read_rules(args.rules)
    dfa = compile_ruleset(rules, minimize=not args.no_minimize)
    print(f"{len(rules)} rules -> {dfa.num_states} states "
          f"({len(dfa.accepting)} accepting, alphabet {dfa.alphabet_size})")
    return 0


def _profile(args) -> int:
    rules = _read_rules(args.rules)
    dfa = compile_ruleset(rules)
    config = ProfilingConfig(
        n_inputs=args.inputs,
        input_len=args.length,
        symbol_low=args.symbol_low,
        symbol_high=args.symbol_high,
        seed=args.seed,
    )
    census = profile_partitions(dfa, config)
    result = merge_to_cutoff(census, cutoff=args.cutoff)
    print(f"profiled {args.inputs} strings: {len(census)} distinct partitions")
    print(f"merged to {result.num_convergence_sets} convergence sets "
          f"covering {result.covered:.1%}")
    if args.output:
        save_partition(result.partition, args.output)
        print(f"saved to {args.output}")
    return 0


def _make_engine(name: str, dfa, args, partition=None):
    common = dict(n_segments=args.segments, cores_per_segment=args.cores)
    if name == "sequential":
        return SequentialEngine(dfa)
    if name == "enumerative":
        return EnumerativeEngine(dfa, **common)
    if name == "lbe":
        return LbeEngine(dfa, lookback=args.lookback, **common)
    if name == "pap":
        return PapEngine(dfa, **common)
    if name == "cse":
        if partition is not None:
            return CseEngine(dfa, partition=partition, **common)
        cache = None
        if getattr(args, "cache_dir", None) and not getattr(args, "no_cache", False):
            from repro.compilecache import CompileCache

            cache = CompileCache(cache_dir=args.cache_dir)
        return CseEngine(
            dfa,
            profiling=ProfilingConfig(
                n_inputs=300, input_len=200,
                symbol_low=args.symbol_low, symbol_high=args.symbol_high,
            ),
            merge_cutoff=args.cutoff,
            cache=cache,
            **common,
        )
    raise SystemExit(f"unknown engine {name!r}")


#: the live endpoint started by ``--metrics-port`` (one per CLI process)
_LIVE_SERVER = None


def _obs_begin(args) -> None:
    """Install a fresh registry when the command asked for telemetry.

    ``--metrics-port`` additionally starts the live HTTP endpoint
    (``/metrics`` Prometheus text + ``/snapshot.json``), arms the flight
    recorder, and installs the dump-on-exception postmortem hook.
    """
    global _LIVE_SERVER
    metrics_port = getattr(args, "metrics_port", None)
    wants = (
        getattr(args, "metrics_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "profile_out", None)
        or metrics_port is not None
    )
    if not wants:
        return
    obs.enable()
    obs.enable_flight()
    if metrics_port is not None:
        obs.install_excepthook()
        _LIVE_SERVER = obs.serve(port=metrics_port)
        print(f"live metrics: {_LIVE_SERVER.url}/metrics  "
              f"(snapshot {_LIVE_SERVER.url}/snapshot.json, "
              f"top: repro top {_LIVE_SERVER.url})")


def _obs_finish(args) -> None:
    """Export and tear down the registry installed by :func:`_obs_begin`."""
    global _LIVE_SERVER
    registry = obs.active()
    if registry is None:
        return
    snapshot = registry.snapshot()
    if getattr(args, "metrics_out", None):
        path = obs.write_metrics(snapshot, args.metrics_out)
        print(f"metrics: {len(snapshot['metrics'])} series -> {path}")
    if getattr(args, "trace_out", None):
        path = obs.write_trace(snapshot, args.trace_out)
        print(f"trace: {len(snapshot['spans'])} spans -> {path}")
    if _LIVE_SERVER is not None:
        _LIVE_SERVER.stop()
        _LIVE_SERVER = None
    obs.disable_flight()
    obs.disable()


def _run(args) -> int:
    rules = _read_rules(args.rules)
    dfa = compile_ruleset(rules)
    data = Path(args.input).read_bytes()
    partition = load_partition(args.partition) if args.partition else None
    engine = _make_engine(args.engine, dfa, args, partition)
    _obs_begin(args)
    result = engine.run(data)
    baseline = SequentialEngine(dfa).run(data)
    _obs_finish(args)
    if result.final_state != baseline.final_state:
        raise SystemExit("engine diverged from the sequential oracle")
    print(f"engine: {engine.name}")
    print(f"input: {result.n_symbols} symbols in {result.n_segments} segments")
    print(f"final state: {result.final_state}")
    print(f"cycles: {result.cycles} (baseline {result.baseline_cycles})")
    print(f"speedup: {result.speedup:.2f}x of ideal {result.ideal_speedup:.0f}x")
    print(f"R0 {result.r0_mean:.2f}  RT {result.rt_mean:.2f}  "
          f"re-executed segments {result.reexec_segments}")
    if args.reports:
        reports = baseline.reports or []
        print(f"reports ({len(reports)}):")
        for offset, state in reports[: args.reports]:
            print(f"  offset {offset}: state {state}")
    return 0


def _suite(args) -> int:
    from repro.analysis.experiments import evaluate_suite

    names = [args.benchmark] if args.benchmark else None
    sweep = evaluate_suite(scale=args.scale, names=names)
    rows = []
    for name, stats in sweep.items():
        row = {"Benchmark": name}
        for engine, s in stats.items():
            if engine == "Baseline":
                continue
            row[engine] = f"{s.speedup:.2f}x"
        rows.append(row)
    print(render_table(rows))
    return 0


def _figures(args) -> int:
    from repro.analysis import experiments as exp

    name = args.figure.lower()
    if name in ("table1",):
        print(render_table(exp.table1(scale=args.scale)))
    elif name in ("table2",):
        print(render_table(exp.table2()))
    elif name == "fig8":
        freqs = exp.fig8_mfp_frequency(scale=args.scale)
        print(render_series({k: f"{v:.1%}" for k, v in freqs.items()},
                            name="MFP frequency"))
    elif name == "fig12":
        print(render_grouped(exp.fig12_speedup(scale=args.scale),
                             columns=["LBE", "PAP", "CSE", "IDEAL"]))
    elif name == "fig13":
        print(render_grouped(exp.fig13_r0(scale=args.scale),
                             columns=["LBE", "PAP", "CSE"]))
    elif name == "fig14":
        print(render_grouped(exp.fig14_rt(scale=args.scale),
                             columns=["LBE", "PAP", "CSE"]))
    elif name == "fig15":
        data = exp.fig15_lbe_lookback(scale=args.scale)
        printable = {
            n: {str(k): v for k, v in row.items()} for n, row in data.items()
        }
        print(render_grouped(printable, columns=["10", "20", "30", "100"]))
    elif name == "fig16":
        print(render_grouped(exp.fig16_cse_r0_by_merge(scale=args.scale),
                             columns=list(exp.MERGE_STRATEGIES)))
    elif name == "fig17":
        print(render_grouped(exp.fig17_cse_speedup_by_merge(scale=args.scale),
                             columns=list(exp.MERGE_STRATEGIES)))
    elif name == "fig18":
        data = exp.fig18_reexec_rate_by_merge(scale=args.scale)
        print(render_grouped(
            {n: {s: f"{v:.2%}" for s, v in row.items()} for n, row in data.items()},
            columns=list(exp.MERGE_STRATEGIES)))
    else:
        raise SystemExit(
            "unknown figure; pick from table1 table2 fig8 fig12 fig13 fig14 "
            "fig15 fig16 fig17 fig18"
        )
    return 0


def _anml(args) -> int:
    from repro.workloads.anml import load_anml_dfa

    dfa = load_anml_dfa(args.anml_file)
    print(f"ANML automaton: {dfa.num_states} states, "
          f"{len(dfa.accepting)} reporting")
    if args.input:
        data = Path(args.input).read_bytes()
        reports = dfa.run_reports(data)
        print(f"scanned {len(data)} bytes: {len(reports)} report events")
        for offset, state in reports[: args.reports]:
            print(f"  offset {offset}: state {state}")
    return 0


def _plan(args) -> int:
    import numpy as np

    from repro.analysis.convergence import symbols_to_stabilize
    from repro.analysis.model import SegmentModel
    from repro.hardware.allocation import plan_allocation

    rules = _read_rules(args.rules)
    dfa = compile_ruleset(rules)
    config = ProfilingConfig(
        n_inputs=args.inputs, input_len=args.length,
        symbol_low=args.symbol_low, symbol_high=args.symbol_high,
    )
    census = profile_partitions(dfa, config)
    merged = merge_to_cutoff(census, cutoff=args.cutoff)
    rng = np.random.default_rng(config.seed + 1)
    probes = [config.random_input(rng, dfa.alphabet_size) for _ in range(20)]
    t_stab = sum(symbols_to_stabilize(dfa, p) for p in probes) / len(probes)
    all_states = np.arange(dfa.num_states, dtype=np.int32)
    floor = sum(dfa.set_run(all_states, p).size for p in probes) / len(probes)
    model = SegmentModel(
        r0=max(float(merged.num_convergence_sets), floor),
        t_stabilize=t_stab,
        r_floor=floor,
    )
    plan = plan_allocation(model, input_len=args.input_len)
    print(f"{len(rules)} rules -> {dfa.num_states} states; "
          f"{merged.num_convergence_sets} convergence sets "
          f"(coverage {merged.covered:.1%})")
    print(f"model: r0={model.r0:.1f} t_stabilize={model.t_stabilize:.0f} "
          f"r_floor={model.r_floor:.1f}")
    print(f"recommended allocation: {plan.cores_per_segment} half-core(s) x "
          f"{plan.n_segments} segments "
          f"(predicted speedup {plan.predicted_speedup:.1f}x)")
    return 0


def _software(args) -> int:
    import time

    from repro.core.profiling import predict_convergence_sets
    from repro.core.partition import StatePartition
    from repro.ingest import open_input
    from repro.software import segment_pool, software_cse_scan

    rules = _read_rules(args.rules)
    dfa = compile_ruleset(rules)
    # mmap-backed view: segments are sliced (and, under a process pool,
    # shipped as (path, offset, length) coordinates) without ever
    # materializing the file as a bytes object
    data = open_input(args.input)
    profiling = ProfilingConfig(
        n_inputs=300, input_len=200,
        symbol_low=args.symbol_low, symbol_high=args.symbol_high,
    )
    partition = None
    if args.partition:
        partition = load_partition(args.partition)
    elif args.trivial:
        partition = StatePartition.trivial(dfa.num_states)
    cache = None
    if not args.no_cache and partition is None:
        from repro.compilecache import CompileCache

        cache = CompileCache(cache_dir=args.cache_dir)
    repeat = max(1, args.repeat)
    _obs_begin(args)
    profiler = None
    if args.profile_out:
        profiler = obs.SamplingProfiler()
        profiler.start()

    def one_scan(executor=None):
        if cache is not None:
            from repro.compilecache import scan_with_cache

            return scan_with_cache(
                dfa, data, cache=cache, n_segments=args.segments,
                executor=executor, backend=args.backend,
                profiling=profiling, cutoff=args.cutoff,
            )
        scan_partition = partition
        if scan_partition is None:
            scan_partition = predict_convergence_sets(
                dfa, profiling, cutoff=args.cutoff
            ).partition
        return software_cse_scan(
            dfa, data, scan_partition, n_segments=args.segments,
            executor=executor, backend=args.backend,
        )

    iteration_seconds = []
    if args.processes:
        with segment_pool(dfa, args.processes) as executor:
            for _ in range(repeat):
                begin = time.perf_counter()
                run = one_scan(executor)
                iteration_seconds.append(time.perf_counter() - begin)
    else:
        for _ in range(repeat):
            begin = time.perf_counter()
            run = one_scan()
            iteration_seconds.append(time.perf_counter() - begin)
    if profiler is not None:
        profiler.stop()
        Path(args.profile_out).write_text(profiler.folded(),
                                          encoding="utf-8")
        print(f"profile: {profiler.n_samples} samples -> {args.profile_out}")
    _obs_finish(args)
    stats = cache.stats() if cache is not None else None
    if partition is not None:
        n_blocks = partition.num_blocks
    elif cache is not None:
        n_blocks = cache.get_or_compile(
            dfa, profiling=profiling, cutoff=args.cutoff,
            backend=args.backend, n_segments=args.segments,
        ).partition.num_blocks
    else:
        n_blocks = predict_convergence_sets(
            dfa, profiling, cutoff=args.cutoff
        ).partition.num_blocks
    print(f"backend: {run.backend} (requested: {run.requested_backend})  "
          f"convergence sets: {n_blocks}")
    print(f"input: {run.n_symbols} symbols in {run.n_segments} segments")
    print(f"final state: {run.final_state}")
    print(f"sequential: {run.sequential_seconds * 1e3:.2f} ms")
    print(f"critical path: {run.critical_path_seconds * 1e3:.2f} ms")
    print(f"elapsed: {run.elapsed_seconds * 1e3:.2f} ms")
    print(f"work speedup: {run.work_speedup:.2f}x of ideal {run.n_segments}x "
          f"(re-executed {run.reexec_segments})")
    if repeat > 1:
        for i, sec in enumerate(iteration_seconds):
            print(f"iteration {i + 1}: {sec * 1e3:.2f} ms")
    if stats is not None:
        print(f"cache: {stats['memory_hits']} memory hits, "
              f"{stats['disk_hits']} disk hits, {stats['misses']} misses, "
              f"{stats['builds']} builds")
    data.close()
    return 0


def _fleet_dfas(args) -> List:
    """Build the fleet's machines from rules files or a generated family."""
    if args.rules:
        return [compile_ruleset(_read_rules(path)) for path in args.rules]
    if args.family:
        from repro.workloads import generate_ruleset

        return [
            compile_ruleset(generate_ruleset(args.family, args.patterns,
                                             args.seed + i))
            for i in range(args.machines)
        ]
    raise SystemExit("fleet needs rules files or --family")


def _fleet(args) -> int:
    import time

    from repro.ingest import open_input
    from repro.stream import FleetScanner

    dfas = _fleet_dfas(args)
    data = open_input(args.input)
    _obs_begin(args)
    fleet = FleetScanner(
        dfas,
        n_segments=args.segments,
        backend=args.backend,
        shard=not args.no_shard,
        max_shard_states=args.max_shard_states,
    )
    begin = time.perf_counter()
    result = fleet.scan_wallclock(data, verify=False)
    elapsed = time.perf_counter() - begin
    print(f"fleet: {len(dfas)} machines "
          f"({fleet.n_duplicates} duplicates deduped) -> "
          f"{fleet.n_units} scan unit(s)")
    if fleet.plan is not None:
        plan = fleet.plan
        print(f"shards: {plan.n_shards} "
              f"({plan.product_states} product states, budget "
              f"{plan.max_states}, {len(plan.singleton_fallbacks)} "
              f"singleton fallback(s))")
    print(f"input: {len(data)} bytes; backends: "
          f"{sorted(set(fleet.unit_backends))}")
    print(f"scan wall-clock: {elapsed * 1e3:.2f} ms "
          f"({len(data) * len(dfas) / max(elapsed, 1e-12) / 1e6:.1f} "
          "fleet MB/s)")
    if args.compare:
        per = FleetScanner(dfas, n_segments=args.segments,
                           backend=args.backend)
        begin = time.perf_counter()
        per_result = per.scan_wallclock(data, verify=False)
        per_elapsed = time.perf_counter() - begin
        if per_result.final_states != result.final_states:
            raise SystemExit("sharded finals diverged from per-machine")
        print(f"per-machine loop: {per_elapsed * 1e3:.2f} ms -> "
              f"{per_elapsed / max(elapsed, 1e-12):.2f}x speedup, "
              "final states bit-identical")
    _obs_finish(args)
    data.close()
    return 0


def _top(args) -> int:
    from repro.obs.live import top

    frames = top(
        args.source,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )
    return 0 if frames else 1


def _obs_tail(args) -> int:
    import json
    import urllib.request

    source = args.source
    if source.startswith(("http://", "https://")):
        url = source.rstrip("/")
        if not url.endswith(".json"):
            url += "/flight.json"
        with urllib.request.urlopen(url, timeout=10) as resp:  # noqa: S310
            snapshot = json.loads(resp.read().decode("utf-8"))
    else:
        snapshot = json.loads(Path(source).read_text(encoding="utf-8"))
    print(obs.format_tail(snapshot, n=args.lines))
    return 0


def _check_fleet(args) -> int:
    from repro import check as chk
    from repro.fleet import plan_shards
    from repro.workloads import generate_ruleset

    family = args.family or "ExactMatch"
    dfas = [
        compile_ruleset(generate_ruleset(family, args.patterns, args.seed + i))
        for i in range(args.fleet)
    ]
    plan = plan_shards(dfas)
    diagnostics = []
    for shard in plan.shards:
        members = [dfas[i] for i in shard.member_indices]
        diagnostics.extend(chk.verify_shard(shard, members=members))
    if args.json:
        print(chk.render_json(
            diagnostics,
            target=f"fleet:{family}x{args.fleet}",
            shards=[
                {"key": s.key, "members": list(s.member_indices),
                 "states": s.num_states}
                for s in plan.shards
            ],
        ))
    else:
        print(f"fleet: {args.fleet} x {family} machines -> "
              f"{plan.n_shards} shard(s), {plan.product_states} product "
              f"states, {len(plan.singleton_fallbacks)} singleton "
              "fallback(s)")
        print(chk.render_text(diagnostics))
    return 1 if chk.has_errors(diagnostics) else 0


def _check_artifact(args) -> int:
    from repro import check as chk
    from repro.compilecache import compile_dfa

    if getattr(args, "fleet", 0):
        return _check_fleet(args)
    diagnostics = []
    certificates = []
    compiled = None
    source = args.target
    if args.family:
        from repro.workloads import generate_ruleset

        rules = generate_ruleset(args.family, args.patterns, args.seed)
        dfa = compile_ruleset(rules)
        source = f"family:{args.family}"
    elif args.target and args.target.endswith(".cdfa"):
        diagnostics.extend(chk.verify_artifact_file(args.target))
        if not chk.has_errors(diagnostics):
            import pickle

            with open(args.target, "rb") as handle:
                compiled = pickle.load(handle)["artifact"]
        dfa = compiled.dfa if compiled is not None else None
    elif args.target:
        dfa = compile_ruleset(_read_rules(args.target))
    else:
        raise SystemExit("check artifact needs a target "
                         "(.cdfa file, rules file, or --family)")
    if compiled is None and dfa is not None:
        compiled = compile_dfa(
            dfa,
            profiling=ProfilingConfig(
                n_inputs=args.inputs, input_len=args.length,
                symbol_low=args.symbol_low, symbol_high=args.symbol_high,
            ),
            cutoff=args.cutoff,
            backend=args.backend,
            n_segments=args.segments,
        )
        diagnostics.extend(chk.verify_compiled(compiled))
    if compiled is not None and not chk.has_errors(diagnostics):
        certificates, cert_diags = chk.certify_partition(
            compiled.dfa, compiled.partition,
            census=compiled.census,
            profiling_len=compiled.profiling.input_len,
            max_sets=args.max_sets, max_depth=args.depth,
        )
        diagnostics.extend(cert_diags)
    statuses = {
        status: sum(1 for c in certificates if c.status == status)
        for status in (chk.CONVERGENT, chk.DIVERGENT, chk.UNKNOWN)
    }
    if args.json:
        print(chk.render_json(
            diagnostics,
            target=source,
            certificates=[
                {
                    "block": c.block_index, "size": c.size,
                    "status": c.status, "depth": c.depth,
                    "explored_sets": c.explored_sets,
                    "profiled_convergence": c.profiled_convergence,
                }
                for c in certificates
            ],
        ))
    else:
        print(f"artifact: {source}")
        if compiled is not None:
            print(f"  {compiled.dfa.num_states} states, "
                  f"{compiled.num_convergence_sets} convergence sets, "
                  f"backend {compiled.backend}")
        if certificates:
            print(f"  certification: {statuses[chk.CONVERGENT]} "
                  f"proven-convergent, {statuses[chk.DIVERGENT]} "
                  f"proven-divergent, {statuses[chk.UNKNOWN]} unknown")
        print(chk.render_text(diagnostics))
    return 1 if chk.has_errors(diagnostics) else 0


def _check_lint(args) -> int:
    from repro import check as chk
    from repro.check.baseline import (
        DEFAULT_BASELINE_PATH,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.check.cache import DEFAULT_CACHE_PATH, cached_lint_paths
    from repro.check.lint import default_rules
    from repro.check.sarif import render_sarif

    paths = args.paths or ["src"]
    rules = default_rules(flow=args.flow)
    cache_path = None if args.no_cache else (args.cache
                                             or DEFAULT_CACHE_PATH)
    try:
        diagnostics = cached_lint_paths(
            paths, rules, cache_path=cache_path,
            check_stale_noqa=args.flow)
    except (OSError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = args.baseline or DEFAULT_BASELINE_PATH
        count = write_baseline(diagnostics, target)
        print(f"baseline written: {count} finding(s) -> {target}")
        return 0

    absorbed = 0
    if not args.no_baseline:
        baseline_path = Path(args.baseline or DEFAULT_BASELINE_PATH)
        if args.baseline or baseline_path.exists():
            try:
                baseline = load_baseline(baseline_path)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            diagnostics, absorbed = apply_baseline(diagnostics, baseline)

    if args.sarif:
        from repro import __version__ as tool_version
        Path(args.sarif).write_text(
            render_sarif(diagnostics, tool_version=tool_version),
            encoding="utf-8")
    if args.json:
        print(chk.render_json(diagnostics, paths=list(map(str, paths)),
                              baseline_absorbed=absorbed))
    else:
        if absorbed:
            print(f"({absorbed} accepted finding(s) absorbed by the "
                  "baseline)")
        print(chk.render_text(diagnostics))
    gating = [d for d in diagnostics if d.severity in ("error", "warning")]
    return 1 if gating else 0


def _stats(args) -> int:
    snapshot = obs.load_snapshot(args.snapshot)
    if args.format == "prom":
        print(obs.prometheus_text(snapshot), end="")
        return 0
    if args.format == "json":
        print(obs.to_json(snapshot), end="")
        return 0
    rows = []
    for m in snapshot.get("metrics", []):
        labels = ",".join(f"{k}={v}" for k, v in sorted(m["labels"].items()))
        if m["kind"] == "histogram":
            count = m["count"]
            mean = m["sum"] / count if count else 0.0
            value = (f"count={count} sum={m['sum']:.6g} mean={mean:.6g} "
                     f"min={m['min']} max={m['max']}")
        else:
            value = f"{m['value']:g}"
        rows.append({
            "metric": m["name"],
            "kind": m["kind"],
            "labels": labels or "-",
            "value": value,
        })
    if rows:
        print(render_table(rows))
    else:
        print("no metrics in snapshot")
    spans = snapshot.get("spans", [])
    if spans:
        by_name = {}
        for s in spans:
            entry = by_name.setdefault(s["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += s["duration"]
        print(f"\nspans ({len(spans)} events):")
        for name in sorted(by_name):
            count, total = by_name[name]
            print(f"  {name:<24} n={count:<5d} total {total * 1e3:.2f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSE: parallel FSMs with convergence set enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a ruleset file")
    p_compile.add_argument("rules", help="file with one regex per line")
    p_compile.add_argument("--no-minimize", action="store_true")
    p_compile.set_defaults(func=_compile)

    p_profile = sub.add_parser("profile", help="predict convergence sets")
    p_profile.add_argument("rules")
    p_profile.add_argument("--inputs", type=int, default=1000)
    p_profile.add_argument("--length", type=int, default=200)
    p_profile.add_argument("--symbol-low", type=int, default=0)
    p_profile.add_argument("--symbol-high", type=int, default=255)
    p_profile.add_argument("--cutoff", type=float, default=0.99)
    p_profile.add_argument("--seed", type=int, default=20180623)
    p_profile.add_argument("-o", "--output", help="save partition JSON here")
    p_profile.set_defaults(func=_profile)

    p_run = sub.add_parser("run", help="scan an input file")
    p_run.add_argument("rules")
    p_run.add_argument("input", help="binary input file")
    p_run.add_argument("--engine", default="cse",
                       choices=["sequential", "enumerative", "lbe", "pap", "cse"])
    p_run.add_argument("--segments", type=int, default=16)
    p_run.add_argument("--cores", type=int, default=1)
    p_run.add_argument("--lookback", type=int, default=20)
    p_run.add_argument("--cutoff", type=float, default=0.99)
    p_run.add_argument("--symbol-low", type=int, default=0)
    p_run.add_argument("--symbol-high", type=int, default=255)
    p_run.add_argument("--partition", help="partition JSON from `profile -o`")
    p_run.add_argument("--cache-dir",
                       help="serve the CSE profiling products from a "
                            "persistent compilation cache in this directory")
    p_run.add_argument("--no-cache", action="store_true",
                       help="ignore --cache-dir (always re-profile)")
    p_run.add_argument("--reports", type=int, default=0,
                       help="print up to N report events")
    p_run.add_argument("--metrics-out",
                       help="write a metrics snapshot here "
                            "(.json/.jsonl/.prom by suffix)")
    p_run.add_argument("--trace-out",
                       help="write a Chrome trace-event file here (Perfetto)")
    p_run.add_argument("--metrics-port", type=int, default=None,
                       help="serve live /metrics + /snapshot.json on this "
                            "port while the scan runs (0 = ephemeral)")
    p_run.set_defaults(func=_run)

    p_suite = sub.add_parser("suite", help="run Table-I benchmarks")
    p_suite.add_argument("--benchmark", help="one benchmark (default: all)")
    p_suite.add_argument("--scale", type=float, default=1.0)
    p_suite.set_defaults(func=_suite)

    p_fig = sub.add_parser("figures", help="regenerate a paper artifact")
    p_fig.add_argument("figure", help="table1|table2|fig8|fig12|...|fig18")
    p_fig.add_argument("--scale", type=float, default=1.0)
    p_fig.set_defaults(func=_figures)

    p_anml = sub.add_parser("anml", help="load/scan an ANML automaton")
    p_anml.add_argument("anml_file")
    p_anml.add_argument("--input", help="binary file to scan")
    p_anml.add_argument("--reports", type=int, default=5)
    p_anml.set_defaults(func=_anml)

    p_sw = sub.add_parser("software", help="wall-clock software CSE scan")
    p_sw.add_argument("rules")
    p_sw.add_argument("input", help="binary input file")
    p_sw.add_argument("--backend", default="auto",
                      choices=("auto",) + BACKENDS)
    p_sw.add_argument("--segments", type=int, default=16)
    p_sw.add_argument("--processes", type=int, default=0,
                      help="run segments on a process pool of this size")
    p_sw.add_argument("--partition", help="partition JSON from `profile -o`")
    p_sw.add_argument("--trivial", action="store_true",
                      help="use the single-set partition instead of profiling")
    p_sw.add_argument("--cutoff", type=float, default=0.99)
    p_sw.add_argument("--symbol-low", type=int, default=0)
    p_sw.add_argument("--symbol-high", type=int, default=255)
    p_sw.add_argument("--repeat", type=int, default=1,
                      help="scan the input N times (shows warm-cache reuse)")
    p_sw.add_argument("--cache-dir",
                      help="persist compiled artifacts in this directory")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="disable the compilation cache (legacy path)")
    p_sw.add_argument("--metrics-out",
                      help="write a metrics snapshot here "
                           "(.json/.jsonl/.prom by suffix)")
    p_sw.add_argument("--trace-out",
                      help="write a Chrome trace-event file here (Perfetto)")
    p_sw.add_argument("--metrics-port", type=int, default=None,
                      help="serve live /metrics + /snapshot.json on this "
                           "port while the scan runs (0 = ephemeral)")
    p_sw.add_argument("--profile-out",
                      help="sample wall-clock stacks during the scan and "
                           "write folded flamegraph text here")
    p_sw.set_defaults(func=_software)

    p_fleet = sub.add_parser(
        "fleet", help="scan one input against many rulesets (sharded)")
    p_fleet.add_argument("input", help="binary input file")
    p_fleet.add_argument("rules", nargs="*",
                         help="rules files, one machine each")
    p_fleet.add_argument("--family",
                         help="generate machines from a paper-suite family "
                              "instead (e.g. ExactMatch, Snort)")
    p_fleet.add_argument("--machines", type=int, default=16,
                         help="fleet size for --family")
    p_fleet.add_argument("--patterns", type=int, default=4,
                         help="patterns per generated machine")
    p_fleet.add_argument("--seed", type=int, default=7)
    p_fleet.add_argument("--segments", type=int, default=8)
    p_fleet.add_argument("--backend", default="auto",
                         choices=("auto",) + BACKENDS)
    p_fleet.add_argument("--no-shard", action="store_true",
                         help="run the per-machine loop instead of product "
                              "shards")
    p_fleet.add_argument("--max-shard-states", type=int, default=None,
                         help="shard product budget "
                              f"(default: {SHARD_MAX_STATES})")
    p_fleet.add_argument("--compare", action="store_true",
                         help="also time the per-machine loop and verify "
                              "bit-identical final states")
    p_fleet.add_argument("--metrics-out",
                         help="write a metrics snapshot here "
                              "(.json/.jsonl/.prom by suffix)")
    p_fleet.add_argument("--trace-out",
                         help="write a Chrome trace-event file here "
                              "(Perfetto)")
    p_fleet.add_argument("--metrics-port", type=int, default=None,
                         help="serve live /metrics + /snapshot.json on this "
                              "port while the scan runs (0 = ephemeral)")
    p_fleet.set_defaults(func=_fleet)

    p_stats = sub.add_parser("stats", help="pretty-print a metrics snapshot")
    p_stats.add_argument("snapshot", help="file from --metrics-out "
                                          "(JSON or JSON-lines)")
    p_stats.add_argument("--format", default="table",
                         choices=["table", "prom", "json"])
    p_stats.set_defaults(func=_stats)

    p_check = sub.add_parser(
        "check", help="static soundness verification (artifact | lint)")
    check_sub = p_check.add_subparsers(dest="check_command", required=True)

    p_ca = check_sub.add_parser(
        "artifact",
        help="verify a compiled artifact (.cdfa), a rules file, or a "
             "--family ruleset; certify its convergence sets exactly")
    p_ca.add_argument("target", nargs="?",
                      help=".cdfa artifact or rules file (one regex/line)")
    p_ca.add_argument("--family",
                      help="verify a generated paper-suite ruleset instead "
                           "(e.g. ExactMatch, Snort, ClamAV)")
    p_ca.add_argument("--patterns", type=int, default=20,
                      help="pattern count for --family rulesets")
    p_ca.add_argument("--seed", type=int, default=7,
                      help="generator seed for --family rulesets")
    p_ca.add_argument("--segments", type=int, default=16)
    p_ca.add_argument("--backend", default="auto",
                      choices=("auto",) + BACKENDS)
    p_ca.add_argument("--cutoff", type=float, default=0.99)
    p_ca.add_argument("--inputs", type=int, default=300)
    p_ca.add_argument("--length", type=int, default=200)
    p_ca.add_argument("--symbol-low", type=int, default=0)
    p_ca.add_argument("--symbol-high", type=int, default=255)
    p_ca.add_argument("--depth", type=int, default=512,
                      help="set-automaton exploration depth budget")
    p_ca.add_argument("--max-sets", type=int, default=4096,
                      help="set-automaton exploration node budget")
    p_ca.add_argument("--fleet", type=int, default=0,
                      help="instead: build an N-machine --family fleet, plan "
                           "shards, and verify every shard artifact "
                           "(K120-K123)")
    p_ca.add_argument("--json", action="store_true",
                      help="emit structured JSON instead of text")
    p_ca.set_defaults(func=_check_artifact)

    p_cl = check_sub.add_parser(
        "lint",
        help="run the repo's lint rules: per-node R1xx plus the "
             "flow-sensitive R2xx/R3xx families")
    p_cl.add_argument("paths", nargs="*",
                      help="files or directories (default: src)")
    p_cl.add_argument("--json", action="store_true",
                      help="emit structured JSON instead of text")
    p_cl.add_argument("--flow", dest="flow", action="store_true",
                      default=True,
                      help="run the flow-sensitive R2xx/R3xx rules "
                           "(default)")
    p_cl.add_argument("--no-flow", dest="flow", action="store_false",
                      help="per-node R1xx rules only")
    p_cl.add_argument("--sarif", metavar="PATH",
                      help="also write the (post-baseline) findings as a "
                           "SARIF 2.1.0 report for CI annotations")
    p_cl.add_argument("--baseline", metavar="PATH",
                      help="accepted-findings baseline file (default: "
                           ".repro-lint-baseline.json when present)")
    p_cl.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring any baseline")
    p_cl.add_argument("--write-baseline", action="store_true",
                      help="accept the current findings: (re)write the "
                           "baseline file and exit 0")
    p_cl.add_argument("--cache", metavar="PATH",
                      help="incremental cache file (default: "
                           ".repro_check_cache.json)")
    p_cl.add_argument("--no-cache", action="store_true",
                      help="re-analyze every file from scratch")
    p_cl.set_defaults(func=_check_lint)

    p_top = sub.add_parser(
        "top", help="live terminal view of a running scan's snapshot deltas")
    p_top.add_argument("source",
                       help="live endpoint URL (from --metrics-port) or a "
                            "snapshot JSON file refreshed by another process")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="stop after N frames (default: until Ctrl-C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append frames instead of clearing the screen")
    p_top.set_defaults(func=_top)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (flight recorder)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_tail = obs_sub.add_parser(
        "tail", help="show recent spans + scan summaries from a flight "
                     "recorder dump or a live endpoint")
    p_tail.add_argument("source",
                        help="flight dump JSON (repro-flight-<pid>.json) or "
                             "a live endpoint URL (fetches /flight.json)")
    p_tail.add_argument("-n", "--lines", type=int, default=20,
                        help="show the most recent N spans")
    p_tail.set_defaults(func=_obs_tail)

    p_plan = sub.add_parser("plan", help="recommend a half-core allocation")
    p_plan.add_argument("rules")
    p_plan.add_argument("--inputs", type=int, default=300)
    p_plan.add_argument("--length", type=int, default=300)
    p_plan.add_argument("--input-len", type=int, default=4800)
    p_plan.add_argument("--cutoff", type=float, default=0.99)
    p_plan.add_argument("--symbol-low", type=int, default=0)
    p_plan.add_argument("--symbol-high", type=int, default=255)
    p_plan.set_defaults(func=_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
