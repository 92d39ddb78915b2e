"""Command line front end.

Exit codes: 0 success, 1 usage/parse errors, 2 a well-formed request that
could not be embedded (machine-readable JSON reason on stdout). Result files
are written atomically and, timing tables aside, are byte-identical across
reruns with the same seed and flags.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path
from typing import Sequence

import click
import yaml

from .heuristic import pess_embed
from .oracle import OracleBudgetExceeded, OracleConfig, exact_embed
from .service import ServiceError, request_from_doc
from .simulator import (
    Metrics,
    WorkloadConfig,
    run_heuristic_vs_oracle,
    run_scalability,
    run_simulation,
    run_twin_comparison,
)
from .state import CostParams, NetworkState
from .topology import (
    PhysicalNetwork,
    TopologyError,
    builtin_profile,
    generate_barabasi_albert,
    load_topology,
)

METRICS_SCHEMA = "pess-metrics v1"
GAP_SCHEMA = "pess-oracle-gap v1"
SCALABILITY_SCHEMA = "pess-scalability v1"
SUMMARY_SCHEMA = "pess-summary v1"

METRICS_COLUMNS = [
    "load", "solver", "seed", "offered", "accepted", "rejected",
    "blocking_probability", "consumed_cpu_fraction", "active_services",
    "mean_chain_latency", "delay_ratio_vs", "consumed_cpu_by_region",
    "stream_checksum",
]


class _Rejected(Exception):
    def __init__(self, reason: str, violation: str | None = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.violation = violation


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt(value) -> str:
    if value is None:
        return ""
    return str(value)


def _metrics_row(metrics: Metrics, seed: int) -> list[str]:
    return [
        _fmt(metrics.load), metrics.solver, _fmt(seed), _fmt(metrics.offered),
        _fmt(metrics.accepted), _fmt(metrics.rejected),
        _fmt(metrics.blocking_probability), _fmt(metrics.consumed_cpu_fraction),
        _fmt(metrics.active_services), _fmt(metrics.mean_chain_latency),
        _fmt(metrics.delay_ratio_vs),
        json.dumps(dict(sorted(metrics.consumed_cpu_by_region.items())),
                   separators=(",", ":")),
        metrics.stream_checksum,
    ]


def _write_csv(path: Path, schema: str, columns: list[str], rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    buffer.write(f"# {schema}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write(path, buffer.getvalue())


def _write_summary(path: Path, config: dict, rows) -> None:
    doc = {"schema": SUMMARY_SCHEMA, "config": config, "rows": rows}
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _config(obj: dict, topo: dict, **fields) -> dict:
    """The ``summary.json`` config of a run: the command's own ``fields``,
    the cost weights and the topology options."""
    return {**fields, "alpha": obj["params"].alpha, "delta": obj["params"].delta, **topo}


def _write_metrics(obj: dict, topo: dict, rows: list[list[str]], **fields) -> None:
    """Write ``metrics.csv`` and ``summary.json`` with ``_config(obj, topo, **fields)``."""
    out = obj["out"]
    _write_csv(out / "metrics.csv", METRICS_SCHEMA, METRICS_COLUMNS, rows)
    _write_summary(out / "summary.json", _config(obj, topo, **fields),
                   [dict(zip(METRICS_COLUMNS, row)) for row in rows])


def _checked(build, **fields):
    """``build(**fields)``, with a value it refuses reported as a usage error."""
    try:
        return build(**fields)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


def _build_network(ctx_obj: dict, topology: str, topology_file: str | None,
                   nodes: int | None, attachment_m: int) -> PhysicalNetwork:
    if topology == "ba":
        if nodes is None:
            raise click.UsageError("--topology ba needs --nodes")
        return generate_barabasi_albert(nodes, attachment_m, seed=ctx_obj["seed"])
    if topology_file is None:
        raise click.UsageError("--topology file needs --topology-file")
    path = Path(topology_file)
    if not path.exists() and topology_file.lower() in ("garr", "stanford"):
        return builtin_profile(topology_file)
    if not path.exists():
        raise TopologyError(f"topology file '{topology_file}' does not exist")
    return load_topology(path)


def _topology_options(fn):
    """The four topology options; a command takes them as ``**topo``."""
    fn = click.option("--topology", type=click.Choice(["ba", "file"]), default="ba",
                      show_default=True, help="Use a random network or a topology file.")(fn)
    fn = click.option("--topology-file", default=None,
                      help="Topology document path, or 'garr'/'stanford' for the bundled ones.")(fn)
    fn = click.option("--nodes", type=int, default=None, help="Node count for --topology ba.")(fn)
    fn = click.option("--attachment-m", type=int, default=2, show_default=True,
                      help="Attachment parameter for --topology ba.")(fn)
    return fn


@click.group()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--delta", type=float, default=1e-6, show_default=True,
              help="Stabiliser added to residual capacities in cost/delay terms.")
@click.option("--alpha", type=float, default=1.0, show_default=True,
              help="Weight of the CPU cost term against the bandwidth term.")
@click.option("--out", type=click.Path(), default=".", show_default=True,
              help="Directory for result files.")
@click.pass_context
def cli(ctx: click.Context, seed: int, delta: float, alpha: float, out: str) -> None:
    """Embed security service chains and run workload experiments."""
    ctx.obj = {
        "seed": seed,
        "params": _checked(CostParams, alpha=alpha, delta=delta),
        "out": Path(out),
    }


def _load_request(request_file: str):
    doc = yaml.safe_load(Path(request_file).read_text())
    return request_from_doc(doc)


@cli.command()
@_topology_options
@click.option("--request-file", required=True, help="Service request document.")
@click.pass_obj
def embed(obj: dict, request_file: str, **topo) -> None:
    """Embed one request on a fresh network and print the result."""
    net = _build_network(obj, **topo)
    request = _load_request(request_file)
    state = NetworkState.fresh(net)
    outcome = pess_embed(state, request, obj["params"])
    if not outcome.accepted:
        raise _Rejected(outcome.reason, outcome.violation)
    click.echo(f"cost: {outcome.cost:.6g}")
    for idx, latency in enumerate(outcome.chain_latencies):
        click.echo(f"chain {idx} latency: {latency:.6g} s")
    click.echo(yaml.safe_dump({"embedding": outcome.embedding.to_dict()}, sort_keys=False),
               nl=False)


@cli.command()
@_topology_options
@click.option("--request-file", required=True, help="Service request document.")
@click.option("--objective", type=click.Choice(["resource-cost", "active-nodes", "min-latency"]),
              default="resource-cost", show_default=True)
@click.option("--max-path-len", type=int, default=None,
              help="Max arcs per routed segment (default: node count - 1).")
@click.option("--max-enumeration", type=int, default=2_000_000, show_default=True)
@click.pass_obj
def oracle(obj: dict, request_file: str, objective: str, max_path_len: int | None,
           max_enumeration: int, **topo) -> None:
    """Exhaustively solve one request on a fresh network."""
    cfg = _checked(OracleConfig, objective=objective, max_path_len=max_path_len,
                   max_enumeration=max_enumeration)
    net = _build_network(obj, **topo)
    request = _load_request(request_file)
    state = NetworkState.fresh(net)
    outcome = exact_embed(state, request, cfg, obj["params"])
    if not outcome.optimal:
        raise _Rejected("infeasible")
    click.echo(f"objective: {objective}")
    click.echo(f"score: {outcome.score:.6g}")
    click.echo(f"assignments evaluated: {outcome.evaluated}")
    click.echo(yaml.safe_dump({"embedding": outcome.embedding.to_dict()}, sort_keys=False),
               nl=False)


def _parse_list(text: str, parse, bad: str) -> list:
    """``parse`` of each non-blank entry of the comma-separated ``text``. An
    entry it refuses is a usage error: ``bad``, with ``{part}`` and
    ``{text}`` filled in."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(parse(part))
        except ValueError:
            raise click.UsageError(bad.format(part=part, text=text)) from None
    return values


def _sweep(obj: dict, loads: str, seeds: str | None, requests: int, warmup: int):
    """The loads and seeds of ``--loads`` and ``--seeds``, and the
    ``(seed, workload)`` of every point, loads outermost."""
    load_values = _parse_list(
        loads, float, "--loads must be comma-separated numbers, got '{text}'"
    )
    if not load_values:
        raise click.UsageError("--loads must name at least one load")
    seed_values = _parse_list(
        seeds or "", int, "--seeds must be comma-separated integers, got '{text}'"
    ) or [obj["seed"]]
    points = [
        (seed, _checked(WorkloadConfig, load_erlang=load, n_requests=requests, warmup=warmup))
        for load in load_values
        for seed in seed_values
    ]
    return load_values, seed_values, points


@cli.command()
@_topology_options
@click.option("--loads", required=True, help="Comma-separated offered loads (Erlang).")
@click.option("--solver", type=click.Choice(["pess", "baseline-pess"]), default="pess",
              show_default=True)
@click.option("--requests", type=int, default=100_000, show_default=True)
@click.option("--warmup", type=int, default=80_000, show_default=True)
@click.option("--seeds", default=None, help="Comma-separated seeds (default: the global --seed).")
@click.pass_obj
def simulate(obj: dict, loads: str, solver: str, requests: int, warmup: int,
             seeds: str | None, **topo) -> None:
    """Simulate a Poisson workload and write a metrics table."""
    net = _build_network(obj, **topo)
    load_values, seed_values, points = _sweep(obj, loads, seeds, requests, warmup)
    rows = [_metrics_row(run_simulation(net, cfg, solver, seed, obj["params"]), seed)
            for seed, cfg in points]
    _write_metrics(obj, topo, rows, command="simulate", loads=load_values, seeds=seed_values,
                   solver=solver, requests=requests, warmup=warmup)
    for row in rows:
        click.echo(f"load={row[0]} seed={row[2]} solver={row[1]} "
                   f"blocking={row[6]} cpu={row[7]}")
    click.echo(f"wrote {obj['out'] / 'metrics.csv'}")


@cli.command()
@_topology_options
@click.option("--loads", required=True, help="Comma-separated offered loads (Erlang).")
@click.option("--requests", type=int, default=100_000, show_default=True)
@click.option("--warmup", type=int, default=80_000, show_default=True)
@click.option("--seeds", default=None, help="Comma-separated seeds (default: the global --seed).")
@click.pass_obj
def compare(obj: dict, loads: str, requests: int, warmup: int, seeds: str | None,
            **topo) -> None:
    """Twin PESS vs aggregate-baseline runs on shared request streams."""
    net = _build_network(obj, **topo)
    load_values, seed_values, points = _sweep(obj, loads, seeds, requests, warmup)
    reports = [run_twin_comparison(net, cfg, seed, obj["params"]) for seed, cfg in points]
    rows = []
    for report, (seed, _) in zip(reports, points):
        rows.append(_metrics_row(report.pess, seed))
        rows.append(_metrics_row(report.baseline, seed))
    _write_metrics(obj, topo, rows, command="compare", loads=load_values, seeds=seed_values,
                   requests=requests, warmup=warmup)
    for report, (seed, cfg) in zip(reports, points):
        ratio = report.delay_ratio
        click.echo(
            f"load={cfg.load_erlang} seed={seed} "
            f"blocking pess={report.pess.blocking_probability:.4f} "
            f"baseline={report.baseline.blocking_probability:.4f} "
            f"delay-ratio={ratio if ratio is None else f'{ratio:.3f}'}"
        )
    click.echo(f"wrote {obj['out'] / 'metrics.csv'}")


@cli.command(name="oracle-gap")
@_topology_options
@click.option("--load", type=float, required=True, help="Offered load (Erlang).")
@click.option("--requests", type=int, default=600, show_default=True)
@click.option("--warmup", type=int, default=400, show_default=True)
@click.option("--compare", "compare_n", type=int, default=None,
              help="How many post-warmup requests to price with the oracle.")
@click.option("--max-path-len", type=int, default=None)
@click.option("--max-enumeration", type=int, default=2_000_000, show_default=True)
@click.pass_obj
def oracle_gap(obj: dict, load: float, requests: int, warmup: int, compare_n: int | None,
               max_path_len: int | None, max_enumeration: int, **topo) -> None:
    """Price heuristic embeddings against the exhaustive oracle."""
    net = _build_network(obj, **topo)
    cfg = _checked(WorkloadConfig, load_erlang=load, n_requests=requests, warmup=warmup)
    oracle_cfg = _checked(OracleConfig, max_path_len=max_path_len,
                          max_enumeration=max_enumeration)
    report = run_heuristic_vs_oracle(
        net, cfg, oracle_cfg, obj["seed"], obj["params"], compare=compare_n
    )
    row = {
        "load": load, "seed": obj["seed"], "compared": report.compared,
        "both_solved": report.both_solved, "heuristic_blocked": report.heuristic_blocked,
        "oracle_blocked": report.oracle_blocked, "budget_exceeded": report.budget_exceeded,
        "overhead_mean": report.overhead_mean, "overhead_median": report.overhead_median,
        "overhead_max": report.overhead_max,
    }
    out = obj["out"]
    _write_csv(
        out / "oracle_gap.csv", GAP_SCHEMA, list(row),
        [[_fmt(value) for value in row.values()]],
    )
    config = _config(obj, topo, command="oracle-gap", load=load, seed=obj["seed"],
                     requests=requests, warmup=warmup, compare=compare_n,
                     max_path_len=max_path_len, max_enumeration=max_enumeration)
    _write_summary(out / "summary.json", config, [row])
    click.echo(
        f"compared={report.compared} both={report.both_solved} "
        f"overhead mean={report.overhead_mean} max={report.overhead_max} "
        f"(heuristic {report.heuristic_ms_mean and f'{report.heuristic_ms_mean:.2f}'} ms, "
        f"oracle {report.oracle_ms_mean and f'{report.oracle_ms_mean:.1f}'} ms per request)"
    )
    click.echo(f"wrote {out / 'oracle_gap.csv'}")


def _parse_size(part: str) -> tuple[int, int]:
    n_text, m_text = part.split(":")
    return int(n_text), int(m_text)


@cli.command()
@click.option("--sizes", required=True,
              help="Comma-separated topology sizes as NODES:M, e.g. 100:5,1000:5.")
@click.option("--requests", type=int, default=200, show_default=True)
@click.option("--ep2-sizes", default="1", show_default=True,
              help="Comma-separated remote endpoint set sizes.")
@click.pass_obj
def scalability(obj: dict, sizes: str, requests: int, ep2_sizes: str) -> None:
    """Time the heuristic across network and endpoint-set sizes.

    The table holds wall-clock measurements, so reruns are not byte-identical.
    """
    size_values = _parse_list(
        sizes, _parse_size, "--sizes entries look like NODES:M, got '{part}'"
    )
    if not size_values:
        raise click.UsageError("--sizes must name at least one topology size")
    ep2_values = _parse_list(ep2_sizes, int, "--ep2-sizes must be integers, got '{text}'") or [1]
    rows = run_scalability(
        size_values, requests, ep2_sizes=ep2_values, seed=obj["seed"], params=obj["params"],
    )
    columns = ["n_nodes", "m", "ep2_size", "requests", "accepted",
               "embed_ms_mean", "embed_ms_p50", "embed_ms_p95", "embed_ms_p99"]
    table = []
    for row in rows:
        stats = row.embed_time
        table.append([
            _fmt(row.n_nodes), _fmt(row.m), _fmt(row.ep2_size), _fmt(row.requests),
            _fmt(row.accepted),
            _fmt(stats.mean and stats.mean * 1e3), _fmt(stats.p50 and stats.p50 * 1e3),
            _fmt(stats.p95 and stats.p95 * 1e3), _fmt(stats.p99 and stats.p99 * 1e3),
        ])
    out = obj["out"]
    _write_csv(out / "scalability.csv", SCALABILITY_SCHEMA, columns, table)
    for line in table:
        click.echo(f"n={line[0]} m={line[1]} |EP2|={line[2]} mean={line[5]} ms")
    click.echo(f"wrote {out / 'scalability.csv'}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except _Rejected as exc:
        payload = {"status": "rejected", "reason": exc.reason}
        if exc.violation is not None:
            payload["violation"] = exc.violation
        click.echo(json.dumps(payload))
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except OracleBudgetExceeded as exc:
        click.echo(json.dumps({"status": "error", "reason": "budget-exceeded",
                               "detail": str(exc)}), err=True)
        return 1
    except yaml.YAMLError as exc:
        # Keeps the parser's line/column report.
        click.echo(f"error: {exc}", err=True)
        return 1
    except (TopologyError, ServiceError, FileNotFoundError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
