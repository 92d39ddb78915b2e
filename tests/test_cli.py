import hashlib
import json
import re
from pathlib import Path

import pytest
import yaml

from pess.cli import main
from pess.service import request_from_doc
from pess.topology import load_topology


@pytest.fixture
def request_file(tmp_path):
    path = tmp_path / "request.yaml"
    path.write_text(
        "ep1: 0\n"
        "ep2: [3]\n"
        "chains:\n"
        "  - direction: up\n"
        "    vsnfs: [snort]\n"
        "    bandwidth: 5.0e6\n"
        "    max_latency: 0.2\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmbed:
    def test_happy_path(self, capsys, request_file):
        code, out, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", request_file,
        )
        assert code == 0, err
        assert out.startswith("cost: ")
        assert "chain 0 latency:" in out
        doc = yaml.safe_load(out[out.index("embedding:"):])
        cemb = doc["embedding"]["chains"][0]
        assert cemb["src"] == 0 and cemb["dst"] == 3
        assert len(cemb["vsnf_nodes"]) == 1

    def test_rejection_is_machine_readable(self, capsys, tmp_path):
        req = tmp_path / "big.yaml"
        req.write_text(
            "ep1: 0\nep2: [3]\nchains:\n"
            "  - direction: up\n    bandwidth: 2.0e10\n    max_latency: 0.2\n"
        )
        code, out, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", str(req),
        )
        assert code == 2
        assert json.loads(out) == {"status": "rejected", "reason": "no-route"}

    def test_infeasible_rejection_names_violation(self, capsys, tmp_path):
        req = tmp_path / "tight.yaml"
        req.write_text(
            "ep1: 0\nep2: [3]\nchains:\n"
            "  - direction: up\n    bandwidth: 1000\n    max_latency: 1.0e-9\n"
        )
        code, out, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", str(req),
        )
        assert code == 2, err
        assert json.loads(out) == {
            "status": "rejected", "reason": "infeasible", "violation": "latency",
        }

    def test_builtin_topologies(self, capsys, request_file):
        for name in ("garr", "stanford"):
            code, out, _ = run(
                capsys, "embed", "--topology", "file", "--topology-file", name,
                "--request-file", request_file,
            )
            assert code == 0
            assert "cost:" in out


class TestErrors:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("embed", "--request-file", "whatever.yaml"), "--nodes"),
            (("embed", "--topology", "file", "--request-file", "x.yaml"),
             "--topology-file"),
            (("simulate", "--topology", "ba", "--nodes", "8"), "--loads"),
            (("--threads", "0", "scalability", "--sizes", "10:2"), "--threads"),
            (("bogus-command",), "bogus-command"),
            (("scalability", "--sizes", "10x2"), "NODES:M"),
            # Values the configuration objects refuse.
            (("--alpha", "-1", "embed", "--nodes", "8", "--request-file", "x.yaml"),
             "error: alpha must be >= 0"),
            (("--delta", "nan", "embed", "--nodes", "8", "--request-file", "x.yaml"),
             "error: delta must be > 0"),
            (("simulate", "--nodes", "8", "--loads", "-5"), "error: load_erlang must be > 0"),
            (("simulate", "--nodes", "8", "--loads", "nan"), "error: load_erlang must be > 0"),
            (("simulate", "--nodes", "8", "--loads", "5", "--requests", "10", "--warmup", "20"),
             "error: warmup must be in [0, n_requests)"),
            (("oracle", "--nodes", "6", "--request-file", "x.yaml", "--max-path-len", "-1"),
             "error: max_path_len must be >= 0"),
            (("oracle-gap", "--nodes", "6", "--load", "5", "--warmup", "20", "--requests", "10"),
             "error: warmup must be in [0, n_requests)"),
            (("simulate", "--nodes", "8", "--loads", "inf"),
             "error: load_erlang must be > 0 and finite"),
            (("scalability", "--sizes", "10:2", "--ep2-sizes", "20"),
             "error: ep2_size 20 too large for 10 nodes"),
            # Counts that would measure nothing.
            (("oracle-gap", "--nodes", "6", "--load", "5", "--compare", "-3"),
             "error: Invalid value for '--compare': -3 is not in the range x>=1."),
            (("scalability", "--sizes", "10:2", "--requests", "0"),
             "error: Invalid value for '--requests': 0 is not in the range x>=1."),
            (("oracle-gap", "--nodes", "6", "--load", "5", "--requests", "30", "--warmup", "20",
              "--compare", "1000", "--max-path-len", "2"),
             "error: compare must be in [1, n_requests - warmup = 10]"),
        ],
    )
    def test_usage_errors(self, capsys, tmp_path, monkeypatch, argv, needle):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert needle in err
        assert err.count("error:") == 1
        assert list(tmp_path.iterdir()) == []

    def test_bad_loads_list(self, capsys, request_file):
        code, _, err = run(
            capsys, "simulate", "--topology", "ba", "--nodes", "8",
            "--loads", "ten,20",
        )
        assert code == 1
        assert "comma-separated numbers" in err

    def test_malformed_yaml_reports_position(self, capsys, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("ep1: [3\nchains:\n")
        code, _, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", str(bad),
        )
        assert code == 1
        assert "line" in err

    def test_malformed_request_doc_located(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "ep1: 0\nep2: [3]\nchains:\n"
            "  - bandwidth: lots\n    max_latency: 0.2\n"
        )
        code, _, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", str(bad),
        )
        assert code == 1
        assert "chains[0]" in err

    @pytest.mark.parametrize(
        "link,needle",
        [("delay: abc", "error: links[0]: 'delay'"),
         ("distance_km: .nan", "error: links[0]: 'distance_km'")],
    )
    def test_malformed_topology_doc_located(self, capsys, tmp_path, request_file, link, needle):
        bad = tmp_path / "net.yaml"
        bad.write_text(
            "nodes: [{name: a}, {name: b}]\nlinks:\n"
            f"  - {{endpoints: [a, b], {link}}}\n"
        )
        code, _, err = run(
            capsys, "embed", "--topology", "file", "--topology-file", str(bad),
            "--request-file", request_file,
        )
        assert code == 1
        assert err.startswith(needle)

    def test_out_of_range_endpoint(self, capsys, tmp_path):
        bad = tmp_path / "far.yaml"
        bad.write_text(
            "ep1: 0\nep2: [99]\nchains:\n"
            "  - bandwidth: 1000\n    max_latency: 0.2\n"
        )
        code, _, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "6",
            "--request-file", str(bad),
        )
        assert code == 1
        assert "ep2: node 99 not in network of 6 nodes" in err

    def test_missing_topology_file(self, capsys, request_file):
        code, _, err = run(
            capsys, "embed", "--topology", "file",
            "--topology-file", "/nope/missing.yaml",
            "--request-file", request_file,
        )
        assert code == 1
        assert "does not exist" in err

    def test_missing_request_file(self, capsys):
        code, _, err = run(
            capsys, "embed", "--topology", "ba", "--nodes", "8",
            "--request-file", "/nope/request.yaml",
        )
        assert code == 1
        assert "error:" in err


class TestSimulate:
    def simulate(self, capsys, out_dir):
        return run(
            capsys, "--seed", "1", "--out", str(out_dir),
            "simulate", "--topology", "ba", "--nodes", "10",
            "--loads", "5,10", "--seeds", "1,2",
            "--requests", "200", "--warmup", "50",
        )

    def test_writes_schema_tagged_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "results" / "nested"
        code, out, err = self.simulate(capsys, out_dir)
        assert code == 0, err
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "# pess-metrics v1"
        assert lines[1].split(",")[:4] == ["load", "solver", "seed", "offered"]
        assert len(lines) == 2 + 4  # comment + header + 2 loads x 2 seeds
        assert "wrote" in out

        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["schema"] == "pess-summary v1"
        assert summary["config"]["loads"] == [5.0, 10.0]
        assert summary["config"]["seeds"] == [1, 2]
        assert summary["config"]["alpha"] == 1.0
        assert summary["config"]["delta"] == 1e-6
        assert len(summary["rows"]) == 4
        assert summary["rows"][0]["solver"] == "pess"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        self.simulate(capsys, first)
        self.simulate(capsys, second)
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()


class TestCompare:
    def test_two_rows_per_point(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--seed", "3", "--out", str(tmp_path),
            "compare", "--topology", "ba", "--nodes", "12",
            "--loads", "30", "--requests", "300", "--warmup", "100",
        )
        assert code == 0, err
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[2:4]]
        assert [r["solver"] for r in rows] == ["pess", "baseline-pess"]
        assert rows[0]["delay_ratio_vs"] == ""
        assert float(rows[1]["delay_ratio_vs"]) > 0.0
        assert rows[0]["stream_checksum"] == rows[1]["stream_checksum"]
        assert "delay-ratio=" in out


class TestOracle:
    def test_happy_path(self, capsys, request_file):
        code, out, err = run(
            capsys, "oracle", "--topology", "ba", "--nodes", "6",
            "--request-file", request_file,
        )
        assert code == 0, err
        assert "objective: resource-cost" in out
        assert "score: " in out
        assert "assignments evaluated: " in out
        yaml.safe_load(out[out.index("embedding:"):])

    def test_infeasible_request(self, capsys, tmp_path):
        req = tmp_path / "tight.yaml"
        req.write_text(
            "ep1: 0\nep2: [5]\nchains:\n"
            "  - bandwidth: 1000\n    max_latency: 1.0e-9\n"
        )
        code, out, _ = run(
            capsys, "oracle", "--topology", "ba", "--nodes", "6",
            "--request-file", str(req),
        )
        assert code == 2
        assert json.loads(out)["reason"] == "infeasible"

    def test_budget_exceeded_is_reported(self, capsys, request_file):
        code, _, err = run(
            capsys, "oracle", "--topology", "ba", "--nodes", "12",
            "--request-file", request_file, "--max-enumeration", "5",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["reason"] == "budget-exceeded"


class TestOracleGap:
    def test_writes_gap_table(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--seed", "2", "--out", str(tmp_path),
            "oracle-gap", "--topology", "ba", "--nodes", "6",
            "--load", "5", "--requests", "40", "--warmup", "20",
            "--compare", "10",
        )
        assert code == 0, err
        lines = (tmp_path / "oracle_gap.csv").read_text().splitlines()
        assert lines[0] == "# pess-oracle-gap v1"
        header = lines[1].split(",")
        row = dict(zip(header, lines[2].split(",")))
        assert row["compared"] == "10"
        assert row["oracle_blocked"] == "0"
        assert "compared=10" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["command"] == "oracle-gap"


class TestScalability:
    def test_writes_timing_table(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--seed", "1", "--out", str(tmp_path),
            "scalability", "--sizes", "12:2", "--requests", "10",
            "--ep2-sizes", "1,3",
        )
        assert code == 0, err
        lines = (tmp_path / "scalability.csv").read_text().splitlines()
        assert lines[0] == "# pess-scalability v1"
        assert lines[1].split(",") == [
            "n_nodes", "m", "ep2_size", "requests", "accepted",
            "embed_ms_mean", "embed_ms_p50", "embed_ms_p95", "embed_ms_p99",
        ]
        assert len(lines) == 4
        assert "wrote" in out


def test_readme_yaml_examples_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docs = [yaml.safe_load(block) for block in re.findall(r"```yaml\n(.*?)```", readme, re.S)]
    topologies = [doc for doc in docs if "nodes" in doc]
    requests = [doc for doc in docs if "chains" in doc]
    assert topologies and requests
    assert len(topologies) + len(requests) == len(docs)
    for doc in topologies:
        net = load_topology(doc)
        assert net.n_links == len(doc["links"])
    for doc in requests:
        assert len(request_from_doc(doc).chains) == len(doc["chains"])


def test_readme_python_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


# SHA-256 of each result file and of stdout for small runs of the commands
# that write byte-reproducible results. Stdout names the result directory,
# written as <out>, and oracle-gap's per-request wall-clock means, written
# as <ms>.
PINNED_OUTPUTS = [
    (
        ("--seed", "1", "simulate", "--topology", "ba", "--nodes", "10",
         "--loads", "100,1200", "--seeds", "1,2", "--requests", "1000", "--warmup", "600"),
        {
            "metrics.csv": "94ff30aaa4034dc1b4d6d10e3879407a85a5285f81876e8933d84c37dddf8cfd",
            "summary.json": "9be5f0271b9caf6a853fb5e6cf7a85684b66d39d16e00635d37b701ca3389744",
            "stdout": "6cc1fe981e9c30cdc411caaa53c1eb01f07079c81c55528f745a3a18e05c2df0",
        },
    ),
    (
        ("--seed", "2", "--alpha", "0.5", "simulate", "--topology", "file",
         "--topology-file", "garr", "--loads", "3000", "--solver", "baseline-pess",
         "--requests", "800", "--warmup", "400"),
        {
            "metrics.csv": "6f4af3bf38b3c8277daa6cfc6357a12c41d2465abfcfb75f0f4a1c8d66fac3d1",
            "summary.json": "b6b63b6cc56b6407a99660d23b09ded83531dd7bffa00b21e2a9d93d512fe87b",
            "stdout": "affa2a08f4db8b92b8729c16ad5c4910d9048c1b9dc8da545abd99493d5ad504",
        },
    ),
    (
        ("--seed", "3", "compare", "--topology", "ba", "--nodes", "10",
         "--loads", "800", "--seeds", "3,4", "--requests", "1000", "--warmup", "600"),
        {
            "metrics.csv": "c84ccf0b853820a441a7ff952ef233e3aadb2b9f1a6349f3bb00a8054a82e544",
            "summary.json": "9aab5e6ad9169cbf7edccdb0d0150690885adc87eedd96ea61124914a22ada7e",
            "stdout": "92a7837a38ebc110c35694920d88f04fc671356afb21657bf1d9305dfed16078",
        },
    ),
    (
        ("--seed", "2", "oracle-gap", "--topology", "ba", "--nodes", "6",
         "--load", "5", "--requests", "40", "--warmup", "20", "--compare", "10",
         "--max-path-len", "2"),
        {
            "oracle_gap.csv": "7c635b17507f8c5dd396a49ca25938d7faf9ce05f1ea327a488bbbd50e8825cf",
            "summary.json": "8f34f831c6d5d6f45ef238ba53ef740d75434a34738f81b8d6563ca0081667c2",
            "stdout": "65ecfa6917a57c050ac15693acef12654e98852f14a2fd1e25e743dbd85b9fab",
        },
    ),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "argv,expected", PINNED_OUTPUTS, ids=["simulate", "simulate-baseline", "compare", "oracle-gap"]
)
def test_output_bytes_pinned(capsys, tmp_path, argv, expected):
    code, out, err = run(capsys, "--out", str(tmp_path), *argv)
    assert code == 0, err
    out = out.replace(str(tmp_path), "<out>")
    out = re.sub(r"\(heuristic \S+ ms, oracle \S+ ms", "(heuristic <ms> ms, oracle <ms> ms", out)
    digests = {path.name: _digest(path.read_bytes()) for path in sorted(tmp_path.iterdir())}
    digests["stdout"] = _digest(out.encode())
    assert digests == expected
