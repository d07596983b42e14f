"""Command-line surface: subcommands, overrides, exit codes, outputs."""

import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import ttpo.cli as cli
from ttpo.config import parse_kv_file, resolve_config
from ttpo.report import Aggregate
from trace_reference import TraceRecord, canonical_trace_line


def run_cli(*argv):
    return cli.main(list(argv))


def test_compare_to_stdout(capsys):
    assert run_cli("compare", "--seed", "3", "--out", "-") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 3
    assert doc["config"]["mode"] == "compare"
    assert len(doc["rows"]) == 200


def test_out_file_and_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("compare", "--out", str(out), "--format", "csv") == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("instance_id,")
    assert len([line for line in lines if not line.startswith("#")]) == 201


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("count = 10\nseed = 1\np0 = constant:0.9\n")
    assert run_cli("compare", "--config", str(cfg), "--seed", "99") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 99
    assert doc["config"]["count"] == "10"
    assert doc["config"]["p0"] == "constant:0.9"


def test_stopper_flag_overrides(capsys):
    assert (
        run_cli(
            "compare",
            "--alpha", "0.01",
            "--beta", "0.02",
            "--n-min", "16",
            "--m-max", "32",
            "--streak", "3",
            "--fixed-budget", "32",
        )
        == 0
    )
    echo = json.loads(capsys.readouterr().out)["config"]
    assert echo["alpha"] == "0.01"
    assert echo["beta"] == "0.02"
    assert echo["n_min"] == "16"
    assert echo["m_max"] == "32"
    assert echo["streak_k"] == "3"
    assert echo["fixed_budget"] == "32"


def test_ttpo_defaults_to_policy_gradient(capsys):
    assert run_cli("ttpo", "--seed", "2") == 0
    assert json.loads(capsys.readouterr().out)["config"]["mode"] == "ttpo_rl"


def test_ttpo_update_flag_selects_sft(capsys):
    assert run_cli("ttpo", "--update", "sft") == 0
    assert json.loads(capsys.readouterr().out)["config"]["mode"] == "ttpo_sft"


def test_ttpo_respects_config_file_mode(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ttpo_sft\ncount = 5\n")
    assert run_cli("ttpo", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mode"] == "ttpo_sft"
    # An explicit flag beats the file.
    assert run_cli("ttpo", "--config", str(cfg), "--update", "rl") == 0
    assert json.loads(capsys.readouterr().out)["config"]["mode"] == "ttpo_rl"


def test_subcommand_mode_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode = ttpo_rl\ncount = 5\n")
    assert run_cli("compare", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["config"]["mode"] == "compare"


def test_ablate_json_document(capsys):
    assert (
        run_cli(
            "ablate",
            "--axis", "alpha_beta",
            "--values", "0.01,0.1",
            "--seed", "4",
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["axis"] == "alpha_beta"
    assert doc["values"] == [0.01, 0.1]
    assert len(doc["reports"]) == 2
    assert doc["config"]["mode"] == "ablate"


def test_ablate_csv_summary(capsys):
    assert (
        run_cli(
            "ablate",
            "--axis", "n_min",
            "--values", "16,32",
            "--format", "csv",
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("value,count,mean_tau,")
    assert lines[1].startswith("16.0,200,") or lines[1].startswith("16,200,")


def test_ablate_requires_axis():
    assert run_cli("ablate", "--values", "0.01") == 1


def write_trace(path):
    lines = [
        canonical_trace_line(
            TraceRecord(instance_id="q1", rollout_index=i, answer="a", tokens=3)
        )
        for i in range(20)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_replay_trace_path_with_a_line_break_stays_on_one_line(tmp_path, capsys):
    trace = tmp_path / "a\nb.jsonl"
    write_trace(trace)
    assert run_cli("replay", str(trace), "--format", "csv") == 0
    lines = capsys.readouterr().out.split("\n")
    # The header, one row, then the `#` block and the final newline.
    assert lines[1].startswith("q1,") and lines[-1] == ""
    assert all(line.startswith("# ") for line in lines[2:-1])
    echo = [line for line in lines if line.startswith("# config.trace = ")]
    assert echo == ["# config.trace = " + json.dumps(str(trace))]


def test_replay_positional_trace(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(trace)
    labels = tmp_path / "l.csv"
    labels.write_text("instance_id,answer\nq1,a\n")
    assert run_cli("replay", str(trace), "--labels", str(labels), "--n-min", "8") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["corpus"] == "trace"
    assert doc["rows"][0]["instance_id"] == "q1"
    assert doc["rows"][0]["pseudo_correct"] is True


def test_replay_from_a_fifo_matches_a_regular_file(tmp_path):
    """A trace replayed from a regular file, then from a FIFO at the same
    path, with the size floor for a two-half read set to 0. A FIFO can be
    read only once, so it must never be opened to be split; a replay that
    opened it twice could hang, hence the time limit."""
    lines = [
        canonical_trace_line(TraceRecord(f"q{i % 97}", i // 97, "ab"[i % 3 == 0], 3))
        for i in range(3_000)
    ]
    data = ("\n".join(lines) + "\n").encode()
    trace = tmp_path / "trace.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    # Each file considered for a split prints its size on stderr.
    program = (
        "import sys; from ttpo import cli, synth; "
        "synth._SPLIT_MIN_BYTES = 0; synth._usable_cpus = lambda: 2; "
        "split = synth._split_offset; "
        "synth._split_offset = lambda fd, size: print(size, file=sys.stderr) or split(fd, size); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )

    def replay():
        return subprocess.run(
            [sys.executable, "-c", program, "replay", str(trace), "--format", "csv"],
            env=env, capture_output=True, timeout=60,
        )

    trace.write_bytes(data)
    regular = replay()
    trace.unlink()
    os.mkfifo(trace)

    def feed():
        try:
            with open(trace, "wb") as fifo:
                fifo.write(data)
        except OSError:
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = replay()
    finally:
        if writer.is_alive():  # the replay never opened the FIFO: release the writer
            os.close(os.open(trace, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (regular.returncode, regular.stderr) == (0, f"{len(data)}\n".encode())
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", regular.stdout)
    assert regular.stdout.count(b"\nq") == 97


def test_replay_trace_from_config_file(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(trace)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trace = {trace}\nn_min = 8\n")
    assert run_cli("replay", "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["rows"]


def test_replay_without_trace_is_config_error(capsys):
    assert run_cli("replay") == 1
    assert "configuration error" in capsys.readouterr().err


def test_replay_missing_trace_file_is_corpus_error(capsys):
    assert run_cli("replay", "/nonexistent/trace.jsonl") == 2
    assert "corpus error" in capsys.readouterr().err


def test_malformed_trace_is_corpus_error(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"instance_id": "q1"}\n')
    assert run_cli("replay", str(trace)) == 2
    assert "line 1" in capsys.readouterr().err


def test_malformed_labels_row_is_corpus_error(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(canonical_trace_line(TraceRecord("q1", 0, "a", 1)) + "\n")
    labels = tmp_path / "gold.csv"
    labels.write_text("instance_id,answer\nq1,a\nq2\n")
    assert run_cli("replay", str(trace), "--labels", str(labels)) == 2
    assert "corpus error: labels line 3: expected two columns" in capsys.readouterr().err


def test_replay_parses_the_synthetic_keys_too(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(canonical_trace_line(TraceRecord("q1", 0, "a", 1)) + "\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("count = abc\nm = 1\np0 = gaussian:1\n")
    assert run_cli("replay", str(trace), "--config", str(cfg)) == 1
    assert "configuration error: count must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("update", ["rl", "sft"])
def test_closed_loop_logits_past_int64_bytes_exit_one(update, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"count = 2\nm = {2**62}\n")
    assert run_cli("ttpo", "--update", update, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert (
        f"configuration error: count * m * 8 = {2**66} exceeds 2**63 - 1: "
        "the closed loop holds a [count, m] float64 logits matrix"
    ) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--seed", "abc"),
        ("compare", "--alpha", "1.5"),
        ("compare", "--n-min", "0"),
        ("ttpo", "--fixed-budget", "0"),
    ],
)
def test_bad_values_exit_one(argv, capsys):
    assert run_cli(*argv) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("m", [2**63, 10**19])
def test_answer_space_past_int64_exits_one(m, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"count = 2\nm = {m}\n")
    assert run_cli("compare", "--config", str(cfg)) == 1
    assert f"configuration error: m must be <= 2**63 - 1, got {m}" in capsys.readouterr().err


def test_largest_answer_space_compares(tmp_path, capsys):
    # The vote kernels loop over the ids the votes hold and allocate
    # nothing per answer id, so the widest answer space runs.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"count = 2\nm = {2**63 - 1}\n")
    assert run_cli("compare", "--config", str(cfg)) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    labels = [row[key] for row in rows for key in ("pseudo_label", "fixed_label")]
    assert len(labels) == 4 and all(0 <= label < 2**63 - 1 for label in labels)


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (("compare", "--config", "{dir}"), 1, "configuration error: cannot read config file"),
        (("replay", "{dir}"), 2, "corpus error: cannot read trace file"),
        (("replay", "{trace}", "--labels", "{dir}"), 2, "corpus error: cannot read labels file"),
        (("compare", "--out", "{dir}"), 1, "configuration error: cannot write report"),
        (
            ("compare", "--out", "{dir}/missing/x.json"),
            1,
            "configuration error: cannot write report",
        ),
    ],
    ids=["config-dir", "replay-dir", "labels-dir", "out-dir", "out-missing-parent"],
)
def test_unreadable_or_unwritable_paths(tmp_path, capsys, argv, code, message):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(canonical_trace_line(TraceRecord("q1", 0, "a", 1)) + "\n")
    argv = [arg.format(dir=tmp_path, trace=trace) for arg in argv]
    assert run_cli(*argv, "--seed", "1") == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (
            ("compare", "--config", "{bad}"),
            1,
            "configuration error: cannot read config file {bad}: not valid UTF-8",
        ),
        (
            ("replay", "{bad}"),
            2,
            "corpus error: cannot read trace file {bad}: not valid UTF-8",
        ),
        (
            ("replay", "{trace}", "--labels", "{bad}"),
            2,
            "corpus error: cannot read labels file {bad}: not valid UTF-8",
        ),
        (
            ("replay", "{deep}"),
            2,
            "corpus error: trace line 2: invalid JSON (nested too deeply)",
        ),
        # Only config files skip a byte-order mark; a labels file names it.
        (
            ("replay", "{trace}", "--labels", "{bom}"),
            2,
            "corpus error: labels file {bom}: starts with a UTF-8 byte-order mark; "
            "expected header 'instance_id,answer'",
        ),
    ],
    ids=["config", "trace", "labels", "trace-nested-too-deeply", "labels-byte-order-mark"],
)
def test_undecodable_inputs(tmp_path, capsys, argv, code, message):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    bom = tmp_path / "bom.csv"
    bom.write_text("instance_id,answer\nq1,a\n", encoding="utf-8-sig")
    trace = tmp_path / "trace.jsonl"
    trace.write_text(canonical_trace_line(TraceRecord("q1", 0, "a", 1)) + "\n")
    deep = tmp_path / "deep.jsonl"
    deep.write_text(trace.read_text() + "[" * 100_000 + "\n")
    names = {"bad": bad, "trace": trace, "deep": deep, "bom": bom}
    argv = [arg.format(**names) for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "r.json")) == code
    err = capsys.readouterr().err
    assert message.format(**names) in err
    assert "internal error" not in err


@pytest.mark.parametrize("module", ["ttpo", "ttpo.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True
        )

    bad = run("compare", "--bogus")
    assert bad.returncode == 1
    assert "unrecognized arguments: --bogus" in bad.stderr
    helped = run("--help")
    assert helped.returncode == 0
    assert "usage: ttpo" in helped.stdout


def test_cli_import_loads_neither_scipy_nor_mpmath():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    probe = (
        "import sys, ttpo.cli; ttpo.cli.build_parser(); "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_unknown_config_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("burst = 7\n")
    assert run_cli("compare", "--config", str(cfg)) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert run_cli() == 1
    assert run_cli("race") == 1
    assert run_cli("compare", "--format", "yaml") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,abbreviation",
    [
        (("compare", "--n-min", "2", "--streak", "1", "--m", "3"), "--m"),
        (("ttpo", "--up", "sft"), "--up"),
        (("ablate", "--ax", "n_min", "--values", "16,32"), "--ax"),
        (("replay", "trace.jsonl", "--lab", "gold.csv"), "--lab"),
    ],
    ids=["compare", "ttpo", "ablate", "replay"],
)
def test_abbreviated_flags_exit_one(argv, abbreviation, capsys):
    # argparse would otherwise take `--m` for `--m-max`, `--up` for `--update`.
    assert run_cli(*argv) == 1
    assert f"unrecognized arguments: {abbreviation}" in capsys.readouterr().err


def test_help_and_version_exit_zero(capsys):
    assert run_cli("--help") == 0
    assert run_cli("--version") == 0
    assert run_cli("compare", "--help") == 0
    capsys.readouterr()


def test_internal_error_exit_three(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("wedged")

    monkeypatch.setattr(cli, "run_compare", boom)
    assert run_cli("compare") == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (
            ("replay", "{trace}"),
            2,
            f"corpus error: instance 'q1': tokens sum to {70 * 2**62}, more than {2**63 - 1}",
        ),
        (
            ("compare", "--config", "{config}"),
            1,
            "configuration error: cost_per_vote * rounds * max(m_max, fixed_budget)",
        ),
        (
            ("ttpo", "--update", "rl", "--config", "{config}"),
            1,
            "configuration error: cost_per_vote * rounds * max(m_max, fixed_budget)",
        ),
    ],
    ids=["replay-token-total", "compare-cost-per-vote", "ttpo-cost-per-vote"],
)
def test_costs_past_int64_are_rejected(tmp_path, capsys, argv, code, message):
    # Each token count and cost is a valid int64 on its own; the totals a run
    # adds up are not.
    trace = tmp_path / "trace.jsonl"
    trace.write_text(
        "".join(
            canonical_trace_line(TraceRecord("q1", i, "a" if i % 3 else "b", 2**62)) + "\n"
            for i in range(70)
        )
    )
    config = tmp_path / "run.cfg"
    config.write_text(f"cost_per_vote = {2**62}\ncount = 5\n")
    out = tmp_path / "r.json"
    argv = [arg.format(trace=trace, config=config) for arg in argv]
    assert run_cli(*argv, "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_update_is_internal_error(tmp_path, capsys):
    # A KL weight this large makes the second round's step overflow.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "count = 200\nm = 4\np0 = constant:0.6\nrounds = 2\n"
        "learning_rate = 12\nbeta_kl = 1.7e308\n"
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert run_cli("ttpo", "--update", "rl", "--config", str(cfg), "--seed", "0") == 3
    assert "internal error: logits must be finite" in capsys.readouterr().err


# A README recipe: a config file's name and text, then the command that reads it.
_RECIPE = re.compile(r"^`(\w+\.cfg)`:\n\n```ini\n(.*?)^```\n\n```sh\n(ttpo .*?)\n```", re.M | re.S)


def test_readme_recipes_run(tmp_path, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    recipes = _RECIPE.findall(readme.read_text(encoding="utf-8"))
    assert [name for name, _, _ in recipes] == ["savings.cfg", "sweep.cfg", "loop.cfg"]
    aggregates = list(Aggregate._fields)
    for name, text, command in recipes:
        (tmp_path / name).write_text(text)
        argv = [str(tmp_path / arg) if arg == name else arg for arg in shlex.split(command)[1:]]
        assert run_cli(*argv) == 0, command
        lines = capsys.readouterr().out.splitlines()
        if argv[0] == "ablate":
            # One aggregate row per swept value.
            assert lines[0] == "value," + ",".join(aggregates)
            assert len([line for line in lines if not line.startswith("#")]) == 6
        else:
            for field in aggregates:
                assert any(line.startswith(f"# {field} = ") for line in lines), (command, field)


def test_readme_defaults_block_is_the_default_config(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(
        r"The defaults are:\n\n```ini\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S
    )
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(block)
    assert resolve_config(parse_kv_file(cfg)) == resolve_config({})
