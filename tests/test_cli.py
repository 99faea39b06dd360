"""End-to-end checks of the experiment runner and its document formats."""

import dataclasses
import json
import math
import struct
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qiplab
from qiplab import (
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    KrausChannel,
    acceptance_probability,
    canonicalize_prover,
    choi,
)
from qiplab.cli import (
    _COMMANDS,
    CANONICALIZE_TRIAL_BUDGET,
    EB_CHECK_COUNT_BUDGET,
    ExperimentConfig,
    build_parser,
    channel_document,
    channel_from_document,
    config_from_args,
    dumps_document,
    fmt17,
    main,
    protocol_document,
    protocol_from_document,
    render_csv,
    strategy_document,
    strategy_from_document,
)
from qiplab.errors import ContractError, NumericsError, QipLabError, ValidationError
from qiplab.qmath import RegisterLayout
from qiplab.random_instances import (
    random_classical_response,
    random_eb_channel,
    random_kraus_channel,
    random_public_coin_spec,
    random_qcip2_spec,
    random_raw_prover,
    random_verifier_spec,
)
from qiplab.utils import derived_rng

TSIRELSON = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0


def test_chsh_gap_report(tmp_path, capsys):
    csv = tmp_path / "gap.csv"
    assert main(["chsh-gap", "--restarts", "4", "--seed", "7", "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "unentangled value 0.750000" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "method,value,restarts,iters"
    assert lines[1].startswith("# config {")
    exhaustive = lines[2].split(",")
    seesaw = lines[3].split(",")
    assert exhaustive[0] == "exhaustive"
    assert float(exhaustive[1]) == pytest.approx(0.75, abs=1e-9)
    assert seesaw[0] == "seesaw"
    assert float(seesaw[1]) >= TSIRELSON - 1e-4
    assert int(seesaw[2]) == 4


def test_subsample_report_has_footer(tmp_path, capsys):
    csv = tmp_path / "sub.csv"
    args = ["subsample", "--r", "8", "--eps", "0.1", "--trials", "5", "--seed", "1"]
    assert main([*args, "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "trial,r,lhs,rhs,deviation"
    assert len(lines) == 2 + 5 + 1
    assert lines[-1].startswith("# failure_fraction=")
    assert "eps=0.1" in lines[-1]
    for i, line in enumerate(lines[2:-1]):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert int(cells[1]) == 8
        assert float(cells[4]) == pytest.approx(abs(float(cells[2]) - float(cells[3])), abs=1e-15)


def test_amplify_and_nexp_reports(tmp_path):
    amp = tmp_path / "amp.csv"
    assert main(["amplify", "--p", "0.5", "--k", "41", "--csv", str(amp)]) == 0
    assert float(amp.read_text().splitlines()[2].split(",")[2]) == pytest.approx(0.5, abs=1e-12)

    dec = tmp_path / "dec.csv"
    args = ["nexp-decide", "--c", "0.8", "--s", "0.6", "--resolution", "2000"]
    assert main([*args, "--csv", str(dec)]) == 0
    cells = dec.read_text().splitlines()[2].split(",")
    assert cells[3] == "accept"
    assert float(cells[0]) == pytest.approx(0.7, abs=1e-12)
    assert float(cells[2]) < 0.05


def test_eb_check_batch_starts_with_the_identity_row(tmp_path):
    csv = tmp_path / "eb.csv"
    assert main(["eb-check", "--count", "5", "--seed", "3", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    first = lines[2].split(",")
    assert first[1] == "identity"
    assert float(first[2]) == pytest.approx(-0.5, abs=1e-10)
    assert first[3] == "NPT"
    for line in lines[3:]:
        assert line.split(",")[3] == "PPT"


def test_canonicalize_single_instance_emits_a_reloadable_document(tmp_path, capsys):
    rng = derived_rng(9, "cli-doc")
    spec = random_verifier_spec(rng)
    prover = random_raw_prover(rng, spec)
    spec_path = tmp_path / "spec.json"
    prover_path = tmp_path / "prover.json"
    emit_path = tmp_path / "canon.json"
    csv = tmp_path / "one.csv"
    spec_path.write_text(dumps_document(protocol_document(spec)) + "\n")
    prover_path.write_text(dumps_document(strategy_document(prover)) + "\n")
    rc = main(
        [
            "canonicalize",
            "--spec", str(spec_path),
            "--prover", str(prover_path),
            "--emit", str(emit_path),
            "--csv", str(csv),
        ]
    )
    assert rc == 0
    cells = csv.read_text().splitlines()[2].split(",")
    assert float(cells[1]) == pytest.approx(acceptance_probability(spec, prover), abs=1e-12)
    canon = strategy_from_document(json.loads(emit_path.read_text()))
    assert isinstance(canon, CanonicalStrategy)
    assert acceptance_probability(spec, canon) == pytest.approx(float(cells[2]), abs=1e-12)
    assert float(cells[3]) >= -1e-9


def test_canonicalize_refuses_a_prover_of_another_form_before_any_run(
    tmp_path, capsys, monkeypatch
):
    spec, _ = qiplab.chsh_protocol()
    prover = random_classical_response(derived_rng(41, "cli-form"), spec)
    spec_path, prover_path = tmp_path / "spec.json", tmp_path / "prover.json"
    spec_path.write_text(dumps_document(protocol_document(spec)) + "\n")
    prover_path.write_text(dumps_document(strategy_document(prover)) + "\n")
    runs = []
    monkeypatch.setattr(qiplab.cli, "acceptance_probability", lambda *args: runs.append(args))
    args = ["--spec", str(spec_path), "--prover", str(prover_path)]
    status = main(["canonicalize", *args, "--csv", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert status == 2, err
    assert "raw unentangled" in err
    assert runs == []


def test_eb_check_accepts_a_channel_document(tmp_path, capsys):
    rng = derived_rng(10, "cli-eb")
    # past in * out = 6 a positive partial transpose certifies nothing
    for dim, verdict in ((2, "PPT"), (3, "PPT-inconclusive")):
        channel = random_eb_channel(rng, RegisterLayout(("M",), (dim,)))
        doc_path = tmp_path / "ch.json"
        doc_path.write_text(dumps_document(channel_document(channel)) + "\n")
        csv = tmp_path / "eb1.csv"
        assert main(["eb-check", "--channel", str(doc_path), "--csv", str(csv)]) == 0
        cells = csv.read_text().splitlines()[2].split(",")
        assert cells[1] == "eb"
        assert cells[3] == verdict
        assert "1/1 channel(s) PPT" in capsys.readouterr().out


def test_config_file_merges_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 0.66, "k": 5}')
    csv = tmp_path / "amp.csv"
    assert main(["amplify", "--config", str(cfg), "--k", "7", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert '"k":7' in lines[1]
    assert '"p":0.66' in lines[1]
    cells = lines[2].split(",")
    assert float(cells[0]) == pytest.approx(0.66)
    assert int(cells[1]) == 7


def _non_default(kind, default):
    """A value of the parameter's type that differs from its default."""
    if kind is str:
        return f"{default}-other.json"
    return default + 1 if kind is int else default + 0.125


@pytest.mark.parametrize(
    "command,name",
    [(command, name) for command, spec in _COMMANDS.items() for name in spec.params],
)
def test_every_flag_and_its_config_key_agree(tmp_path, command, name):
    kind, default = _COMMANDS[command].params[name]
    value = _non_default(kind, default)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: value}))
    parser = build_parser()
    from_flag = config_from_args(parser.parse_args([command, f"--{name}", str(value)]))
    from_file = config_from_args(parser.parse_args([command, "--config", str(cfg)]))
    assert from_flag.params == from_file.params
    assert from_flag.params[name] == value
    assert type(from_flag.params[name]) is kind


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args([command, "--help"])
    assert stop.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_config_arrives_on_stdin(tmp_path, run_cli):
    proc = run_cli(
        ["amplify", "--config", "-", "--csv", "out.csv"],
        cwd=tmp_path,
        stdin=b'{"p": 0.75, "k": 3}',
    )
    assert proc.returncode == 0, proc.stderr.decode()
    cells = (tmp_path / "out.csv").read_text().splitlines()[2].split(",")
    # majority of 3 at p=3/4: p^3 + 3 p^2 (1-p)
    assert float(cells[2]) == pytest.approx(0.75**3 + 3 * 0.75**2 * 0.25, abs=1e-12)


def test_usage_errors_exit_with_status_two(tmp_path, run_cli):
    bad_family = run_cli(["subsample", "--family", "mystery", "--csv", "x.csv"], cwd=tmp_path)
    assert bad_family.returncode == 2, bad_family.stderr.decode()
    even_k = run_cli(["amplify", "--p", "0.6", "--k", "4", "--csv", "x.csv"], cwd=tmp_path)
    assert even_k.returncode == 2, even_k.stderr.decode()
    coarse = run_cli(
        ["nexp-decide", "--c", "0.71", "--s", "0.69", "--resolution", "2000", "--csv", "x.csv"],
        cwd=tmp_path,
    )
    assert coarse.returncode == 2, coarse.stderr.decode()
    # past the resolution budget the net is refused before it is allocated
    start = time.perf_counter()
    oversized = run_cli(["nexp-decide", "--resolution", "100001", "--csv", "x.csv"], cwd=tmp_path)
    elapsed = time.perf_counter() - start
    assert oversized.returncode == 2, oversized.stderr.decode()
    assert b"budget" in oversized.stderr
    assert elapsed < 1.0, f"refusing the oversized net took {elapsed:.2f} s"
    # so are 10**10 subsampling draws (80 GB) and a million see-saw restarts
    for args in (["subsample", "--r", "10000000000"], ["chsh-gap", "--restarts", "1000000"]):
        start = time.perf_counter()
        oversized = run_cli([*args, "--csv", "x.csv"], cwd=tmp_path)
        elapsed = time.perf_counter() - start
        assert oversized.returncode == 2, oversized.stderr.decode()
        assert b"budget" in oversized.stderr
        assert elapsed < 1.0, f"refusing {args} took {elapsed:.2f} s"
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus": 3}')
    unknown = run_cli(["amplify", "--config", str(cfg), "--csv", "x.csv"], cwd=tmp_path)
    assert unknown.returncode == 2, unknown.stderr.decode()
    assert b"bogus" in unknown.stderr
    cfg.write_text('{"command": "amplify"}')
    mismatch = run_cli(["chsh-gap", "--config", str(cfg), "--csv", "x.csv"], cwd=tmp_path)
    assert mismatch.returncode == 2, mismatch.stderr.decode()
    # an integer too large for a float, given for a float parameter
    cfg.write_text('{"p": ' + "1" * 400 + "}")
    huge = run_cli(["amplify", "--config", str(cfg), "--csv", "x.csv"], cwd=tmp_path)
    assert huge.returncode == 2, huge.stderr.decode()
    assert b"too large for a float" in huge.stderr
    # an integer past the interpreter's 4300-digit conversion limit
    cfg.write_text('{"k": ' + "1" * 5000 + "}")
    endless = run_cli(["amplify", "--config", str(cfg), "--csv", "x.csv"], cwd=tmp_path)
    assert endless.returncode == 2, endless.stderr.decode()
    # counts below their range: no trial to take a minimum over, or a negative batch
    for args in (
        ["canonicalize", "--trials", "0"],
        ["canonicalize", "--trials", "-3"],
        ["eb-check", "--count", "-2"],
    ):
        refused = run_cli([*args, "--csv", "x.csv"], cwd=tmp_path)
        assert refused.returncode == 2, refused.stderr.decode()
        assert b"must be >=" in refused.stderr
    # and above it, refused before the first trial: k past the last odd count
    # whose binomial coefficients fit a double, and each count budget plus one
    for args in (
        ["amplify", "--k", "1031"],
        ["canonicalize", "--trials", str(CANONICALIZE_TRIAL_BUDGET + 1)],
        ["eb-check", "--count", str(EB_CHECK_COUNT_BUDGET + 1)],
    ):
        start = time.perf_counter()
        refused = run_cli([*args, "--csv", "x.csv"], cwd=tmp_path)
        elapsed = time.perf_counter() - start
        assert refused.returncode == 2, refused.stderr.decode()
        assert b"budget" in refused.stderr
        assert elapsed < 1.0, f"refusing {args} took {elapsed:.2f} s"
    # a channel whose Choi state, of dimension 33 * 33, is past the budget
    doc = tmp_path / "wide.json"
    wide = qiplab.RegisterLayout(("A",), (33,))
    doc.write_text(dumps_document(channel_document(KrausChannel.identity(wide))) + "\n")
    start = time.perf_counter()
    refused = run_cli(["eb-check", "--channel", str(doc), "--csv", "x.csv"], cwd=tmp_path)
    elapsed = time.perf_counter() - start
    assert refused.returncode == 2, refused.stderr.decode()
    assert b"budget" in refused.stderr
    assert elapsed < 1.0, f"refusing the 33 x 33 Choi state took {elapsed:.2f} s"
    # a report that cannot be written: a missing directory, or a directory
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        unwritable = run_cli(["amplify", "--csv", str(path)], cwd=tmp_path)
        assert unwritable.returncode == 2, unwritable.stderr.decode()
        assert b"cannot write" in unwritable.stderr


@pytest.mark.parametrize("flag", ["csv", "emit"])
def test_unwritable_paths_are_refused_before_the_runner(tmp_path, capsys, monkeypatch, flag):
    def runner(params):
        pytest.fail("the experiment ran although a report path cannot be written")

    monkeypatch.setitem(_COMMANDS, "canonicalize", _COMMANDS["canonicalize"]._replace(run=runner))
    for bad in (tmp_path / "missing" / "x.out", tmp_path):
        paths = {"csv": tmp_path / "r.csv", "emit": tmp_path / "c.json", flag: bad}
        status = main(["canonicalize", "--csv", str(paths["csv"]), "--emit", str(paths["emit"])])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err.startswith(f"error: cannot write {bad}"), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_64_bits_exits_with_status_two(tmp_path, capsys, seed):
    # masked to 64 bits, 2**64 drew the rows of seed 0, and -1 those of 2**64 - 1
    csv = tmp_path / "x.csv"
    for args in (["chsh-gap", "--restarts", "1"], ["canonicalize", "--trials", "2"]):
        status = main([*args, "--seed", str(seed), "--csv", str(csv)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not csv.exists()
    assert main(["canonicalize", "--trials", "1", "--seed", str(2**64 - 1), "--csv", str(csv)]) == 0


# each seeded command with arguments of a quick run; eb-check --count 0 and
# nexp-decide draw nothing from the seed, and are refused all the same
_QUICK_SEEDED_RUNS = {
    "chsh-gap": ["--restarts", "1"],
    "canonicalize": ["--trials", "1"],
    "eb-check": ["--count", "0"],
    "nexp-decide": [],
    "subsample": ["--trials", "1"],
}


@pytest.mark.parametrize("command", list(_QUICK_SEEDED_RUNS))
def test_every_command_refuses_a_seed_outside_64_bits(tmp_path, capsys, command):
    assert set(_QUICK_SEEDED_RUNS) == {c for c, spec in _COMMANDS.items() if "seed" in spec.params}
    csv = tmp_path / "x.csv"
    for seed in (-5, -1, 2**64):
        args = [command, *_QUICK_SEEDED_RUNS[command], "--seed", str(seed), "--csv", str(csv)]
        status = main(args)
        err = capsys.readouterr().err
        assert status == 2, err
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not csv.exists()


def test_seeds_in_range_keep_their_entropy():
    for seed in (0, 7, 2**32 + 5, 2**64 - 1):
        want = np.random.default_rng(np.random.SeedSequence((seed, 3))).integers(2**62, size=4)
        assert derived_rng(seed, 3).integers(2**62, size=4).tolist() == want.tolist()


def _malformed(case):
    """(protocol document, strategy document) of one malformed instance."""
    rng = derived_rng(9, "cli-doc")
    spec = random_verifier_spec(rng)
    raw = random_raw_prover(rng, spec)
    spec_doc = json.loads(dumps_document(protocol_document(spec)))
    prover_doc = json.loads(dumps_document(strategy_document(raw)))
    if case == "document-not-an-object":
        spec_doc = [1, 2]
    elif case == "responses-not-an-object":
        classical = random_classical_response(rng, spec)
        prover_doc = json.loads(dumps_document(strategy_document(classical)))
        prover_doc["responses"] = [["0", "1"], ["1", "0"]]
    elif case == "mix-of-the-wrong-form":
        # measure-and-prepare where a Kraus channel belongs, on the right registers
        eb_mix = random_eb_channel(rng, raw.workspace.concat(spec.m_layout))
        prover_doc["mix1"] = channel_document(eb_mix)
    elif case == "flag-as-a-string":
        # the string "false" is truthy: read with bool() it kept the public coin
        public, _ = random_public_coin_spec(derived_rng(9, "cli-public"))
        spec_doc = json.loads(dumps_document(protocol_document(public)))
        spec_doc["public_coin"] = "false"
        prover_doc = json.loads(dumps_document(strategy_document(random_raw_prover(rng, public))))
    elif case == "fractional-rounds":
        spec_doc["rounds"] = 3.7
    elif case == "fractional-dims":
        spec_doc["m"]["dims"] = [2.9]
    elif case == "names-as-a-string":
        spec_doc["m"]["names"] = "M"
    return spec_doc, prover_doc


@pytest.mark.parametrize(
    "case",
    [
        "document-not-an-object",
        "responses-not-an-object",
        "mix-of-the-wrong-form",
        "flag-as-a-string",
        "fractional-rounds",
        "fractional-dims",
        "names-as-a-string",
    ],
)
def test_malformed_documents_exit_with_status_two(tmp_path, capsys, case):
    spec_doc, prover_doc = _malformed(case)
    spec_path, prover_path = tmp_path / "spec.json", tmp_path / "prover.json"
    spec_path.write_text(json.dumps(spec_doc))
    prover_path.write_text(json.dumps(prover_doc))
    args = ["--spec", str(spec_path), "--prover", str(prover_path)]
    status = main(["canonicalize", *args, "--csv", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert status == 2, err
    assert err.startswith("error: "), err


# values a mutated document carries: past every entry's modulus, non-finite,
# or an integer past the largest double
_FUZZ_VALUES = (1e308, -1e308, 1e200, math.nan, math.inf, -math.inf, 10**400)


def _document_nodes(doc, path=()):
    """The path of every node below the document's root, depth first."""
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _document_nodes(child, path + (key,))


def _mutated(doc, rng):
    """A copy of ``doc`` with one node, drawn by ``rng``, set to a bad value."""
    doc = json.loads(json.dumps(doc))
    nodes = list(_document_nodes(doc))
    *parents, last = nodes[rng.integers(len(nodes))]
    node = doc
    for key in parents:
        node = node[key]
    node[last] = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
    return doc


def test_mutated_documents_are_refused_without_numpy_warnings(tmp_path, capsys):
    rng = derived_rng(21, "document-fuzz")
    spec = random_verifier_spec(rng)
    docs = {
        "spec": protocol_document(spec),
        "prover": strategy_document(random_raw_prover(rng, spec)),
        "eb": channel_document(random_eb_channel(rng, spec.m_layout)),
        "kraus": channel_document(random_kraus_channel(rng, spec.m_layout, spec.m_layout)),
    }
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    csv = str(tmp_path / "x.csv")
    runs = [
        ("spec", "canonicalize"),
        ("prover", "canonicalize"),
        ("eb", "eb-check"),
        ("kraus", "eb-check"),
    ]
    for trial in range(600):
        name, command = runs[trial % len(runs)]
        for other, doc in docs.items():
            paths[other].write_text(json.dumps(_mutated(doc, rng) if other == name else doc))
        if command == "canonicalize":
            args = ["--spec", str(paths["spec"]), "--prover", str(paths["prover"])]
        else:
            args = ["--channel", str(paths[name])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = main([command, *args, "--csv", csv])
        err = capsys.readouterr().err
        assert status in (0, 2), (trial, err)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (trial, err)


REFERENCE_CSV_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "cli"


@pytest.mark.parametrize(
    "args",
    [
        ["chsh-gap", "--restarts", "16", "--seed", "7"],
        ["subsample", "--family", "chsh", "--r", "256", "--eps", "0.1", "--trials", "100", "--seed", "1"],
        ["eb-check", "--count", "100", "--seed", "0"],
        ["amplify", "--p", "0.6666666666666666", "--k", "41"],
    ],
    ids=["chsh-gap", "subsample", "eb-check", "amplify"],
)
def test_readme_solver_reports_match_the_recorded_bytes(tmp_path, run_cli, args):
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    name = f"{args[0]}.csv"
    assert (tmp_path / name).read_bytes() == (REFERENCE_CSV_DIR / name).read_bytes()


# Columns of the reports below whose cells are floats; every other cell, the
# header and the "# config" line must match the recorded report byte for byte.
FLOAT_COLUMNS = {"raw_value", "canonical_value", "gain", "threshold", "value", "net_error"}


@pytest.mark.parametrize(
    "args",
    [
        ["canonicalize", "--trials", "50", "--seed", "0"],
        ["nexp-decide", "--c", "0.8", "--s", "0.6", "--resolution", "2000"],
    ],
    ids=["canonicalize", "nexp-decide"],
)
def test_readme_reports_match_the_recorded_ones_to_1e13(tmp_path, run_cli, args):
    # these two reports moved in their last digits since they were recorded
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    name = f"{args[0]}.csv"
    got = (tmp_path / name).read_text(encoding="utf-8").splitlines()
    want = (REFERENCE_CSV_DIR / name).read_text(encoding="utf-8").splitlines()
    assert got[:2] == want[:2]
    assert len(got) == len(want)
    columns = want[0].split(",")
    for got_line, want_line in zip(got[2:], want[2:]):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(columns) == len(want_cells), got_line
        for column, g, w in zip(columns, got_cells, want_cells):
            if column in FLOAT_COLUMNS:
                assert abs(float(g) - float(w)) <= 1e-13, (column, got_line, want_line)
            else:
                assert g == w, (column, got_line, want_line)


def test_cli_children_import_the_package_under_test(tmp_path, cli_env):
    probe = "import pathlib, qiplab; print(pathlib.Path(qiplab.__file__).resolve())"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(Path(qiplab.__file__).resolve())


def test_cli_import_leaves_scipy_spatial_unloaded(tmp_path, cli_env):
    # the package needs no scipy (the net's triangulation is numpy only);
    # restarts and trials run in plain loops, so no executor is loaded either
    probe = (
        "import sys, qiplab.cli; "
        "print([m for m in ('scipy.spatial', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nexp_decide_loads_no_scipy(tmp_path, cli_env):
    # the net search and its covering bound are numpy only, so the README's
    # nexp-decide command runs to its report without importing any scipy module
    probe = (
        "import sys, qiplab.cli; "
        "status = qiplab.cli.main(['nexp-decide', '--c', '0.8', '--s', '0.6', "
        "'--resolution', '2000']); "
        "print(status, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "nexp-decide.csv").exists()


def test_channel_documents_round_trip():
    rng = derived_rng(11, "cli-docs")
    layout = RegisterLayout(("M", "V"), (2, 3))
    for channel in (
        random_kraus_channel(rng, layout, layout, n_kraus=3),
        random_eb_channel(rng, layout, RegisterLayout(("M",), (2,))),
    ):
        doc = json.loads(dumps_document(channel_document(channel)))
        again = channel_from_document(doc)
        want = choi(channel).operator.entries
        assert np.max(np.abs(choi(again).operator.entries - want)) <= 1e-12


def test_channel_document_lists_row_major_re_im_pairs():
    layout = RegisterLayout(("M",), (2,))
    flip = np.array([[0.0, 1.0], [1j, 0.0]])
    ops = (flip * np.sqrt(0.5), np.eye(2, dtype=np.complex128) * np.sqrt(0.5))
    doc = channel_document(KrausChannel(layout, layout, ops))
    first = doc["ops"][0]
    assert first[1] == [math.sqrt(0.5), 0.0]
    assert first[2] == [0.0, math.sqrt(0.5)]


def test_protocol_and_strategy_documents_round_trip():
    rng = derived_rng(12, "cli-docs")
    spec = random_verifier_spec(rng)
    spec_again = protocol_from_document(json.loads(dumps_document(protocol_document(spec))))
    provers = [
        random_raw_prover(rng, spec),
        random_classical_response(rng, spec),
    ]
    for prover in provers:
        doc = json.loads(dumps_document(strategy_document(prover)))
        again = strategy_from_document(doc)
        a = acceptance_probability(spec, prover)
        assert acceptance_probability(spec_again, again) == pytest.approx(a, abs=1e-12)
    assert isinstance(strategy_from_document(doc), ClassicalResponseStrategy)


# the pinned document keys of each strategy kind: a renamed dataclass field
# must not silently rename a key of the format
STRATEGY_KEYS = {
    "entangled": {"kind", "workspace", "first", "respond"},
    "raw": {"kind", "workspace", "eb_labels", "mix1", "emit1", "mix2", "emit2"},
    "canonical": {"kind", "first_message", "respond"},
    "classical": {"kind", "first_message", "responses"},
}


def test_each_strategy_kind_writes_exactly_its_pinned_keys():
    forms = _document_forms(derived_rng(13, "strategy-keys"))
    docs = [document(s) for document, _, s in forms if document is strategy_document]
    assert {doc["kind"] for doc in docs} == set(STRATEGY_KEYS)
    for doc in docs:
        assert set(doc) == STRATEGY_KEYS[doc["kind"]], doc["kind"]
        if doc["kind"] == "canonical":
            assert set(doc["first_message"]) == {"layout", "amplitudes"}


def test_a_canonical_document_without_a_first_message_fails_when_simulated():
    rng = derived_rng(14, "canonical-null")
    spec = random_verifier_spec(rng)
    canonical = canonicalize_prover(spec, random_raw_prover(rng, spec))
    doc = json.loads(dumps_document(strategy_document(canonical)))
    doc["first_message"] = None
    # the first message is optional in the format (a two-round classical
    # prover has none), so the document decodes and the simulator refuses it
    for protocol in (spec, random_qcip2_spec(rng)):
        try:
            acceptance_probability(protocol, strategy_from_document(doc))
        except QipLabError as exc:
            assert not isinstance(exc, NumericsError), exc
        else:
            pytest.fail("a canonical prover without a first message was simulated")


def _assert_identical(a, b, path="document"):
    """Same types, layouts, labels and flags, and arrays equal bit for bit."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            name = field.name
            _assert_identical(getattr(a, name), getattr(b, name), f"{path}.{name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif isinstance(a, tuple):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{path}[{i}]")
    else:
        assert a == b, path


def _random_layout(rng, prefix):
    dims = tuple(int(d) for d in rng.integers(2, 4, size=int(rng.integers(1, 3))))
    return RegisterLayout(tuple(f"{prefix}{i}" for i in range(len(dims))), dims)


def _document_forms(rng):
    """(document, decoder, instance) for one random instance of every form."""
    in_layout, out_layout = _random_layout(rng, "A"), _random_layout(rng, "B")
    # a rectangular channel needs n_kraus * out_dim >= in_dim
    n_kraus = -(-in_layout.total_dim // out_layout.total_dim) + int(rng.integers(0, 2))
    channels = [
        random_kraus_channel(rng, in_layout, n_kraus=n_kraus),
        random_kraus_channel(rng, in_layout, out_layout, n_kraus=n_kraus),
        random_eb_channel(rng, in_layout, out_layout, n_outcomes=int(rng.integers(1, 4))),
    ]
    private = random_verifier_spec(rng)
    two_round = random_qcip2_spec(rng)
    public, _ = random_public_coin_spec(rng)
    raw = random_raw_prover(rng, private)
    pm = raw.workspace.concat(private.m_layout)
    strategies = [
        raw,
        canonicalize_prover(private, raw),
        random_classical_response(rng, private),
        random_classical_response(rng, two_round),
        EntangledStrategy(
            raw.workspace, random_kraus_channel(rng, pm), random_kraus_channel(rng, pm)
        ),
    ]
    return (
        [(channel_document, channel_from_document, c) for c in channels]
        + [(protocol_document, protocol_from_document, p) for p in (private, two_round, public)]
        + [(strategy_document, strategy_from_document, s) for s in strategies]
    )


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_documents_round_trip_exactly(seed):
    for document, decode, instance in _document_forms(derived_rng(seed, "doc-round-trip")):
        text = dumps_document(document(instance))
        again = decode(json.loads(text))
        _assert_identical(instance, again)
        assert dumps_document(document(again)) == text


def test_dumps_document_sorts_keys_and_prints_17_digits():
    text = dumps_document({"b": 0.1, "a": [1, True, None, "x"]})
    assert text == '{"a":[1,true,null,"x"],"b":0.10000000000000001}'
    assert json.loads(text)["b"] == 0.1


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.1 + 0.2)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(float(2**53 + 2))
def test_17_digit_floats_round_trip_exactly(x):
    # 17 significant digits identify every finite double; 16 do not (0.1 + 0.2)
    assert struct.pack("<d", float(fmt17(x))) == struct.pack("<d", x)
    # a document keeps every bit, the sign of a zero included
    assert struct.pack("<d", json.loads(dumps_document({"x": x}))["x"]) == struct.pack("<d", x)


def test_render_csv_rejects_malformed_rows():
    config = {"command": "amplify", "p": 0.5}
    with pytest.raises(ContractError):
        render_csv(("a", "b"), [(1, 2, 3)], config)
    with pytest.raises(ContractError):
        render_csv(("a",), [("has,comma",)], config)
    body = render_csv(("a", "b"), [(1, 1.0 / 3.0)], config, footer=[("eps", 0.1)])
    lines = body.decode().splitlines()
    assert lines[0] == "a,b"
    assert lines[2] == "1,0.33333333333333331"
    assert lines[3] == "# eps=0.10000000000000001"


def test_experiment_config_validates_parameters():
    with pytest.raises(ValidationError):
        ExperimentConfig("frobnicate", {})
    with pytest.raises(ValidationError):
        ExperimentConfig("amplify", {"p": "high"})
    with pytest.raises(ValidationError):
        ExperimentConfig("amplify", {"k": 5.5})
    with pytest.raises(ValidationError):
        ExperimentConfig("amplify", {"unknown_knob": 1})
    # inf and nan would be echoed into the "# config" line, which is then not JSON
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            ExperimentConfig("subsample", {"eps": bad})
    cfg = ExperimentConfig("amplify", {"p": 1})
    assert cfg.params["p"] == 1.0
    assert cfg.params["k"] == 41
    assert cfg.document()["command"] == "amplify"
