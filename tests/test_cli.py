import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densecode import cli, nmrsim, noise, protocol, validation
from densecode.cli import NOISE_KEYS, SPIN_SYSTEM_KEYS


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON: Infinity, -Infinity and NaN raise."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTable:
    def test_text_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["table"])
        assert code == 0
        assert "U_a1" in out and "|10>" in out and "-|01>" in out

    def test_json_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "minus-phi"
        cells = {(r["message"], c["variant"]): c["ket"] for r in payload["rows"] for c in r["cells"]}
        assert cells[(1, "minus-phi")] == "|10>"
        assert cells[(4, "plus-phi")] == "-|11>"
        assert cells[(3, "minus-psi")] == "|10>"

    def test_csv_grid_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["message", "variant", "output"]
        assert len(rows) == 17
        assert ["1", "minus-phi", "|10>"] in rows

    def test_self_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--check"])
        assert code == 0
        assert out.startswith("PASS table1-vs-brute-force ")

    def test_self_check_verdict_is_validates_line(self, capsys):
        _, table_out, _ = run_cli(capsys, ["table", "--check"])
        code, validate_out, _ = run_cli(capsys, ["validate", "--ensemble-size", "20"])
        assert code == 0
        assert table_out.splitlines()[0] in validate_out.splitlines()

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, _, _ = run_cli(capsys, ["table", "--format", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["columns"]


class TestRun:
    def test_ideal_text(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "-m", "2", "-v", "minus-phi"])
        assert code == 0
        assert "readout: |00>" in out
        assert "recovered message: 2" in out

    def test_ideal_json(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "-m", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["recovered_message"] == 4
        assert payload["readout"]["ket"] == "-|01>"
        assert payload["bits"] == "11"

    def test_pulse_layer_population(self, capsys):
        code, out, _ = run_cli(capsys, ["run", "-m", "1", "-v", "minus-phi", "--layer", "pulse", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dominant_state"] == "|10>"
        assert payload["dominant_population"] > 1 - 1e-9
        assert payload["recovered_message"] == 1
        argv = ["run", "-m", "4", "-v", "minus-psi", "--layer", "pulse", "--format", "json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["recovered_message"] == 4

    def test_noise_requires_pulse_layer(self, capsys, tmp_path):
        """The layer rule is checked before --config or --noise PATH is read."""
        malformed = tmp_path / "noise.json"
        malformed.write_text(json.dumps({"rf_sprad": 0.05}))
        cases = [
            ["--noise"],
            ["--noise", str(tmp_path)],
            ["--layer", "ideal", "--noise", str(tmp_path)],
            ["--noise", str(malformed)],
            ["--noise", "--config", str(tmp_path / "missing.json")],
        ]
        for command in ("run", "tomo"):
            for options in cases:
                argv = [command, "-m", "3"] + options
                assert run_cli(capsys, argv) == (2, "", "error: --noise requires --layer pulse\n"), argv

    @pytest.mark.parametrize("command", ["run", "tomo"])
    def test_noise_path_document_without_noise_section(self, capsys, tmp_path, command):
        """A file with a spin_system key is a document, not a bare noise
        object: its absent noise section gives the default noise."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"spin_system": {"j_hz": 215.0}}))
        argv = [command, "-m", "1", "--layer", "pulse", "--seed", "5", "--format", "json", "--noise"]
        bare = run_cli(capsys, argv)
        assert bare[0] == 0 and bare[2] == ""
        assert run_cli(capsys, argv + [str(path)]) == bare

    @pytest.mark.parametrize("command", ["run", "tomo"])
    @pytest.mark.parametrize(
        "document,message",
        [
            ({"spin_system": {"jj": 1, "epsilon": "x"}}, "unknown config key spin_system.jj (known: "),
            ({"spin_system": {"j_hz": -5}, "noise": {"ensemble_size": 5}},
             "config spin_system.j_hz must be positive\n"),
            ({"spin_system": {"j_hz": -5}}, "config spin_system.j_hz must be positive\n"),
        ],
        ids=["unknown-key", "negative-j", "negative-j-spin-only"],
    )
    def test_noise_path_spin_system_checked_as_config(self, capsys, tmp_path, command, document, message):
        """A --noise document's spin_system section is checked as --config's."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        argv = [command, "-m", "1", "--layer", "pulse", "--noise"]
        as_config = run_cli(capsys, argv + ["--config", str(path)])
        assert as_config[:2] == (2, "") and as_config[2].startswith(f"error: {message}")
        assert run_cli(capsys, argv + [str(path)]) == as_config

    def test_noisy_run_reports_fidelity(self, capsys, tmp_path):
        cfg = tmp_path / "noise.json"
        cfg.write_text(json.dumps({"rf_spread": 0.05, "ensemble_size": 50}))
        code, out, _ = run_cli(
            capsys,
            ["run", "-m", "1", "--layer", "pulse", "--noise", str(cfg), "--seed", "3", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ensemble_size"] == 50
        assert 0.0 < payload["fidelity_vs_ideal"] <= 1.0
        assert payload["recovered_message"] == 1
        assert len(payload["density_matrix"]) == 4

    def test_noisy_run_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "noise.json"
        cfg.write_text(json.dumps({"rf_spread": 0.05, "ensemble_size": 20}))
        argv = ["run", "-m", "2", "--layer", "pulse", "--noise", str(cfg), "--seed", "11", "--format", "json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_large_noisy_run_byte_identical_across_hash_seeds(self, capsys, tmp_path):
        """A 20,000-member noisy ``python -m densecode run`` crosses several
        chunks and writes the same bytes in both ``TWO_INTERPRETERS``; the
        noisy ``tomo`` of that ensemble runs too."""
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 20000}}))
        written = []
        for k, env in enumerate(TWO_INTERPRETERS):
            out = tmp_path / f"large-{k}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "densecode", "run", "-m", "4", "-v", "minus-psi",
                 "--layer", "pulse", "--noise", str(cfg), "--format", "json", "--out", str(out)],
                capture_output=True, env=interpreter_env(**env), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            written.append(out.read_bytes())
        assert json.loads(written[0])["ensemble_size"] == 20000
        assert written[0] == written[1], DIFFERING
        argv = ["tomo", "-m", "4", "-v", "minus-psi", "--layer", "pulse", "--noise", str(cfg)]
        assert run_cli(capsys, argv + ["--format", "json"])[0] == 0

    def test_config_spin_system(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spin_system": {"j_hz": 100.0}}))
        code, out, _ = run_cli(
            capsys, ["run", "-m", "1", "--layer", "pulse", "--config", str(cfg), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["recovered_message"] == 1

    def test_missing_config_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, ["run", "-m", "1", "--config", "/nonexistent/cfg.json"])
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("option", [["--config"], ["--layer", "pulse", "--noise"]])
    def test_config_directory_is_io_error(self, capsys, tmp_path, option):
        code, out, err = run_cli(capsys, ["run", "-m", "1"] + option + [str(tmp_path)])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Is a directory" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "-m", "1", "--layer", "pulse", "--config", ""],
            ["tomo", "-m", "1", "--config", ""],
            ["fig4", "--config", ""],
            ["validate", "--config", ""],
            ["run", "-m", "1", "--layer", "pulse", "--noise", ""],
            ["tomo", "-m", "1", "--layer", "pulse", "--noise", ""],
            ["run", "-m", "1", "--config", ""],
        ],
    )
    def test_empty_path_is_io_error(self, capsys, monkeypatch, tmp_path, argv):
        """An empty path (say, an unset variable in a script) is a path that
        cannot be read, not an absent option; bare --noise still runs."""
        monkeypatch.chdir(tmp_path)  # where fig4 would write, were "" no path
        assert run_cli(capsys, argv) == (3, "", "error: [Errno 2] No such file or directory: ''\n")
        if argv[-2] == "--noise":
            assert run_cli(capsys, argv[:-1])[0] == 0

    def test_deeply_nested_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, ["run", "-m", "1", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == f"error: config {cfg} is nested too deeply\n"

    @pytest.mark.parametrize(
        "option", [["--config"], ["--layer", "pulse", "--noise"]], ids=["config", "noise"]
    )
    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"noise": {"rf_spread": 0.05,\n', "is not a JSON document: Expecting"),
            (b'\xff{"noise": {}}', "is not a JSON document: 'utf-8' codec can't decode"),
            (b"[1, 2]", "must be a JSON object\n"),
            (b'{"noise": {\n', "is not a JSON document: Expecting"),
        ],
        ids=["truncated", "non-utf-8", "array", "truncated-section"],
    )
    def test_unparsable_file_names_itself(self, capsys, tmp_path, option, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["run", "-m", "1"] + option + [str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config {path} {message}") and err.count("\n") == 1


class TestFig4:
    @pytest.fixture
    def quick_cfg(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 150}}))
        return cfg

    def test_files_byte_identical_across_hash_seeds(self, tmp_path):
        """``python -m densecode fig4`` at the demo config writes the same
        bytes in both ``TWO_INTERPRETERS``: the ensemble average plans its
        blocks in order of first appearance and iterates no set.  Its
        errors file is strict JSON, its largest error inside the
        calibrated band."""
        written = []
        for k, env in enumerate(TWO_INTERPRETERS):
            out = tmp_path / str(k)
            out.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "densecode", "fig4", "--out", str(out)],
                capture_output=True, env=interpreter_env(**env), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            written.append(files_under(out))
        assert sorted(written[0]) == ["fig4.csv", "fig4_errors.json"]
        assert written[0] == written[1], DIFFERING
        worst = strict_json(written[0]["fig4_errors.json"].decode())["max_relative_error"]
        assert 0.05 <= worst <= 0.15, f"fig4 max_relative_error {worst} outside [0.05, 0.15]"

    def test_csv_output(self, capsys, tmp_path, quick_cfg):
        code, out, _ = run_cli(
            capsys, ["fig4", "--config", str(quick_cfg), "--out", str(tmp_path)]
        )
        assert code == 0
        csv_path = tmp_path / "fig4.csv"
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["panel", "row", "col", "modulus"]
        assert len(rows) == 1 + 8 * 16
        table = {(r[0], int(r[1]), int(r[2])): float(r[3]) for r in rows[1:]}
        # theory panels: single unit peak per encoding
        assert table[("e", 2, 2)] == pytest.approx(1.0)
        assert table[("f", 0, 0)] == pytest.approx(1.0)
        assert table[("g", 3, 3)] == pytest.approx(1.0)
        assert table[("h", 1, 1)] == pytest.approx(1.0)
        assert table[("e", 0, 0)] == pytest.approx(0.0)
        # experimental panels: dominant element sits where theory puts it
        assert table[("a", 2, 2)] > 0.7
        errors = json.loads((tmp_path / "fig4_errors.json").read_text())
        assert len(errors["panels"]) == 4
        assert errors["max_relative_error"] > 0
        assert "max relative error" in out

    def test_json_output(self, capsys, tmp_path, quick_cfg):
        code, _, _ = run_cli(
            capsys,
            ["fig4", "--config", str(quick_cfg), "--format", "json", "--out", str(tmp_path)],
        )
        assert code == 0
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert set(payload["modulus_tables"]) == set("abcdefgh")
        assert payload["modulus_tables"]["e"]["modulus"][2][2] == pytest.approx(1.0)

    def test_t2_off_by_large_finite_value_writes_strict_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"t2_a_s": 1e300, "t2_b_s": 1e300, "ensemble_size": 5}}))
        code, _, err = run_cli(capsys, ["fig4", "--config", str(cfg), "--out", str(tmp_path)])
        assert (code, err) == (0, "")
        errors = strict_json((tmp_path / "fig4_errors.json").read_text())
        assert errors["noise"]["t2_a_s"] == 1e300

    def test_unwritable_directory_is_io_error(self, capsys, quick_cfg):
        code, out, err = run_cli(
            capsys, ["fig4", "--config", str(quick_cfg), "--out", "/nonexistent/dir"]
        )
        assert code == 3
        assert "error" in err
        assert out == ""  # no summary for files that were not written

    @pytest.mark.parametrize("failure", ["a directory", "a full disk"])
    def test_failed_write_changes_no_output_file(
        self, capsys, monkeypatch, tmp_path, quick_cfg, failure
    ):
        """When writing ``fig4_errors.json`` fails after ``fig4.csv`` was
        written, every file of the ``--out`` directory keeps its bytes, and
        no temporary file is left."""
        out = tmp_path / "out"
        errors = out / "fig4_errors.json"
        if failure == "a directory":
            errors.mkdir(parents=True)
            seeded = {"fig4.csv": b"an earlier run\r\n", "fig4_errors.json/kept": b"{}\n"}
            reason = "[Errno 21] Is a directory"
        else:
            out.mkdir()
            seeded = {"fig4.csv": b"an earlier run\r\n", "fig4_errors.json": b"{}\n"}
            reason = "[Errno 28] No space left on device"

            def full_disk(name, *args, **kwargs):
                fh = open(name, *args, **kwargs)
                if name.startswith(str(errors)):
                    with fh:
                        fh.write("{")
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return fh

            monkeypatch.setattr(cli, "open", full_disk, raising=False)
        for name, data in seeded.items():
            (out / name).write_bytes(data)
        code, printed, err = run_cli(
            capsys, ["fig4", "--config", str(quick_cfg), "--out", str(out)]
        )
        assert (code, printed) == (3, "")
        assert err == f"error: cannot write output: {reason}: '{errors}'\n"
        assert files_under(out) == seeded

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_output_to_dev_stdout_written_in_place(self, tmp_path):
        """``--out /dev/stdout`` writes to the process's stdout, a pipe or a
        regular file, as ``--out`` absent does."""
        argv = [sys.executable, "-m", "densecode", "run", "-m", "2", "--format", "json"]
        expected = subprocess.run(argv, capture_output=True, env=interpreter_env(), timeout=60)
        assert expected.returncode == 0, expected.stderr
        piped = subprocess.run(
            [*argv, "--out", "/dev/stdout"], capture_output=True, env=interpreter_env(), timeout=60
        )
        assert (piped.returncode, piped.stdout) == (0, expected.stdout)
        target = tmp_path / "stdout.json"
        with target.open("wb") as fh:
            code = subprocess.run(
                [*argv, "--out", "/dev/stdout"], stdout=fh, env=interpreter_env(), timeout=60
            ).returncode
        assert (code, target.read_bytes()) == (0, expected.stdout)
        assert [path.name for path in tmp_path.iterdir()] == ["stdout.json"]

    def test_deterministic_given_seed(self, capsys, tmp_path, quick_cfg):
        for sub in ("one", "two"):
            (tmp_path / sub).mkdir()
            run_cli(capsys, ["fig4", "--config", str(quick_cfg), "--seed", "5",
                             "--out", str(tmp_path / sub)])
        assert (tmp_path / "one" / "fig4.csv").read_bytes() == (tmp_path / "two" / "fig4.csv").read_bytes()


class TestTomoCommand:
    def test_ideal_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, ["tomo", "-m", "1", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reconstruction_roundtrip_error"] < 1e-8
        assert payload["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-7)
        assert payload["modulus_table"]["modulus"][2][2] == pytest.approx(1.0, abs=1e-9)

    def test_pulse_layer(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, ["tomo", "-m", "3", "--layer", "pulse", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert payload["modulus_table"]["modulus"][3][3] == pytest.approx(1.0, abs=1e-9)
        target = tmp_path / "tomo.json"
        argv = ["tomo", "-m", "3", "-v", "plus-phi", "--layer", "pulse", "--format", "json"]
        assert run_cli(capsys, argv + ["--out", str(target)])[0] == 0
        strict_json(target.read_text())

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, ["tomo", "-m", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "col", "modulus"]
        assert len(rows) == 17

    def test_noisy_tomography(self, capsys, tmp_path):
        cfg = tmp_path / "noise.json"
        cfg.write_text(json.dumps({"rf_spread": 0.05, "ensemble_size": 60}))
        code, out, _ = run_cli(
            capsys,
            ["tomo", "-m", "1", "--layer", "pulse", "--noise", str(cfg), "--seed", "1", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["noisy"] is True
        assert payload["max_element_error_relative"] > 0

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, ["tomo", "-m", "1"])
        assert code == 0
        assert "reconstructed element moduli" in out

    def test_noise_free_request_decomposes_each_matrix_once(self, monkeypatch, capsys):
        """Readouts check their input (one eigvalsh), the fit's projection
        test takes one more, and fidelity factors both matrices with one
        eigh each, which also serves as their density check."""
        counts = {"eigvalsh": 0, "eigh": 0}

        def counted(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counted(name))
        code, _, _ = run_cli(capsys, ["tomo", "-m", "2", "--format", "json"])
        assert code == 0
        assert counts == {"eigvalsh": 2, "eigh": 2}


class TestValidate:
    def test_full_suite_passes(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 400}}))
        code, out, _ = run_cli(capsys, ["validate", "--config", str(cfg), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "table1-vs-brute-force" in names
        assert "noise-error-band" in names
        assert all(c["passed"] for c in payload["checks"])

    def test_output_byte_identical_across_hash_seeds(self):
        """``python -m densecode validate --format json`` passes and prints
        the same bytes in both ``TWO_INTERPRETERS``: its pulse-protocol
        check and fig4 pass tuple heads, which the ensemble average's plan
        keys by ``id``."""
        printed = []
        for env in TWO_INTERPRETERS:
            proc = subprocess.run(
                [sys.executable, "-m", "densecode", "validate", "--format", "json"],
                capture_output=True, env=interpreter_env(**env), timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0] == printed[1], DIFFERING

    def test_capacity_check_runs_each_network_once(self, monkeypatch):
        runs = count_networks(monkeypatch)
        grid = protocol.table1()
        assert len(runs) == len(set(runs)) == 16
        assert validation._check_capacity(grid).passed
        assert len(runs) == 16  # the check reads the grid's columns

    @pytest.mark.parametrize(
        "argv",
        [["validate", "--ensemble-size", "20", "--format", "json"], ["table", "--check"]],
    )
    def test_each_network_runs_once_per_request(self, monkeypatch, capsys, argv):
        runs = count_networks(monkeypatch)
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(runs) == len(set(runs)) == 16

    def test_table_check_reads_the_grid_it_is_given(self):
        grid = [list(row) for row in protocol.table1()]
        grid[0][0], grid[1][0] = grid[1][0], grid[0][0]
        result = validation.check_table(grid)
        assert not result.passed
        assert "m=1,v=minus-phi" in result.detail and "m=2,v=minus-phi" in result.detail
        assert validation.check_table(protocol.table1()).passed

    def test_json_value_and_bound_agree_with_passed(self, monkeypatch, capsys, tmp_path):
        def within(value, bound):
            if isinstance(bound, list):
                lo, hi = bound
                return lo <= value <= hi
            return value <= bound

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 400}}))
        argv = ["validate", "--config", str(cfg), "--format", "json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        healthy = strict_json(out)["checks"]
        corrupt_hadamard(monkeypatch)
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        broken = strict_json(out)["checks"]
        assert not all(c["passed"] for c in broken)
        for checks in (healthy, broken):
            assert len(checks) == 10
            for c in checks:
                assert type(c["value"]) in (int, float), c
                bound = c["bound"]
                assert type(bound) in (int, float) or len(bound) == 2, c
                assert c["passed"] is within(c["value"], bound), c
        band = next(c for c in healthy if c["name"] == "noise-error-band")
        assert band["bound"] == list(validation.ERROR_BAND)

    def test_text_output_one_line_per_check(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 400}}))
        code, out, _ = run_cli(capsys, ["validate", "--config", str(cfg)])
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")


#: Run in a new interpreter with a scratch directory as its argument: three
#: warm-up ``cli.main`` calls of each path, in this order, then ten counted
#: ones; prints each path's minor page faults over its ten calls as JSON.
#: The order matters: the noisy paths run before fig4 and validate, whose
#: larger frees raise glibc's trim threshold and would hide a workspace
#: that is handed back to the OS and faulted in again.
FAULT_SCRIPT = """
import contextlib, json, os, resource, sys
from densecode import cli
large = os.path.join(sys.argv[1], "large.json")
with open(large, "w") as fh:
    json.dump({"noise": {"ensemble_size": 20000}}, fh)
noisy = ["-m", "4", "-v", "minus-psi", "--layer", "pulse", "--noise"]
paths = {
    "ideal tomo": ["tomo", "-m", "3", "-v", "plus-phi"],
    "table --check": ["table", "--check"],
    "noisy run": ["run", *noisy],
    "noisy tomo": ["tomo", *noisy],
    "noisy run, 20,000 members": ["run", *noisy, large],
    "fig4": ["fig4", "--out", sys.argv[1]],
    "validate": ["validate"],
}
faults = {}
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for name, argv in paths.items():
        for _ in range(3):
            assert cli.main(argv) == 0, name
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            cli.main(argv)
        faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_workspace_not_faulted_in_again(tmp_path):
    """After warm-up, no path hands its workspace back to the OS and faults
    it in again: at most 100 minor faults over ten calls, where a noisy
    ``run`` with a 4-wide scratch stack took about 2,000."""
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, str(tmp_path)],
        capture_output=True, env=interpreter_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout)
    assert len(faults) == 7
    assert all(count <= 100 for count in faults.values()), faults


def count_networks(monkeypatch) -> list:
    """The (message, variant) of every later ``protocol.run_network`` call."""
    runs = []
    real = protocol.run_network

    def counted(m, v):
        runs.append((m, v))
        return real(m, v)

    monkeypatch.setattr(protocol, "run_network", counted)
    return runs


def corrupt_hadamard(monkeypatch):
    """Replace the Hadamard on spin b by a unitary that is not H."""
    wrong = np.array([[1, 1], [-1, 1]], dtype=complex) / np.sqrt(2)
    monkeypatch.setattr(protocol, "_H_B", np.kron(wrong, np.eye(2)))


class TestMutationSanity:
    def test_corrupted_gate_fails_table_check(self, monkeypatch):
        corrupt_hadamard(monkeypatch)
        result = validation.check_table(protocol.table1())
        assert not result.passed

    def test_corrupted_gate_makes_validate_exit_nonzero(self, monkeypatch, capsys, tmp_path):
        corrupt_hadamard(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 50}}))
        code, out, _ = run_cli(capsys, ["validate", "--config", str(cfg)])
        assert code == 1
        assert "FAIL table1-vs-brute-force" in out

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_failed_table_check_writes_only_its_verdict(self, monkeypatch, capsys, tmp_path, fmt, to_file):
        corrupt_hadamard(monkeypatch)
        out_option = ["--out", str(tmp_path / f"table.{fmt}")] if to_file else []
        code, out, err = run_cli(capsys, ["table", "--check", "--format", fmt, *out_option])
        verdict = f"FAIL table1-vs-brute-force      {validation.check_table(protocol.table1()).detail}\n"
        assert (code, out, err) == (1, verdict, "")
        assert list(tmp_path.iterdir()) == []

    def test_failed_validate_still_writes_its_report(self, monkeypatch, capsys, tmp_path):
        corrupt_hadamard(monkeypatch)
        cfg, target = tmp_path / "cfg.json", tmp_path / "validate.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": 50}}))
        argv = ["validate", "--config", str(cfg), "--format", "json", "--out", str(target)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", "")
        report = strict_json(target.read_text())
        assert report["passed"] is False and len(report["checks"]) == 10

    def test_corrupted_encoding_fails_eq2_check(self, monkeypatch):
        monkeypatch.setattr(protocol, "_ENCODINGS",
                            {m: np.eye(4, dtype=complex) for m in protocol.MESSAGES})
        result = validation._check_eq2()
        assert not result.passed


def test_commands_return_their_result_and_write_nothing(monkeypatch, capsys, tmp_path):
    """Every ``cmd_*`` only computes its ``Result``: ``main`` alone prints
    and writes it."""
    monkeypatch.chdir(tmp_path)
    series = [
        ["table", "--check", "--out", "table.txt"],
        ["run", "-m", "2", "--layer", "pulse", "--noise", "--out", "run.txt"],
        ["fig4", "--seed", "3"],
        ["tomo", "-m", "3", "--format", "csv", "--out", "tomo.csv"],
        ["validate", "--ensemble-size", "20", "--format", "json", "--out", "validate.json"],
    ]
    commands = set()
    for argv in series:
        args = cli.build_parser().parse_args(argv)
        command = getattr(cli, f"cmd_{args.command}")
        result = command(args) if args.command == "table" else command(args, cli.resolve(args))
        assert isinstance(result, cli.Result), argv
        assert capsys.readouterr() == ("", ""), argv
        assert list(tmp_path.iterdir()) == [], argv
        commands.add(command.__name__)
    assert commands == {name for name in vars(cli) if name.startswith("cmd_")}


BAD_CONFIG_VALUES = [
    ("noise", "rf_spread", "0.05"),
    ("noise", "calib_offset", True),
    ("noise", "ensemble_size", "1000"),
    ("noise", "ensemble_size", False),
    ("noise", "seed", None),
    ("noise", "seed", 1.5),
    ("spin_system", "j_hz", "215"),
    ("spin_system", "freq_a_mhz", True),
    ("spin_system", "epsilon", [1e-5]),
]


class TestConfigTypes:
    @pytest.mark.parametrize("section,key,value", BAD_CONFIG_VALUES)
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "-m", "1", "--layer", "pulse", "--noise"],
            ["fig4"],
            ["validate"],
            ["tomo", "-m", "1", "--layer", "pulse", "--noise"],
        ],
    )
    def test_mistyped_value_is_usage_error(self, capsys, tmp_path, command, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        code, out, err = run_cli(
            capsys, command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{section}.{key}" in err

    @pytest.mark.parametrize("section", ["noise", "spin_system"])
    def test_section_must_be_an_object(self, capsys, tmp_path, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: [1, 2]}))
        code, _, err = run_cli(capsys, ["run", "-m", "1", "--layer", "pulse", "--config", str(cfg)])
        assert code == 2
        assert err == f"error: config {section} must be a JSON object\n"


def resolve(argv):
    return cli.resolve(cli.build_parser().parse_args(argv))


def test_error_params_from_config_defaults():
    inputs = resolve(["fig4"])
    assert inputs.params == noise.DEMO_PARAMS
    assert inputs.params.seed == 20260808


def test_spin_system_from_config_defaults():
    inputs = resolve(["validate"])
    assert inputs.system.freq_a == 500.13
    assert inputs.system.freq_b == 125.77
    assert inputs.system.j_coupling == 215.0
    assert inputs.system.epsilon == 1e-5


#: An in-range value other than the default for every config key.
NON_DEFAULT_VALUES = {
    "freq_a_mhz": 400.13,
    "freq_b_mhz": 100.61,
    "j_hz": 200.0,
    "epsilon": 2e-5,
    "rf_spread": 0.04,
    "calib_offset": -0.02,
    "offset_spread_hz": 12.5,
    "t2_a_s": 0.5,
    "t2_b_s": 0.25,
    "ensemble_size": 7,
    "seed": 5,
}
CONFIG_FIELDS = [
    (section, key, field)
    for section, keys in (("spin_system", SPIN_SYSTEM_KEYS), ("noise", NOISE_KEYS))
    for key, field in keys.items()
]


@pytest.mark.parametrize("section, key, field", CONFIG_FIELDS, ids=[key for _, key, _ in CONFIG_FIELDS])
def test_config_key_sets_its_field(tmp_path, section, key, field):
    """A document that sets one key alone resolves to the defaults with
    that key's dataclass field, and only it, changed."""
    value = NON_DEFAULT_VALUES[key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    inputs = resolve(["fig4", "--config", str(cfg)])
    system, params = nmrsim.SpinSystem(), noise.DEMO_PARAMS
    if section == "spin_system":
        assert value != getattr(system, field)
        system = replace(system, **{field: value})
    else:
        assert value != getattr(params, field)
        params = replace(params, **{field: value})
    assert inputs == cli.Inputs(system, params)


class TestNoiseSectionOnlyWithNoise:
    """run/tomo read the config's noise values only when --noise is given;
    with --noise a mistyped value is refused (TestConfigTypes)."""

    @pytest.mark.parametrize("command", ["run", "tomo"])
    def test_ignored_without_noise(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"rf_spread": "x"}}))
        code, out, err = run_cli(
            capsys, [command, "-m", "1", "--layer", "pulse", "--config", str(cfg), "--format", "json"]
        )
        assert code == 0
        assert err == ""
        assert json.loads(out)


class TestEnsembleSizeBound:
    """An oversized ensemble is refused by the validator before any draw."""

    TOO_LARGE = noise.MAX_ENSEMBLE_SIZE + 1

    @pytest.mark.parametrize(
        "command", [["run", "-m", "1", "--layer", "pulse", "--noise"], ["fig4"], ["validate"]]
    )
    def test_config_value_is_usage_error(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"ensemble_size": self.TOO_LARGE}}))
        code, out, err = run_cli(
            capsys, command + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ensemble_size" in err

    def test_validate_option_is_usage_error(self, capsys):
        for size in (0, self.TOO_LARGE):
            code, out, err = run_cli(capsys, ["validate", "--ensemble-size", str(size)])
            assert code == 2
            assert out == ""
            assert err.startswith("error: --ensemble-size ") and err.count("\n") == 1

    def test_module_entry_point(self, tmp_path):
        code, out, err = fresh_interpreter(["validate", "--ensemble-size", "0"], tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith("error: --ensemble-size ") and err.count("\n") == 1


def fresh_interpreter(argv, cwd) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m densecode.cli`` on
    ``argv`` alone in a new interpreter, run in ``cwd``; the output is
    decoded without translating newlines."""
    proc = subprocess.run(
        [sys.executable, "-m", "densecode.cli", *argv],
        cwd=cwd, capture_output=True, env=interpreter_env(), timeout=60,
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


#: The two new interpreters whose outputs must be byte-identical: their
#: hash seeds differ, and so do their BLAS thread counts.
TWO_INTERPRETERS = (
    {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "1"},
    {"PYTHONHASHSEED": "2", "OPENBLAS_NUM_THREADS": "4"},
)
DIFFERING = "outputs differ between " + " and ".join(
    " ".join(f"{name}={value}" for name, value in env.items()) for env in TWO_INTERPRETERS
)


def interpreter_env(**extra: str) -> dict[str, str]:
    """The environment of a new interpreter that imports this checkout's
    package, with ``extra`` variables set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def files_under(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


class TestOneParserPerProcess:
    """``cli.main`` builds its parser once and shares it across calls; no
    call leaves anything behind for the next."""

    def test_parser_built_once(self, monkeypatch, capsys):
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cli._parser.cache_clear()
        for argv in (["table"], ["run", "-m", "1"], ["tomo", "-m", "2"], ["run", "-m", "3", "--seed", "1"]):
            cli.main(argv)
        assert len(built) == 1

    def test_namespace_holds_only_its_argv(self, monkeypatch, capsys):
        """Each command sees what a new parser gives its argv alone: nothing
        an earlier call parsed is left in its namespace."""
        seen = []
        resolve = cli.resolve
        monkeypatch.setattr(cli, "resolve", lambda args: seen.append(vars(args).copy()) or resolve(args))
        series = [
            ["run", "-m", "2", "-v", "plus-psi", "--layer", "pulse", "--noise", "--seed", "4"],
            ["tomo", "-m", "1"],
            ["validate", "--ensemble-size", "5"],
            ["run", "-m", "3"],
        ]
        cli._parser.cache_clear()
        for argv in series:
            cli.main(argv)
        assert seen == [vars(cli.build_parser().parse_args(argv)) for argv in series]

    def test_no_state_leaks_between_calls(self, monkeypatch, capsys, tmp_path):
        """Each call of a series in one interpreter, later ones leaving out
        options earlier ones set, with argparse exits mixed in, gives what
        its argv gives alone in a fresh interpreter."""
        monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal
        cfg, noise_path = tmp_path / "cfg.json", tmp_path / "noise.json"
        cfg.write_text(json.dumps({"spin_system": {"j_hz": 210.0}, "noise": {"ensemble_size": 20, "seed": 9}}))
        noise_path.write_text(json.dumps({"rf_spread": 0.07, "ensemble_size": 30}))
        series = [
            ["run", "-m", "2", "-v", "plus-psi", "--layer", "pulse", "--config", str(cfg),
             "--noise", str(noise_path), "--seed", "5", "--format", "json", "--out", "run.json"],
            ["run", "-m", "2", "--noise"],  # --noise without --layer pulse
            ["run", "-m", "2", "-v", "plus-psi", "--layer", "pulse", "--noise"],
            ["run", "-m", "1", "--seed", "3"],  # --seed without --noise
            ["-h"],
            ["validate", "--config", str(cfg), "--seed", "2", "--ensemble-size", "5",
             "--format", "json", "--out", "validate.json"],
            ["validate"],
            ["fig4", "--config", str(cfg), "--seed", "4", "--format", "json", "--out", "."],
            ["fig4", "--config", str(cfg)],
            ["tomo", "-m", "3", "-v", "minus-psi", "--layer", "pulse", "--format", "csv", "--out", "tomo.csv"],
            ["tomo", "-m", "3"],
            ["table", "--check", "--format", "csv"],
            ["table"],
        ]
        fresh = [tmp_path / "fresh" / str(i) for i in range(len(series))]
        for path in fresh:
            path.mkdir(parents=True)
        with ThreadPoolExecutor(max_workers=4) as pool:
            expected = list(pool.map(fresh_interpreter, series, fresh))
        cli._parser.cache_clear()
        for i, argv in enumerate(series):
            shared = tmp_path / "shared" / str(i)
            shared.mkdir(parents=True)
            monkeypatch.chdir(shared)
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # -h and argparse's errors
                code = exc.code
            out = capsys.readouterr()
            assert (code, out.out, out.err) == expected[i], argv
            assert files_under(shared) == files_under(fresh[i]), argv


def test_run_and_tomo_options_have_the_same_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal
    sections = []
    for command in ("run", "tomo"):
        with pytest.raises(SystemExit) as exited:
            cli.main([command, "--help"])
        out = capsys.readouterr().out
        assert exited.value.code == 0
        assert out.startswith(f"usage: densecode {command} ")
        options = out.split("\noptions:\n")[1]
        sections.append([line for line in options.splitlines() if "--format" not in line])
    assert sections[0] == sections[1]
    assert "Bell start state (default minus-phi)" in "\n".join(sections[1])
    assert "enable the error model (optionally from a JSON file)" in "\n".join(sections[1])


def test_console_script_is_cli_entry(capsys):
    """pyproject.toml maps the ``densecode`` script to ``cli.entry`` (read
    as text: Python 3.10 has no tomllib), whose top-level help exits 0 on
    its usage line, in-process and, where the package is installed, as
    that script."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n")[1].split("\n[")[0]
    assert 'densecode = "densecode.cli:entry"' in scripts.splitlines()
    with pytest.raises(SystemExit) as exited:
        cli.main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: densecode ")
    script = shutil.which("densecode")
    if script:
        proc = subprocess.run([script, "--help"], capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"usage: densecode ")


CONFIG_COMMANDS = [
    ["run", "-m", "1", "--layer", "pulse", "--noise"],
    ["tomo", "-m", "1", "--layer", "pulse", "--noise"],
    ["fig4"],
    ["validate"],
]


def usage_error(capsys, tmp_path, argv, document=None):
    """stderr of a command that must exit 2 with one ``error:`` line;
    ``document`` is written to a config file appended as ``--config``."""
    if document is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(capsys, argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestRangeErrorsNameConfigKeys:
    """A value the dataclass refuses is reported under its config key."""

    @pytest.mark.parametrize(
        "document,message",
        [
            ({"noise": {"t2_a_s": 0}}, "config noise.t2_a_s must be positive"),
            ({"noise": {"t2_b_s": -1.0}}, "config noise.t2_b_s must be positive"),
            ({"noise": {"rf_spread": -0.1}}, "config noise.rf_spread must be finite and >= 0"),
            ({"noise": {"ensemble_size": 0}}, "config noise.ensemble_size must be an integer"),
            ({"spin_system": {"j_hz": -1}}, "config spin_system.j_hz must be positive"),
            ({"spin_system": {"freq_b_mhz": 0}}, "config spin_system.freq_b_mhz must be positive"),
            ({"spin_system": {"freq_a_mhz": -2.0}}, "config spin_system.freq_a_mhz must be positive"),
            ({"spin_system": {"epsilon": -1e-5}}, "config spin_system.epsilon must be finite"),
            ({"spin_system": {"j_hz": math.inf}}, "config spin_system.j_hz must be finite"),
            ({"spin_system": {"freq_a_mhz": math.inf}}, "config spin_system.freq_a_mhz must be finite"),
            ({"spin_system": {"freq_b_mhz": 1e-320}}, "config spin_system.freq_b_mhz is too small"),
            ({"spin_system": {"j_hz": 10**400}}, "config spin_system.j_hz is an integer too large"),
            ({"noise": {"t2_a_s": 10**400}}, "config noise.t2_a_s is an integer too large"),
            ({"spin_system": {"epsilon": 0}}, "config spin_system.epsilon must be finite and > 0"),
            # json.dumps writes the non-standard constants Infinity and NaN
            ({"noise": {"t2_a_s": math.inf}}, "config noise.t2_a_s must be finite"),
            ({"noise": {"t2_a_s": math.nan}}, "config noise.t2_a_s must be finite"),
            # pi/J, the phase scale of the delays, overflows to inf
            ({"spin_system": {"j_hz": 1e-320}}, "config spin_system.j_hz is too small"),
            # pi*J, the scale of the J phase, overflows to inf
            ({"spin_system": {"j_hz": 6e307}}, "config spin_system.j_hz is too large"),
            # 1/t2, the rate of the T2 damping, overflows to inf
            ({"noise": {"t2_a_s": 1e-320}}, "config noise.t2_a_s is too small"),
            ({"noise": {"t2_b_s": 5e-324}}, "config noise.t2_b_s is too small"),
            # 3 sigma, the truncation of the draws, overflows to inf
            ({"noise": {"rf_spread": 1e308}}, "config noise.rf_spread is too large"),
            ({"noise": {"offset_spread_hz": 1e308}}, "config noise.offset_spread_hz is too large"),
            # each value is in range alone; a phase or T2 exponent overflows
            ({"spin_system": {"j_hz": 1e-300}, "noise": {"t2_a_s": 1e-10}},
             "config noise.t2_a_s is too small for the delays set by config spin_system.j_hz"),
            ({"spin_system": {"j_hz": 1e-300}, "noise": {"t2_b_s": 1e-10}},
             "config noise.t2_b_s is too small for the delays set by config spin_system.j_hz"),
            ({"spin_system": {"j_hz": 1e-300}, "noise": {"offset_spread_hz": 1e10}},
             "config noise.offset_spread_hz is too large for the delays set by config spin_system.j_hz"),
            ({"noise": {"calib_offset": 1e308}},
             "config noise.calib_offset or config noise.rf_spread is too large"),
            # pi/J, the phase scale of the delays, overflows to inf
            ({"spin_system": {"j_hz": 3.5e-309}}, "config spin_system.j_hz is too small"),
        ],
    )
    @pytest.mark.parametrize("command", CONFIG_COMMANDS[:1] + CONFIG_COMMANDS[2:])
    def test_message_names_config_key(self, capsys, tmp_path, command, document, message):
        err = usage_error(capsys, tmp_path, command, document)
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", CONFIG_COMMANDS[:1] + CONFIG_COMMANDS[2:])
    def test_overflow_is_usage_error(self, capsys, tmp_path, monkeypatch, command):
        # the last resort against a traceback: draws beyond any range check
        # overflow the scaled pulse angles inside the engine
        draws = lambda p: iter([np.full((p.ensemble_size, 3), 1e308)])  # noqa: E731
        monkeypatch.setattr(noise, "_draw_chunks", draws)
        err = usage_error(capsys, tmp_path, command, {"noise": {"ensemble_size": 2}})
        assert err.startswith("error: overflow encountered")
        assert err.endswith(": a config value is out of range\n")

    def test_integer_beyond_int64_is_a_float(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"offset_spread_hz": 2**65, "ensemble_size": 2}}))
        code, out, err = run_cli(
            capsys, ["run", "-m", "1", "--layer", "pulse", "--noise", "--config", str(cfg), "--format", "json"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["ensemble_size"] == 2

    @pytest.mark.parametrize("command", CONFIG_COMMANDS[2:])
    def test_epsilon_too_small_for_rescaling(self, capsys, tmp_path, command):
        for document in ({"spin_system": {"epsilon": 1e-300}, "noise": {"ensemble_size": 5}},
                         {"spin_system": {"epsilon": 1e-300}}):
            err = usage_error(capsys, tmp_path, command, document)
            assert err == (
                "error: config spin_system.epsilon must be >= 1e-10 for the pseudo-pure "
                "rescaling, got 1e-300\n"
            )

    @pytest.mark.parametrize("command", CONFIG_COMMANDS[2:])
    def test_epsilon_too_large_for_thermal_state(self, capsys, tmp_path, command):
        # populations stay >= 0 up to 0.5 / (freq_a/freq_b + 1) ~ 0.1005
        for document in ({"spin_system": {"epsilon": 0.2}, "noise": {"ensemble_size": 5}},
                         {"spin_system": {"epsilon": 0.5}}):
            err = usage_error(capsys, tmp_path, command, document)
            epsilon = document["spin_system"]["epsilon"]
            assert err == (
                f"error: config spin_system.epsilon {epsilon} too large: thermal populations go negative\n"
            )

    @pytest.mark.parametrize("command", CONFIG_COMMANDS[2:])
    def test_epsilon_bounds_refused_before_the_noise_section(self, capsys, tmp_path, command):
        """Both bounds are checked with the spin system, before the noise
        section is read and anything is run."""
        for epsilon, message in ((1e-300, "must be >= 1e-10"), (0.2, "0.2 too large")):
            document = {"spin_system": {"epsilon": epsilon}, "noise": {"rf_spread": -1}}
            err = usage_error(capsys, tmp_path, command, document)
            assert err.startswith(f"error: config spin_system.epsilon {message}")

    @pytest.mark.parametrize("command", CONFIG_COMMANDS[2:])
    def test_epsilon_overflowing_thermal_state(self, capsys, tmp_path, command):
        # epsilon * freq_a/freq_b overflows
        document = {"spin_system": {"epsilon": 1e233, "freq_b_mhz": 1e-121}, "noise": {"ensemble_size": 5}}
        err = usage_error(capsys, tmp_path, command, document)
        assert err == (
            "error: config spin_system.epsilon 1e+233 too large: thermal populations go negative\n"
        )

    def test_smallest_accepted_epsilon_runs(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spin_system": {"epsilon": 1e-10}, "noise": {"ensemble_size": 5}}))
        code, out, err = run_cli(capsys, ["fig4", "--config", str(cfg), "--out", str(tmp_path)])
        assert (code, err) == (0, "")
        assert "max relative error across panels" in out

    def test_dataclass_messages_kept_for_api_callers(self):
        with pytest.raises(ValueError, match=r"^ErrorParams\.t2_a must be positive"):
            noise.ErrorParams(t2_a=0)
        with pytest.raises(ValueError, match=r"^SpinSystem\.j_coupling must be positive"):
            cli.nmrsim.SpinSystem(j_coupling=-1)


class TestClosedKeySet:
    """A key the config does not define exits 2 naming it."""

    @pytest.mark.parametrize(
        "document,key",
        [
            ({"noise": {"rf_sprad": 0.5}}, "noise.rf_sprad"),
            ({"spin_system": {"j": 100.0}}, "spin_system.j"),
            ({"nosie": {"rf_spread": 0.5}}, "nosie"),
            # T2 is a noise key only
            ({"spin_system": {"t2_a_s": 0}}, "spin_system.t2_a_s"),
            ({"spin_system": {"t2_b_s": 0.3}}, "spin_system.t2_b_s"),
        ],
    )
    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_unknown_config_key(self, capsys, tmp_path, command, document, key):
        err = usage_error(capsys, tmp_path, command, document)
        assert err.startswith(f"error: unknown config key {key} (known: ")

    @pytest.mark.parametrize("command", ["run", "tomo"])
    @pytest.mark.parametrize(
        "document,key",
        [
            ({"rf_sprad": 0.5}, "noise.rf_sprad"),  # a bare noise object
            ({"noise": {"seeed": 1}}, "noise.seeed"),
            ({"noise": {}, "rf_spread": 0.5}, "rf_spread"),
        ],
    )
    def test_unknown_key_in_noise_path(self, capsys, tmp_path, command, document, key):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(document))
        err = usage_error(capsys, tmp_path, [command, "-m", "1", "--layer", "pulse", "--noise", str(path)])
        assert err.startswith(f"error: unknown config key {key} (known: ")

    def test_every_readme_key_is_accepted(self, capsys, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Configuration", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        document = json.loads(block)
        assert set(document) == set(cli.CONFIG_SECTIONS)
        assert set(document["spin_system"]) == set(cli.SPIN_SYSTEM_KEYS)
        assert set(document["noise"]) == set(cli.NOISE_KEYS)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))
        for command in CONFIG_COMMANDS:
            out = tmp_path if command == ["fig4"] else tmp_path / "out.txt"
            code, _, err = run_cli(capsys, command + ["--config", str(cfg), "--out", str(out)])
            assert (code, err) == (0, "")


class TestSeedContract:
    """--seed and noise.seed must be integers >= 0; the error names which."""

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_negative_seed_option(self, capsys, tmp_path, command):
        err = usage_error(capsys, tmp_path, command + ["--seed", "-3"])
        assert err == "error: --seed must be a non-negative integer, got -3\n"

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    def test_negative_config_seed(self, capsys, tmp_path, command):
        err = usage_error(capsys, tmp_path, command, {"noise": {"seed": -1}})
        assert err == "error: config noise.seed must be a non-negative integer, got -1\n"

    def test_negative_seed_in_noise_path(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text(json.dumps({"seed": -5, "ensemble_size": 10}))
        err = usage_error(capsys, tmp_path, ["run", "-m", "1", "--layer", "pulse", "--noise", str(path)])
        assert "noise.seed" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "-m", "1"],
            ["tomo", "-m", "1", "--layer", "pulse"],
            ["run", "-m", "1", "--config", "/nonexistent/cfg.json"],  # refused before it is read
        ],
    )
    def test_seed_without_noise(self, capsys, tmp_path, command):
        err = usage_error(capsys, tmp_path, command + ["--seed", "5"])
        assert err == "error: --seed requires --noise\n"

    @pytest.mark.parametrize(
        "command, name",
        [(["fig4", "--format", "json"], "fig4.json"),
         (["run", "-m", "2", "--layer", "pulse", "--noise", "--format", "json"], "out.json")],
        ids=["fig4", "noisy run"],
    )
    def test_zero_seed_option_overrides_config_seed(self, capsys, tmp_path, command, name):
        """``--seed 0`` over a config ``noise.seed`` of 5 writes what a config
        seed of 0 writes, and not what seed 5 writes."""

        def output(out, config_seed, *options):
            out.mkdir()
            cfg = out / "cfg.json"
            cfg.write_text(json.dumps({"noise": {"seed": config_seed, "ensemble_size": 20}}))
            target = out if command[0] == "fig4" else out / name
            code, _, err = run_cli(capsys, command + ["--config", str(cfg), "--out", str(target), *options])
            assert (code, err) == (0, "")
            return (out / name).read_bytes()

        overridden = output(tmp_path / "overridden", 5, "--seed", "0")
        assert json.loads(overridden)["seed"] == 0
        assert overridden == output(tmp_path / "zero", 0)
        assert overridden != output(tmp_path / "five", 5)

    def test_zero_and_large_seeds_run(self, capsys):
        for seed in ("0", str(2**130 + 9)):
            code, out, _ = run_cli(
                capsys, ["run", "-m", "1", "--layer", "pulse", "--noise", "--seed", seed, "--format", "json"]
            )
            assert code == 0
            assert json.loads(out)["seed"] == int(seed)


#: Every JSON type, with the extremes a config value can take.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),  # NaN, infinities, subnormals
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
#: Ensemble sizes: a few members, or a size the validator refuses before any
#: draw; a large valid size would only make the property test slow.
ENSEMBLE_SIZE_OPTIONS = st.one_of(
    st.integers(1, 3),
    st.integers(max_value=0),
    st.integers(min_value=noise.MAX_ENSEMBLE_SIZE + 1),
)
ENSEMBLE_SIZES = st.one_of(
    ENSEMBLE_SIZE_OPTIONS,
    JSON_VALUES.filter(lambda value: isinstance(value, bool) or not isinstance(value, int)),
)
#: Keys of at most three characters, so never a known key.
UNKNOWN_KEYS = st.dictionaries(st.text(max_size=3), JSON_VALUES, min_size=1, max_size=1)


def fuzzed_object(values: dict) -> st.SearchStrategy:
    """Objects with some of the keys of ``values``, each drawn from its
    strategy, sometimes with an unknown key; or any JSON value."""
    known = st.fixed_dictionaries({}, optional=values)
    with_unknown = st.tuples(known, UNKNOWN_KEYS).map(lambda pair: {**pair[0], **pair[1]})
    return st.one_of(known, known, with_unknown, JSON_VALUES)


def fuzzed_section(keys) -> st.SearchStrategy:
    return fuzzed_object({k: ENSEMBLE_SIZES if k == "ensemble_size" else JSON_VALUES for k in keys})


FUZZED_DOCUMENTS = fuzzed_object(
    {"spin_system": fuzzed_section(SPIN_SYSTEM_KEYS), "noise": fuzzed_section(NOISE_KEYS)}
)
#: Positive floats, log-uniform from the subnormals to near the largest float.
LOG_UNIFORM = st.floats(-320.0, 308.0).map(lambda exponent: 10.0**exponent)
#: Documents whose every value is in range for its type, drawn jointly: some
#: of each section's numeric keys, a few members.
JOINT_DOCUMENTS = st.fixed_dictionaries({
    "spin_system": st.fixed_dictionaries({}, optional={key: LOG_UNIFORM for key in SPIN_SYSTEM_KEYS}),
    "noise": st.fixed_dictionaries(
        {"ensemble_size": st.integers(1, 3)},
        optional={key: LOG_UNIFORM for key in NOISE_KEYS if key not in ("ensemble_size", "seed")},
    ),
})
#: A usage error names what to change: a config key or an option.
NAMED_USAGE_ERROR = re.compile(r"error: .*(config (spin_system|noise)\.[a-z_]+|--[a-z])")


class TestConfigFuzz:
    """Whatever the config document and the numeric options, the CLI exits
    0-3 and writes nothing to stderr but at most one ``error:`` line."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @example(["fig4"], {"noise": {"rf_spread": 10**400}}, False, None, None)
    @example(["validate"], {"noise": {"t2_b_s": 5e-324, "ensemble_size": 1}}, False, 0, 1)
    @example(["run", "-m", "1", "--layer", "pulse", "--noise"],
             {"offset_spread_hz": 2**65, "ensemble_size": 1}, True, 2**130, None)
    @given(
        command=st.sampled_from([
            ["run", "-m", "1", "--layer", "pulse", "--noise"],
            ["tomo", "-m", "2", "--layer", "pulse", "--noise"],
            ["run", "-m", "3"],
            ["fig4"],
            ["validate"],
        ]),
        document=FUZZED_DOCUMENTS,
        as_noise_path=st.booleans(),
        seed=st.none() | st.integers() | st.just(2**130),
        ensemble_size=st.none() | ENSEMBLE_SIZE_OPTIONS,
    )
    def test_exit_code_and_stderr(self, command, document, as_noise_path, seed, ensemble_size):
        options = [] if seed is None else ["--seed", str(seed)]
        if ensemble_size is not None and command == ["validate"]:
            options += ["--ensemble-size", str(ensemble_size)]
        code, stderr, caught = run_with_document(command, document, as_noise_path, options)
        assert code in (0, 1, 2, 3)
        assert stderr == "" or (stderr.startswith("error: ") and stderr.count("\n") == 1), stderr
        assert caught == []

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @example(CONFIG_COMMANDS[0], {"spin_system": {"j_hz": 1e-300},
                                  "noise": {"t2_a_s": 1e-10, "ensemble_size": 2}})
    @example(CONFIG_COMMANDS[3], {"spin_system": {"j_hz": 3.5e-309}, "noise": {"ensemble_size": 2}})
    @example(CONFIG_COMMANDS[3], {"spin_system": {"freq_b_mhz": 1e-121, "epsilon": 1e233},
                                  "noise": {"ensemble_size": 2}})
    @given(command=st.sampled_from(CONFIG_COMMANDS), document=JOINT_DOCUMENTS)
    def test_joint_out_of_range_values_name_their_keys(self, command, document):
        code, stderr, caught = run_with_document(command, document)
        assert code in (0, 1, 2)
        assert caught == []
        if code == 2:
            assert NAMED_USAGE_ERROR.match(stderr) and stderr.count("\n") == 1, stderr
            assert "a config value is out of range" not in stderr
        else:
            assert stderr == ""


def run_with_document(command, document, as_noise_path=False, options=()):
    """Exit code, stderr and warnings of ``cli.main`` on ``command`` plus
    ``options``, with ``document`` in a config file given as ``--noise PATH``
    if ``as_noise_path`` and ``command`` ends in ``--noise``, else as
    ``--config PATH``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        argv = command + ([path] if as_noise_path and command[-1] == "--noise" else ["--config", path])
        argv += list(options) + ["--out", tmp if command == ["fig4"] else os.path.join(tmp, "out")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]
