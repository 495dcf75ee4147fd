import json

import numpy as np
import pytest

from jpegns import load_raw, read_coeffs
from jpegns import pipeline as pl
from jpegns.cli import build_parser, main
from jpegns.embedder import read_costs
from jpegns.pipeline import NEIGHBOR_LABELS


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "raw.pgm"
    rc = main(["synth", "--kind", "iid", "--mu", "2500", "--sigma", "120",
               "--w", "48", "--h", "48", "--seed", "5", "-o", str(path)])
    assert rc == 0
    return path


def test_synth_writes_image_and_sidecar(raw_file):
    img = load_raw(raw_file)
    assert img.width == img.height == 48
    assert img.cfa == "RGGB"
    assert img.params.a2 == 1.15


def test_synth_constant(tmp_path):
    path = tmp_path / "flat.pgm"
    rc = main(["synth", "--kind", "constant", "--mu", "1000",
               "--w", "24", "--h", "24", "-o", str(path)])
    assert rc == 0
    assert np.all(load_raw(path).data == 1000.0)


def test_develop(raw_file, tmp_path):
    out = tmp_path / "cover.jcns"
    rc = main(["develop", str(raw_file), "--qf", "85", "-o", str(out)])
    assert rc == 0
    cover = read_coeffs(out)
    assert cover.role == "cover"
    assert cover.table.qf == 85
    assert cover.blocks_w == 6


def test_embed_with_report(raw_file, tmp_path):
    out = tmp_path / "stego.jcns"
    report_path = tmp_path / "report.json"
    rc = main(["embed", str(raw_file), "--qf", "95", "--K", "5",
               "--key", "deadbeef", "-o", str(out),
               "--report", str(report_path)])
    assert rc == 0
    stego = read_coeffs(out)
    assert stego.role == "stego"
    report = json.loads(report_path.read_text())
    assert report["config"]["key"] == f"{0xdeadbeef:016x}"
    assert report["totals"]["H_bits"] > 0
    assert len(report["per_lattice_mean_bits"]) == 4

    # Same invocation reproduces the identical stego plane.
    out2 = tmp_path / "stego2.jcns"
    main(["embed", str(raw_file), "--qf", "95", "--K", "5",
          "--key", "deadbeef", "-o", str(out2)])
    assert np.array_equal(read_coeffs(out2).coeffs, stego.coeffs)


def test_embed_changes_bounded(raw_file, tmp_path):
    cover_path = tmp_path / "cover.jcns"
    stego_path = tmp_path / "stego.jcns"
    main(["develop", str(raw_file), "--qf", "95", "-o", str(cover_path)])
    main(["embed", str(raw_file), "--qf", "95", "--K", "2", "--key", "11",
          "-o", str(stego_path)])
    diff = read_coeffs(stego_path).coeffs - read_coeffs(cover_path).coeffs
    assert np.abs(diff).max() <= 2


def test_pseudo_embed(raw_file, tmp_path):
    out = tmp_path / "pseudo.pgm"
    rc = main(["pseudo-embed", str(raw_file), "--seed", "3", "-o", str(out)])
    assert rc == 0
    noisy = load_raw(out)
    assert noisy.data.shape == (48, 48)
    assert not np.array_equal(noisy.data, load_raw(raw_file).data)


def test_capacity(raw_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["capacity", str(raw_file), "--qf", "95", "--K", "5",
               "--key", "ff", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["totals"]) == {"H_bits", "H_bits_per_pixel",
                                     "H_bits_per_nzAC", "nzAC"}
    assert report["runtime_s"] > 0


def test_covariance_export(tmp_path):
    out = tmp_path / "cov.csv"
    rc = main(["covariance", "--neighborhood", "L4", "--mode", "full",
               "--cfa", "RGGB", "-o", str(out)])
    assert rc == 0
    full = np.loadtxt(out, delimiter=",")
    assert full.shape == (576, 576)
    sub = np.loadtxt(tmp_path / "cov_C.csv", delimiter=",")
    assert np.allclose(sub, full[:64, :64], atol=1e-12)
    assert (tmp_path / "cov_SE.csv").exists()


def test_covariance_l1_export(tmp_path):
    out = tmp_path / "covl1.csv"
    rc = main(["covariance", "--neighborhood", "L1", "--mode", "lowpass",
               "-o", str(out)])
    assert rc == 0
    assert np.loadtxt(out, delimiter=",").shape == (64, 64)


@pytest.mark.parametrize("nb", ["L1", "L2", "L3", "L4"])
def test_covariance_export_block_order(tmp_path, nb):
    # Column block k of the central rows is the sub-block of label k.
    out = tmp_path / "cov.csv"
    rc = main(["covariance", "--neighborhood", nb, "--mode", "lowpass",
               "-o", str(out)])
    assert rc == 0
    labels = ("C",) + NEIGHBOR_LABELS[nb]
    full = np.loadtxt(out, delimiter=",")
    assert full.shape == (64 * len(labels),) * 2
    for k, lbl in enumerate(labels):
        sub = np.loadtxt(tmp_path / f"cov_{lbl}.csv", delimiter=",")
        assert np.array_equal(full[:64, 64 * k : 64 * (k + 1)], sub), lbl


# The builder call each --dump-operator kind must reproduce under
# --neighborhood L2 --cfa GRBG --green-kernel corner.
DUMPED = {
    "demosaic_r": lambda: pl.build_demosaic("r", "GRBG", 26, "corner"),
    "demosaic_g": lambda: pl.build_demosaic("g", "GRBG", 26, "corner"),
    "demosaic_b": lambda: pl.build_demosaic("b", "GRBG", 26, "corner"),
    "luminance": lambda: pl.build_luminance("GRBG", 26, "corner"),
    "selection": lambda: pl.build_selection(26, 1),
    "permutation": lambda: pl.build_permutation(
        [(1, 1), (0, 0), (0, 2), (2, 0), (2, 2)]),
    "dct": lambda: pl.build_dct(5),
    "lowpass": lambda: pl.build_lowpass(26),
    "assembled": lambda: pl.assemble("L2", "GRBG", "corner"),
}


@pytest.mark.parametrize("kind", list(DUMPED))
def test_dump_operator(tmp_path, kind):
    out = tmp_path / f"{kind}.csv"
    rc = main(["covariance", "--dump-operator", kind, "--neighborhood", "L2",
               "--cfa", "GRBG", "--green-kernel", "corner", "-o", str(out)])
    assert rc == 0
    expected = DUMPED[kind]().toarray()
    rows, cols = expected.shape
    lines = out.read_text().strip().splitlines()
    assert lines[0] == f"# operator {kind} ({rows}x{cols})"
    assert lines[1] == "row,col,value"
    dense = np.zeros(expected.shape)
    for line in lines[2:]:
        r, c, v = line.split(",")
        assert dense[int(r), int(c)] == 0.0
        dense[int(r), int(c)] = float(v)
    assert np.array_equal(dense, expected)


def test_dump_operator_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["covariance", "--dump-operator", "blur", "-o",
              str(tmp_path / "op.csv")])
    assert exc.value.code == 2


def test_costs_cli(raw_file, tmp_path):
    out = tmp_path / "costs.bin"
    rc = main(["costs", str(raw_file), "--qf", "95", "--K", "3",
               "--key", "aa", "-o", str(out)])
    assert rc == 0
    plane = read_costs(out)
    assert plane.costs.shape == (6, 6, 64, 7)
    assert plane.K == 3


def test_costs_workers_write_identical_files(raw_file, tmp_path):
    # --workers is a shared chain option, so costs takes it too, and the
    # thread count does not change a byte of the cost file.
    paths = [tmp_path / f"costs{w}.bin" for w in (1, 2)]
    for workers, path in zip((1, 2), paths):
        assert main(["costs", str(raw_file), "--qf", "95", "--K", "2",
                     "--key", "7", "--workers", str(workers),
                     "-o", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("command, option, message", [
    ("embed", ["--key", "xyz"], "key must be a hexadecimal number"),
    ("embed", ["--K", "0"],
     "alphabet half-width K must be an integer in 1..255, got 0"),
    ("capacity", ["--workers", "0"],
     "workers must be an integer in 1.., got 0"),
    ("embed", ["--key", "-1"],
     "key must be an integer in 0..18446744073709551615, got -1"),
    ("costs", ["--key", "1ffffffffffffffff"],
     "key must be an integer in 0..18446744073709551615, "
     "got 36893488147419103231"),
    ("costs", ["--K", "256"],
     "alphabet half-width K must be an integer in 1..255, got 256"),
    ("costs", ["--workers", "0"], "workers must be an integer in 1.., got 0"),
    ("pseudo-embed", ["--seed", "-1"],
     "seed must be an integer in 0..18446744073709551615, got -1"),
], ids=[  # stable names, independent of the messages' wording
    "embed-option0-key must be a hexadecimal number",
    "embed-option1-alphabet half-width K must be >= 1",
    "capacity-option2-workers must be >= 1",
    "embed-option3-key must be an integer in 0..2**64-1",
    "costs-option4-key must be an integer in 0..2**64-1",
    "costs-option5-alphabet half-width K must be <= 255",
    "costs-option6-workers must be >= 1",
    "pseudo-embed-option7-seed must be an integer in 0..2**64-1, got -1",
])
def test_bad_numeric_option_exits_cleanly(raw_file, tmp_path, caplog,
                                          command, option, message):
    out = tmp_path / "out"
    # pseudo-embed is the one command here that takes no quality factor.
    qf = [] if command == "pseudo-embed" else ["--qf", "95"]
    rc = main([command, str(raw_file), *qf, *option, "-o", str(out)])
    assert rc == 1
    assert f"error: {message}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    (["--bit-depth", "20"], "bit depth must be an integer in 1..16, got 20"),
    (["--sigma", "-1"], "sigma must be >= 0"),
    (["--a2", "nan"], "sensor parameter a2 must be finite"),
    (["--w", "-8"], "synthetic width must be an integer in 1.., got -8"),
    (["--mu", "nan"], "photo-site values must be finite"),
    (["--seed", "-1"],
     "seed must be an integer in 0..18446744073709551615, got -1"),
], ids=["bit-depth", "sigma", "a2", "width", "mu", "seed"])
def test_bad_synth_parameter_exits_cleanly(tmp_path, caplog, option, message):
    out = tmp_path / "raw.pgm"
    rc = main(["synth", "--kind", "iid", "--mu", "100", "--w", "16",
               "--h", "16", *option, "-o", str(out)])
    assert rc == 1
    assert f"error: {message}" in caplog.text
    assert not out.exists()


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pgm"
    # 20 is not a multiple of 8: synthesis must fail cleanly.
    with pytest.raises(SystemExit):
        main(["synth", "--kind", "constant", "--mu", "1", "--w", "20",
              "--h", "20"])  # missing -o as well
    path = tmp_path / "small.pgm"
    main(["synth", "--kind", "constant", "--mu", "100", "--w", "16",
          "--h", "16", "-o", str(path)])
    # Corrupt the sidecar and watch develop fail with exit code 1.
    (tmp_path / "small.pgm.json").write_text("{\"cfa\": \"XYZW\"}")
    rc = main(["develop", str(path), "--qf", "75",
               "-o", str(tmp_path / "c.jcns")])
    assert rc == 1


@pytest.mark.parametrize("command", [["develop"], ["embed", "--K", "3"]])
def test_empty_mosaic_exits_cleanly(tmp_path, caplog, command):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P5\n0 8\n4095\n")
    main(["synth", "--kind", "constant", "--mu", "100", "--w", "8",
          "--h", "8", "-o", str(tmp_path / "ok.pgm")])
    (tmp_path / "empty.pgm.json").write_text(
        (tmp_path / "ok.pgm.json").read_text())
    out = tmp_path / "out.jcns"
    rc = main([command[0], str(path), "--qf", "75", *command[1:],
               "-o", str(out)])
    assert rc == 1
    assert "error: image is empty (0x8 photo-sites)" in caplog.text
    assert not out.exists()


def test_negative_pgm_dimensions_exit_cleanly(tmp_path, caplog):
    path = tmp_path / "negative.pgm"
    path.write_bytes(b"P5\n-8 -8\n4095\n" + b"\x00" * 128)
    main(["synth", "--kind", "constant", "--mu", "100", "--w", "8",
          "--h", "8", "-o", str(tmp_path / "ok.pgm")])
    (tmp_path / "negative.pgm.json").write_text(
        (tmp_path / "ok.pgm.json").read_text())
    out = tmp_path / "out.jcns"
    rc = main(["develop", str(path), "--qf", "75", "-o", str(out)])
    assert rc == 1
    assert "error: negative PGM dimensions -8x-8" in caplog.text
    assert not out.exists()


def test_os_errors_exit_cleanly(tmp_path, caplog):
    # A missing input and an unwritable output are reported, not raised.
    missing = tmp_path / "missing.pgm"
    rc = main(["embed", str(missing), "--qf", "95", "-o",
               str(tmp_path / "x")])
    assert rc == 1
    assert f"error: [Errno 2] No such file or directory: '{missing}'" \
        in caplog.text
    out = tmp_path / "missing_dir" / "x.pgm"
    rc = main(["synth", "--kind", "constant", "--mu", "100", "--w", "16",
               "--h", "16", "-o", str(out)])
    assert rc == 1
    assert f"error: [Errno 2] No such file or directory: '{out}'" \
        in caplog.text


@pytest.mark.parametrize("argv", [
    ["develop", "r.pgm", "--qf", "90", "-o", "out"],
    ["covariance", "-o", "out"],
    *([cmd, "r.pgm", "--qf", "90", "-o", "out"]
      for cmd in ("embed", "capacity", "costs")),
])
def test_green_kernel_option_on_every_modelling_command(argv):
    parser = build_parser()
    assert parser.parse_args(argv).green_kernel == "cross"
    corner = parser.parse_args(argv + ["--green-kernel", "corner"])
    assert corner.green_kernel == "corner"
