import json
import shutil
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import segconv
from oracles import read_pgm
from segconv import hdc
from segconv.cli import EXIT_DIVERGED, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main

SCHEMAS = Path(segconv.__file__).parent / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out.splitlines()[-1]) if out else None)


def fails(capsys, code, *argv):
    """Run a verb that must fail with `code` and one line on stderr."""
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in lines[0]
    return lines[0]


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


# -- check ------------------------------------------------------------------


def test_check_valid_schedule(capsys):
    code, rep = run(capsys, "check", "--rates", "1,2,5", "--kernel", "3")
    assert code == EXIT_OK
    assert rep["M_values"] == [2, 5]
    assert rep["valid"] is True
    assert rep["gcd_flag"] is False


def test_check_invalid_schedule(capsys):
    code, rep = run(capsys, "check", "--rates", "1,2,9", "--kernel", "3")
    assert code == EXIT_INVALID
    assert rep["M_values"] == [5, 9]
    assert rep["valid"] is False


def test_check_gcd_flag(capsys):
    code, rep = run(capsys, "check", "--rates", "2,4,8", "--kernel", "3")
    assert code == EXIT_INVALID
    assert rep["gcd_flag"] is True


@pytest.mark.parametrize("rates", ["1,2,5", "1,2,9", "2,4,8", "1"])
def test_check_stdout_matches_schema(capsys, rates):
    _, rep = run(capsys, "check", "--rates", rates)
    jsonschema.validate(rep, schema("check_report.schema.json"))


def test_check_usage_error_on_bad_rates(capsys):
    assert main(["check", "--rates", "1,2,x"]) == EXIT_USAGE
    assert main(["check", "--rates", "0,2"]) == EXIT_USAGE
    assert main(["check"]) == EXIT_USAGE


# -- footprint ---------------------------------------------------------------


def test_footprint_pgm_checkerboard(tmp_path, capsys):
    out = tmp_path / "fp.pgm"
    code, rep = run(capsys, "footprint", "--rates", "2,2,2", "--out", str(out),
                    "--format", "pgm")
    assert code == EXIT_OK
    assert rep["holes"] == 120
    img = read_pgm(out)
    assert img.shape == (13, 13)
    ys, xs = np.nonzero(img)
    assert np.all(ys % 2 == 0) and np.all(xs % 2 == 0)


def test_footprint_hole_free_ramp(tmp_path, capsys):
    out = tmp_path / "fp.pgm"
    code, rep = run(capsys, "footprint", "--rates", "1,2,3", "--out", str(out),
                    "--format", "pgm")
    assert code == EXIT_OK
    assert rep["holes"] == 0
    assert np.all(read_pgm(out) > 0)


def test_footprint_single_rate1_all_ones(tmp_path, capsys):
    out = tmp_path / "fp.csv"
    code, rep = run(capsys, "footprint", "--rates", "1", "--out", str(out),
                    "--format", "csv")
    assert code == EXIT_OK
    assert out.read_text() == "1,1,1\n1,1,1\n1,1,1\n"


def test_footprint_json_report(tmp_path, capsys):
    out = tmp_path / "fp.json"
    code, _ = run(capsys, "footprint", "--rates", "1,2,5", "--out", str(out),
                  "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["M_values"] == [2, 5] and rep["holes"] == 0


@pytest.mark.parametrize("rates", ["1,2,5", "2,2,2"])
def test_footprint_stdout_matches_schema(tmp_path, capsys, rates):
    _, rep = run(capsys, "footprint", "--rates", rates,
                 "--out", str(tmp_path / "fp.pgm"))
    jsonschema.validate(rep, schema("footprint_summary.schema.json"))


def test_footprint_unwritable_out_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    msg = fails(capsys, EXIT_USAGE, "footprint", "--rates", "1,2,3",
                "--out", str(blocker / "fp.pgm"))
    assert msg.startswith("i/o error:")


# -- rf / search ---------------------------------------------------------------


def test_rf_reports_increase(capsys):
    code, rep = run(capsys, "rf", "--rates", "1,2,3", "--kernel", "3")
    assert code == EXIT_OK
    assert rep["rf_increase"] == 12
    assert rep["per_layer"] == [2, 4, 6]


@pytest.mark.parametrize("rates,kernel", [("1,2,3", "3"), ("1", "5"), ("2,4,8", "7")])
def test_rf_stdout_matches_schema(capsys, rates, kernel):
    _, rep = run(capsys, "rf", "--rates", rates, "--kernel", kernel)
    jsonschema.validate(rep, schema("rf_report.schema.json"))


@pytest.mark.parametrize("kernel", ["1", "2", "4"])
def test_rf_rejects_kernel_like_check(capsys, kernel):
    msg = fails(capsys, EXIT_USAGE, "rf", "--rates", "1,2,3", "--kernel", kernel)
    assert f"got {kernel}" in msg


def test_search_includes_canonical_ramp(capsys):
    code, rep = run(capsys, "search", "--layers", "3", "--kernel", "3",
                    "--rf-target", "12")
    assert code == EXIT_OK
    assert {"rates": [1, 2, 3], "rf_increase": 12} in rep["schedules"]


def test_search_empty_result_still_succeeds(capsys):
    code, rep = run(capsys, "search", "--layers", "2", "--kernel", "3",
                    "--rf-target", "50")
    assert code == EXIT_OK
    assert rep["schedules"] == []


@pytest.mark.parametrize("layers,rf_target", [("2", "50"), ("3", str(10**12))])
def test_search_past_the_rf_bound_is_empty_before_any_work(capsys, monkeypatch,
                                                          layers, rf_target):
    # rf_target > 3**layers - 1: no tuple is enumerated, and the size limit
    # (10**24 tuples for the second) does not apply
    monkeypatch.setattr(hdc, "max_distance", None)
    code, rep = run(capsys, "search", "--layers", layers, "--kernel", "3",
                    "--rf-target", rf_target)
    assert code == EXIT_OK
    assert rep["schedules"] == []


@pytest.mark.parametrize("layers,rf_target", [("5", "100"), (str(10**9), "100"),
                                              (str(10**9), "1"), ("25", "1")])
def test_search_over_the_size_limit_is_refused_before_any_work(capsys, monkeypatch,
                                                                layers, rf_target):
    monkeypatch.setattr(hdc, "max_distance", None)
    msg = fails(capsys, EXIT_USAGE, "search", "--layers", layers, "--kernel", "3",
                "--rf-target", rf_target)
    assert msg == (f"usage error: search of {rf_target}**{layers} candidate tuples is "
                   f"over the limit of {hdc.SEARCH_MAX_TUPLES} tuples and "
                   f"{hdc.SEARCH_MAX_LAYERS} layers")


@pytest.mark.parametrize("layers,rf_target", [("3", "12"), ("2", "50")])
def test_search_stdout_matches_schema(capsys, layers, rf_target):
    _, rep = run(capsys, "search", "--layers", layers, "--kernel", "3",
                 "--rf-target", rf_target)
    jsonschema.validate(rep, schema("search_report.schema.json"))


def test_search_results_pass_check(capsys):
    code, rep = run(capsys, "search", "--layers", "2", "--kernel", "3",
                    "--rf-target", "6")
    assert code == EXIT_OK and rep["schedules"]
    for entry in rep["schedules"]:
        rates = ",".join(str(r) for r in entry["rates"])
        recheck, _ = run(capsys, "check", "--rates", rates, "--kernel", "3")
        assert recheck == EXIT_OK


# -- duc-demo -------------------------------------------------------------------


def test_duc_demo_reports_equivalences(capsys):
    code, rep = run(capsys, "duc-demo", "--d", "4", "--classes", "3",
                    "--seed", "11")
    assert code == EXIT_OK
    assert rep["rearrange_roundtrip_ok"] is True
    assert rep["matches_transposed_conv"] is True
    assert rep["conv_channels"] == 16 * 3


@pytest.mark.parametrize("flags,features,output", [
    ((), [1, 8, 4, 4], [1, 3, 16, 16]),
    (("--cell", "2", "--size", "5"), [1, 8, 5, 5], [1, 3, 10, 10]),
    (("--d", "2", "--classes", "4", "--channels", "3"), [1, 3, 4, 4], [1, 4, 8, 8]),
])
def test_duc_demo_stdout_matches_schema(capsys, flags, features, output):
    code, rep = run(capsys, "duc-demo", *flags)
    assert code == EXIT_OK
    jsonschema.validate(rep, schema("duc_demo_report.schema.json"))
    assert rep["feature_shape"] == features and rep["output_shape"] == output


# -- train / eval -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "train"
    code = main(["train", "--decoder", "duc", "--schedule", "1,2,3", "--d", "4",
                 "--seed", "0", "--iters", "40", "--train-size", "4",
                 "--size", "16", "--out", str(out)])
    assert code == EXIT_OK
    return out


def test_train_writes_artifacts(trained_dir):
    assert (trained_dir / "loss_curve.csv").exists()
    assert (trained_dir / "config.json").exists()
    assert (trained_dir / "net" / "net.json").exists()
    lines = (trained_dir / "loss_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,lr,loss"
    assert len(lines) == 41


def test_eval_runs_on_trained_net(trained_dir, tmp_path, capsys):
    code, rep = run(capsys, "eval", "--net", str(trained_dir),
                    "--eval-size", "3", "--size", "16",
                    "--out", str(tmp_path / "eval"))
    assert code == EXIT_OK
    assert len(rep["per_class_iou"]) == 3
    assert (tmp_path / "eval" / "metrics.csv").exists()


def test_eval_oracle_mode_gives_perfect_miou(trained_dir, tmp_path, capsys):
    code, rep = run(capsys, "eval", "--net", str(trained_dir), "--oracle",
                    "--eval-size", "3", "--size", "16",
                    "--out", str(tmp_path / "eval"))
    assert code == EXIT_OK
    assert rep["miou"] == 1.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_eval_stdout_is_strict_json_when_a_class_is_absent(tmp_path, capsys):
    # class 3 never occurs in the generated labels, so with --oracle it is
    # absent from labels and predictions alike and its IoU is undefined
    out = tmp_path / "untrained"
    assert main(["train", "--iters", "0", "--classes", "4", "--train-size", "1",
                 "--size", "16", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--net", str(out), "--oracle", "--classes", "4",
                 "--eval-size", "2", "--size", "16",
                 "--out", str(tmp_path / "eval")]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rep["per_class_iou"] == [1.0, 1.0, 1.0, None]
    assert rep["miou"] == 1.0
    jsonschema.validate(rep, schema("eval_report.schema.json"))


@pytest.mark.parametrize("iters", ["0", "3"])
def test_train_and_eval_stdout_match_schemas(tmp_path, capsys, iters):
    out = tmp_path / "t"
    code, rep = run(capsys, "train", "--decoder", "deconv", "--iters", iters,
                    "--train-size", "2", "--size", "16", "--out", str(out))
    assert code == EXIT_OK
    jsonschema.validate(rep, schema("train_report.schema.json"))
    for extra in ((), ("--oracle",)):
        code, rep = run(capsys, "eval", "--net", str(out), "--eval-size", "2",
                        "--size", "16", "--out", str(tmp_path / "eval"), *extra)
        assert code == EXIT_OK
        jsonschema.validate(rep, schema("eval_report.schema.json"))


def test_train_zero_iters_evaluates_near_chance(tmp_path, capsys):
    out = tmp_path / "untrained"
    code, rep = run(capsys, "train", "--decoder", "bilinear", "--iters", "0",
                    "--train-size", "2", "--size", "16", "--out", str(out))
    assert code == EXIT_OK
    assert rep["final_loss"] is None
    code, rep = run(capsys, "eval", "--net", str(out), "--eval-size", "4",
                    "--size", "16", "--out", str(tmp_path / "eval"))
    assert code == EXIT_OK
    assert rep["miou"] < 0.5


def test_dump_data_writes_pgm_pairs(tmp_path):
    out = tmp_path / "t"
    dump = tmp_path / "dump"
    code = main(["train", "--iters", "1", "--train-size", "2", "--size", "16",
                 "--out", str(out), "--dump-data", str(dump)])
    assert code == EXIT_OK
    assert (dump / "sample0000_img.pgm").exists()
    assert (dump / "sample0001_lab.pgm").exists()
    assert read_pgm(dump / "sample0000_lab.pgm").shape == (16, 16)


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEGCONV_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code, rep = run(capsys, "footprint", "--rates", "1", "--format", "csv")
    assert code == EXIT_OK
    assert rep["out"].startswith(str(tmp_path / "envout"))


def test_train_kernel_sets_the_dilated_body_kernel(tmp_path):
    out = tmp_path / "k5"
    assert main(["train", "--kernel", "5", "--iters", "1", "--train-size", "2",
                 "--size", "16", "--out", str(out)]) == EXIT_OK
    topo = json.loads((out / "net" / "net.json").read_text())
    stem, body = topo["encoder"][:2], topo["encoder"][2:]
    assert [e["r"] for e in body] == [1, 2, 3]
    assert all(e["k"] == 5 and e["pad"] == 2 * e["r"] for e in body)
    assert all(e["k"] == 3 for e in stem + topo["decoder_layers"])


def test_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--decoder", "duc", "--seed", "7", "--iters", "25",
                     "--train-size", "3", "--size", "16", "--out", str(out)])
        assert code == EXIT_OK
        outs.append(out)
    for rel in ("loss_curve.csv", "config.json", "net/net.json", "net/enc0.bin",
                "net/dec0.bin"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


# -- train / eval failures ----------------------------------------------------------


def test_train_size_not_multiple_of_d_fails_before_work(tmp_path, capsys):
    out = tmp_path / "t"
    msg = fails(capsys, EXIT_USAGE, "train", "--size", "18", "--d", "4",
                "--out", str(out))
    assert "--size 18" in msg and "d=4" in msg
    assert not out.exists()


@pytest.mark.parametrize("flags,needle", [
    (("--train-size", "0"), "--train-size"),
    (("--batch", "0"), "batch"),
    (("--iters", "-1"), "--iters"),
])
def test_train_bad_sizes_fail_before_work(tmp_path, capsys, flags, needle):
    out = tmp_path / "t"
    msg = fails(capsys, EXIT_USAGE, "train", *flags, "--size", "16", "--out", str(out))
    assert needle in msg
    least = 0 if flags[0] == "--iters" else 1
    assert msg == f"usage error: {flags[0]} must be >= {least}, got {flags[1]}"
    assert not out.exists()


@pytest.mark.parametrize("verb,flags,problem", [
    ("train", ("--thickness", "0"), "thickness must be >= 1"),
    ("train", ("--classes", "2"),
     "generator needs >= 3 classes (background, thin, blob)"),
    ("eval", ("--thickness", "0"), "thickness must be >= 1"),
    ("train", ("--thickness", "17"), "thickness 17 does not fit a 16x16 image"),
    ("eval", ("--thickness", "17"), "thickness 17 does not fit a 16x16 image"),
])
def test_bad_data_flags_fail_before_out_dir(trained_dir, tmp_path, capsys, verb,
                                            flags, problem):
    out = tmp_path / "out"
    net = ("--net", str(trained_dir)) if verb == "eval" else ()
    msg = fails(capsys, EXIT_USAGE, verb, *net, *flags, "--size", "16",
                "--out", str(out))
    assert msg == f"usage error: {problem}"
    assert not out.exists()


def test_train_divergence_has_its_own_exit_code(tmp_path, capsys):
    out, dump = tmp_path / "t", tmp_path / "dump"
    msg = fails(capsys, EXIT_DIVERGED, "train", "--lr", "1e8", "--iters", "300",
                "--train-size", "1", "--size", "16", "--out", str(out),
                "--dump-data", str(dump))
    assert msg.startswith("training diverged: non-finite loss at iteration")
    assert not out.exists() and not dump.exists()


def test_train_divergence_in_the_last_step_writes_no_net(tmp_path, capsys):
    # one step at lr 1e308 leaves infinite parameters but no loss to show it
    out = tmp_path / "t"
    msg = fails(capsys, EXIT_DIVERGED, "train", "--lr", "1e308", "--iters", "1",
                "--train-size", "1", "--size", "16", "--out", str(out))
    assert msg.startswith("training diverged: non-finite parameter ")
    assert msg.endswith(" after the step at iteration 0 (lr=1e+308)")
    assert not (out / "net").exists()


@pytest.mark.parametrize("flag,value,field", [
    ("--lr", "nan", "base_lr"),
    ("--lr", "inf", "base_lr"),
    ("--weight-decay", "nan", "weight_decay"),
])
def test_non_finite_sgd_flags_fail_before_out_dir(tmp_path, capsys, flag, value, field):
    out = tmp_path / "t"
    msg = fails(capsys, EXIT_USAGE, "train", flag, value, "--iters", "0",
                "--size", "16", "--out", str(out))
    assert msg == f"usage error: {field} must be finite, got {value}"
    assert not out.exists()


@pytest.mark.parametrize("flags,needle", [
    (("--size", "30"), "--size 30"),
    (("--classes", "5"), "--classes 5"),
])
def test_eval_geometry_mismatch_fails_before_work(trained_dir, tmp_path, capsys,
                                                  flags, needle):
    out = tmp_path / "eval"
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(trained_dir),
                "--eval-size", "2", "--out", str(out), *flags)
    assert needle in msg
    assert not out.exists()


def test_eval_empty_eval_set_fails_before_work(trained_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(trained_dir),
                "--eval-size", "0", "--size", "16", "--out", str(out))
    assert "--eval-size" in msg
    assert not out.exists()


def test_eval_missing_net_dir_is_io_error(tmp_path, capsys):
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(tmp_path / "absent"),
                "--out", str(tmp_path / "eval"))
    assert msg.startswith("i/o error:")


@pytest.mark.parametrize("corrupt,problem", [
    (lambda net: (net / "enc0.bin").write_bytes((net / "enc0.bin").read_bytes()[:100]),
     "tensor blob has 100 bytes, expected 592"),
    (lambda net: shutil.copy(net / "enc1.bin", net / "enc0.bin"),
     "weight shape (16, 8, 3, 3) != (8, 1, 3, 3)"),
    (lambda net: (net / "enc0.bin").write_bytes((net / "enc0.bin").read_bytes()[:-8]
                                                + np.float64(np.nan).tobytes()),
     "weights hold a non-finite value"),
], ids=["truncated", "wrong_shape", "nan_weight"])
def test_eval_corrupt_weight_file_names_it(trained_dir, tmp_path, capsys, corrupt,
                                           problem):
    net = tmp_path / "net"
    shutil.copytree(trained_dir / "net", net)
    corrupt(net)
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(net), "--size", "16",
                "--out", str(tmp_path / "eval"))
    assert msg == f"usage error: {net / 'enc0.bin'}: {problem}"
    assert not (tmp_path / "eval").exists()


def _drop_last_decoder_layer(topo):
    topo["decoder_layers"].pop()


def _change_body_rate(topo):
    topo["encoder"][2]["r"] += 1


@pytest.mark.parametrize("edit", [
    lambda topo: topo.update(width=4),
    lambda topo: topo.update(d=3),
    lambda topo: topo.update(img_channels=3),
    _drop_last_decoder_layer,
    _change_body_rate,
], ids=["width", "d", "img_channels", "fewer_decoder_layers", "body_rate"])
def test_eval_net_json_that_its_topology_does_not_build_names_it(
        trained_dir, tmp_path, capsys, edit):
    net = tmp_path / "net"
    shutil.copytree(trained_dir / "net", net)
    topo = json.loads((net / "net.json").read_text())
    edit(topo)
    (net / "net.json").write_text(json.dumps(topo))
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(net), "--size", "16",
                "--out", str(tmp_path / "eval"))
    assert msg.startswith(f"usage error: malformed {net / 'net.json'}: ")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_eval_non_finite_bias_in_net_json_names_it(trained_dir, tmp_path, capsys, value):
    # Python's json reads Infinity and NaN
    net = tmp_path / "net"
    shutil.copytree(trained_dir / "net", net)
    topo = json.loads((net / "net.json").read_text())
    topo["encoder"][0]["bias"][0] = value
    (net / "net.json").write_text(json.dumps(topo))
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(net), "--size", "16",
                "--out", str(tmp_path / "eval"))
    assert msg.startswith(f"usage error: malformed {net / 'net.json'}: ")
    assert "enc0 bias holds a non-finite value" in msg
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("field, value", [("rates", [1, 2.7, 3]), ("kernel", 3.0)])
def test_eval_non_integer_schedule_in_net_json_names_it(trained_dir, tmp_path, capsys,
                                                        field, value):
    # a float rate was once truncated to the int the encoder entries hold
    net = tmp_path / "net"
    shutil.copytree(trained_dir / "net", net)
    topo = json.loads((net / "net.json").read_text())
    topo["schedule"][field] = value
    (net / "net.json").write_text(json.dumps(topo))
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(net), "--size", "16",
                "--out", str(tmp_path / "eval"))
    assert msg.startswith(f"usage error: malformed {net / 'net.json'}: ")
    assert f"{field} must be" in msg
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("text", ["{", '{"d": 4,', "{}", '{"schedule": 3}',
                                  b"\xff\xfe", '{"decoder": "d\u00fcc"}'.encode()])
def test_eval_malformed_net_json_is_usage_error(trained_dir, tmp_path, capsys, text):
    # not JSON, not ASCII, or not a topology: each names the file
    net = tmp_path / "net"
    shutil.copytree(trained_dir / "net", net)
    (net / "net.json").write_bytes(text.encode() if isinstance(text, str) else text)
    msg = fails(capsys, EXIT_USAGE, "eval", "--net", str(net), "--size", "16",
                "--out", str(tmp_path / "eval"))
    assert msg.startswith(f"usage error: malformed {net / 'net.json'}: ")
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_out_of_memory_is_one_line(trained_dir, tmp_path, capsys, monkeypatch, verb):
    # a net too wide to allocate fails in he_init; raising there stands in for
    # the allocation, never made for real: with memory overcommit a huge
    # request can get the process killed instead of raising
    def no_memory(shape, fan_in, rng):
        raise MemoryError(f"Unable to allocate 7.45 TiB for an array with shape {shape}")

    monkeypatch.setattr("segconv.conv.he_init", no_memory)
    out = tmp_path / "out"
    net = ("--net", str(trained_dir)) if verb == "eval" else ("--channels", "100000")
    msg = fails(capsys, EXIT_USAGE, verb, *net, "--size", "16", "--out", str(out))
    assert msg.startswith("out of memory: Unable to allocate 7.45 TiB")
    assert not out.exists()
