import json
import logging
import math

import numpy as np
import pytest

from softplex import UniformBox, build_cech, sample_binomial, soft_thin
from softplex.cli import main
from softplex.experiments import normalize


def strict_json(text):
    """json.loads that refuses NaN and infinities, which no artifact may hold."""
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def write_config(path, **overrides):
    config = {
        "model": "rips",
        "process": "binomial",
        "n": 300,
        "d": 1,
        "k_max": 2,
        "replications": 10,
        "master_seed": 5,
        "statistic": {"kind": "fk", "k": 1},
        "r": 0.003,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_regime_prints_report(capsys):
    code = main(["regime", "--n", "1e6", "--d", "1", "--a", "1.1", "--k", "1"])
    assert code == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["quantities"]["nr^d"] == pytest.approx(10.0 ** (-0.6))
    assert payload["quantities"]["growth_k1"] == pytest.approx(10.0**5.4)


def test_regime_requires_one_radius_rule():
    assert main(["regime", "--n", "1e4", "--d", "1", "--k", "1"]) == 1
    assert main(["regime", "--n", "1e4", "--d", "1", "--k", "1",
                 "--a", "1.1", "--r", "0.5"]) == 1


def test_sample_writes_csv(tmp_path):
    out = tmp_path / "pts.csv"
    code = main(["sample", "--n", "10", "--density", "uniform", "--d", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "x0,x1"
    assert len(lines) == 12
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert values.shape == (10, 2)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_sample_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["sample", "--n", "50", "--d", "1", "--seed", "9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_dumps_faces_per_dimension(tmp_path):
    prefix = tmp_path / "cx"
    code = main(["build", "--n", "40", "--r", "0.2", "--kmax", "2", "--d", "2",
                 "--seed", "3", "--out", str(prefix)])
    assert code == 0
    edges = (tmp_path / "cx.edges.csv").read_text().strip().splitlines()
    assert edges[1] == "i,j"
    dim1 = (tmp_path / "cx.dim1.csv").read_text().strip().splitlines()
    assert dim1[1] == "v0,v1"
    assert len(dim1) == len(edges)
    assert (tmp_path / "cx.dim0.csv").exists()
    assert (tmp_path / "cx.dim2.csv").exists()


def test_build_cech_thinned_matches_two_pass_oracle(tmp_path):
    prefix = tmp_path / "cx"
    assert main(["build", "--model", "cech", "--n", "150", "--r", "0.2", "--kmax", "3",
                 "--d", "2", "--rho", "0.7,0.7,0.7", "--seed", "4", "--out", str(prefix)]) == 0
    cloud = sample_binomial(150, UniformBox(lo=[0.0, 0.0], hi=[1.0, 1.0]), 4)
    oracle = soft_thin(build_cech(cloud, 0.2, 3), (0.7, 0.7, 0.7), 4)
    assert oracle.face_vector()[3] > 0
    for dim, faces in enumerate(oracle.faces_by_dim):
        rows = (tmp_path / f"cx.dim{dim}.csv").read_text().strip().splitlines()[2:]
        assert rows == [",".join(map(str, face)) for face in faces.tolist()]


def test_constants_subcommand_writes_json(tmp_path):
    out = tmp_path / "mu.json"
    code = main(["constants", "--kind", "mu", "--k", "1", "--d", "1",
                 "--samples", "1e4", "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = strict_json(out.read_text())
    assert payload["value"] == pytest.approx(1.0)
    assert payload["samples"] == 10_000
    assert payload["params"]["kind"] == "mu"


def test_constants_past_the_gamma_overflow(tmp_path):
    # d = 400 used to end in an OverflowError from Gamma(201)
    out = tmp_path / "mu.json"
    assert main(["constants", "--kind", "mu", "--k", "1", "--d", "400",
                 "--samples", "10", "--out", str(out)]) == 0
    payload = strict_json(out.read_text())
    log_volume = 200.0 * math.log(math.pi) - math.lgamma(201.0)
    assert payload["value"] == pytest.approx(0.5 * math.exp(log_volume), rel=1e-12)
    assert payload["stderr"] == 0.0


def test_constants_pair_requires_l_and_j(tmp_path):
    out = tmp_path / "phi.json"
    assert main(["constants", "--kind", "phi", "--k", "1", "--d", "1",
                 "--samples", "100", "--out", str(out)]) == 1
    assert main(["constants", "--kind", "phi", "--k", "1", "--l", "1", "--j", "1",
                 "--d", "1", "--samples", "100", "--out", str(out)]) == 0


def test_constants_face_kind_refuses_l_and_j(tmp_path):
    out = tmp_path / "mu.json"
    assert main(["constants", "--kind", "mu", "--k", "1", "--l", "7", "--j", "9", "--d", "1",
                 "--samples", "100", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_constants_rejects_nonpositive_samples_for_every_kind(tmp_path, samples):
    out = tmp_path / "c.json"
    for kind, pair in (("mu", []), ("nu", []), ("phi", ["--l", "1", "--j", "1"]),
                       ("theta", ["--l", "1", "--j", "1"])):
        assert main(["constants", "--kind", kind, "--k", "1", *pair, "--d", "1",
                     f"--samples={samples}", "--out", str(out)]) == 1
        assert not out.exists()


def test_experiment_run_and_report_round_trip(tmp_path):
    config = write_config(tmp_path / "exp.json")
    results = tmp_path / "res.csv"
    report = tmp_path / "rep.json"
    assert main(["experiment", "run", "--config", str(config),
                 "--out", str(results)]) == 0
    lines = results.read_text().strip().splitlines()
    assert lines[1] == "rep,f0,f1,f2,chi,n_points"
    assert len(lines) == 12
    assert main(["experiment", "report", "--config", str(config),
                 "--in", str(results), "--out", str(report)]) == 0
    payload = strict_json(report.read_text())
    assert payload["config"]["n"] == 300.0
    assert "ks_distance" in payload["report"]
    qq = (tmp_path / "rep.qq.csv").read_text().strip().splitlines()
    assert qq[1] == "theoretical,empirical"
    assert len(qq) == 12


@pytest.mark.parametrize(("overrides", "column"), [
    ({}, "f1"),
    # binomial n = 5 on the unit line at r = 2: every replication is K_5, chi = 5 - 10
    ({"n": 5, "k_max": 1, "r": 2.0, "statistic": {"kind": "chi"}}, "chi"),
])
def test_experiment_report_qq_column_is_the_normalized_sample(tmp_path, overrides, column):
    config = write_config(tmp_path / "exp.json", **overrides)
    results = tmp_path / "res.csv"
    assert main(["experiment", "run", "--config", str(config), "--out", str(results)]) == 0
    assert main(["experiment", "report", "--config", str(config), "--in", str(results),
                 "--out", str(tmp_path / "rep.json")]) == 0
    rows = [line.split(",") for line in results.read_text().strip().splitlines()[1:]]
    samples = np.sort([float(row[rows[0].index(column)]) for row in rows[1:]])
    if column == "chi":
        assert set(samples.tolist()) == {-5.0}
        expected = ["-0.0"] * len(samples)  # a constant statistic: z = sample * 0.0
    else:
        expected = [repr(float(v)) for v in normalize(samples)]
    qq = (tmp_path / "rep.qq.csv").read_text().strip().splitlines()[2:]
    assert [line.split(",")[1] for line in qq] == expected


@pytest.mark.parametrize("retention", [{"rho": [0.5]}, {"rho_exponents": [-0.5, 0.0, 0.0]}])
def test_experiment_report_rejects_bad_retention_at_parse(tmp_path, retention):
    # a rho too short for k_max, or a rule giving p_1 = 300^0.5 > 1
    results = tmp_path / "res.csv"
    report = tmp_path / "rep.json"
    good = write_config(tmp_path / "good.json", k_max=3, rho=[0.5, 0.5, 0.5])
    assert main(["experiment", "run", "--config", str(good), "--out", str(results)]) == 0
    bad = write_config(tmp_path / "bad.json", k_max=3, **retention)
    for command in (["run", "--out", str(tmp_path / "x.csv")],
                    ["report", "--in", str(results), "--out", str(report)]):
        assert main(["experiment", command[0], "--config", str(bad), *command[1:]]) == 1
    assert not report.exists()


def test_experiment_missing_config_exits_one(tmp_path):
    code = main(["experiment", "run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_experiment_malformed_json_reports_location(tmp_path, caplog):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "rips",\n  "process": }')
    code = main(["experiment", "run", "--config", str(bad),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "line 2" in caplog.text and "column" in caplog.text


def test_experiment_unknown_config_key_exits_one(tmp_path):
    config = write_config(tmp_path / "exp.json", surprise=1)
    code = main(["experiment", "run", "--config", str(config),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_experiment_memory_guard_exits_two(tmp_path):
    config = write_config(tmp_path / "exp.json", n=50_000, r=0.5, k_max=4)
    code = main(["experiment", "run", "--config", str(config),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_experiment_overrides_take_precedence(tmp_path):
    config = write_config(tmp_path / "exp.json")
    out = tmp_path / "res.csv"
    assert main(["experiment", "run", "--config", str(config), "--out", str(out),
                 "--n", "123", "--kmax", "1"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "rep,f0,f1,chi,n_points"
    assert lines[2].split(",")[1] == "123"
    # the embedded provenance reflects the resolved values
    embedded = strict_json(lines[0][len("# config "):])
    assert embedded["n"] == 123.0 and embedded["k_max"] == 1


def test_experiment_threads_do_not_change_bytes(tmp_path):
    config = write_config(tmp_path / "exp.json", replications=8)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["experiment", "run", "--config", str(config), "--out", str(a),
                 "--threads", "1"]) == 0
    assert main(["experiment", "run", "--config", str(config), "--out", str(b),
                 "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_constants_threads_do_not_change_output(tmp_path):
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"nu_{threads}.json"
        assert main(["constants", "--kind", "nu", "--k", "2", "--d", "2",
                     "--samples", "2e6", "--seed", "6", "--threads", threads,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_threads_env_fallback(tmp_path, monkeypatch):
    config = write_config(tmp_path / "exp.json", replications=6)
    for env in ("2", "2e0"):  # the variable takes the notations of --threads
        monkeypatch.setenv("SOFTPLEX_THREADS", env)
        out = tmp_path / f"res-{env}.csv"
        assert main(["experiment", "run", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists()


COUNT_FLAGS = ("--d", "--kmax", "--k", "--l", "--j", "--threads")


@pytest.mark.parametrize("command", [
    ["sample", "--n", "5", "--d", "2"],
    ["build", "--n", "30", "--r", "0.2", "--kmax", "2", "--d", "2"],
    ["constants", "--kind", "theta", "--k", "2", "--l", "2", "--j", "2", "--d", "2",
     "--samples", "500", "--threads", "2"],
    ["experiment", "run", "--kmax", "1", "--threads", "2"],
    ["regime", "--n", "1e4", "--d", "1", "--a", "1.1", "--k", "1"],
], ids=["sample", "build", "constants", "experiment-run", "regime"])
def test_count_flags_take_scientific_notation(tmp_path, capsys, command):
    # "2e0" is the count 2, with the same artifact bytes; a fraction exits 1
    if command[0] == "experiment":
        command = [*command, "--config", str(write_config(tmp_path / "exp.json"))]

    def artifacts(form):
        argv = [form.format(value) if flag in COUNT_FLAGS else value
                for flag, value in zip([None, *command], command)]
        out = tmp_path / form.replace("{}", "v")
        code = main(argv if command[0] == "regime" else [*argv, "--out", str(out)])
        files = sorted(tmp_path.glob(f"{out.name}*"))
        return code, capsys.readouterr().out, [path.read_bytes() for path in files]

    code, stdout, files = artifacts("{}")
    assert code == 0 and (stdout or files)
    assert artifacts("{}e0") == (0, stdout, files)
    assert artifacts("{}.5")[0] == 1


@pytest.mark.parametrize("flag,env", [(["--threads", "0"], None), (["--threads", "-3"], None),
                                      ([], "abc"), ([], "0"), ([], "2.5")])
def test_bad_thread_count_exits_one(tmp_path, monkeypatch, caplog, flag, env):
    if env is not None:
        monkeypatch.setenv("SOFTPLEX_THREADS", env)
    config = write_config(tmp_path / "exp.json", replications=2)
    out = tmp_path / "res.csv"
    assert main(["experiment", "run", "--config", str(config), "--out", str(out), *flag]) == 1
    assert not out.exists()
    assert ("--threads" if flag else "SOFTPLEX_THREADS") in caplog.text


BAD_CSVS = {"bad.csv": "rep,f0,f1,f2,chi,n_points\n0,300,2,x,298,300\n",
            "short.csv": "rep,f0,f1,f2,chi,n_points\n0,0,0\n"}
RUN = ["experiment", "run", "--config", "exp.json", "--out", "out.csv"]
# exp.json's defaults with the rule r^d = n^-a in place of r, inline
EXPONENT_RULE = ('{"model": "rips", "process": "binomial", "n": 300, "d": 1, "k_max": 2, '
                 '"replications": 10, "master_seed": 5, "statistic": {"kind": "fk", "k": 1}, '
                 '"r_exponent": %s}')


def constants_on(density: dict) -> list:
    d = len(density.get("mean", density.get("lo")))
    return ["constants", "--kind", "mu", "--k", "2", "--d", str(d), "--samples", "100",
            "--out", "out.json", "--density", json.dumps(density)]


MALFORMED = {
    # argv, and the overrides of the experiment config exp.json
    "sample-n-inf": (["sample", "--n", "inf", "--out", "out.csv"], {}),
    "sample-n-overflow": (["sample", "--n", "1e400", "--out", "out.csv"], {}),
    "sample-poisson-n-huge": (["sample", "--poisson", "--n", "1e300", "--out", "out.csv"], {}),
    "constants-samples-inf": (["constants", "--kind", "mu", "--k", "1", "--d", "1",
                               "--samples", "inf", "--out", "out.json"], {}),
    "config-n-string": (RUN, {"n": "abc"}),
    "config-d-string": (RUN, {"d": "x"}),
    "config-rho-scalar": (RUN, {"rho": 0.5}),
    "config-statistic-k-string": (RUN, {"statistic": {"kind": "fk", "k": "a"}}),
    "config-density-lo-string": (RUN, {"density": {"kind": "uniform-box", "lo": "ab",
                                                   "hi": [1.0]}}),
    "density-lo-string": (["sample", "--n", "5", "--out", "out.csv", "--density",
                           '{"kind": "uniform-box", "lo": "ab", "hi": [1.0]}'], {}),
    "config-d-overflow": (RUN, {"d": 1e400}),
    "config-n-nan": (RUN, {"n": float("nan")}),
    "config-density-kind-list": (RUN, {"density": {"kind": [], "lo": [0.0], "hi": [1.0]}}),
    "config-r-zero": (RUN, {"r": 0}),
    "config-r-negative": (RUN, {"r": -0.5}),
    "config-d-fraction": (RUN, {"d": 1.5}),
    "config-k_max-fraction": (RUN, {"k_max": 2.5}),
    "config-replications-fraction": (RUN, {"replications": 10.5}),
    "config-master_seed-fraction": (RUN, {"master_seed": 5.5}),
    "config-statistic-k-fraction": (RUN, {"statistic": {"kind": "fk", "k": 1.2}}),
    "config-binomial-n-fraction": (RUN, {"n": 100.5}),
    "config-n-numeric-string": (RUN, {"n": "300"}),
    "config-poisson-n-bool": (RUN, {"process": "poisson", "n": True}),
    "config-max_predicted_faces-string": (RUN, {"max_predicted_faces": "1e3"}),
    "config-rho-entry-string": (RUN, {"rho": ["0.5", 1.0]}),
    "regime-rho-above-one": (["regime", "--n", "100", "--d", "1", "--r", "0.1", "--k", "1",
                              "--rho", "2,2"], {}),
    "regime-n-zero": (["regime", "--n", "0", "--d", "1", "--a", "1.1", "--k", "1"], {}),
    "regime-n-negative": (["regime", "--n", "-5", "--d", "1", "--r", "0.1", "--k", "1"], {}),
    "regime-d-zero": (["regime", "--n", "100", "--d", "0", "--a", "1.1", "--k", "1"], {}),
    "regime-r-inf": (["regime", "--n", "100", "--d", "1", "--r", "inf", "--k", "1"], {}),
    "constants-d-zero": (["constants", "--kind", "mu", "--k", "1", "--d", "0",
                          "--samples", "100", "--out", "out.json"], {}),
    "sample-d-zero": (["sample", "--n", "5", "--d", "0", "--out", "out.csv"], {}),
    "report-non-integer-cell": (["experiment", "report", "--config", "exp.json",
                                 "--in", "bad.csv", "--out", "out.json"], {}),
    "report-short-row": (["experiment", "report", "--config", "exp.json",
                          "--in", "short.csv", "--out", "out.json"], {}),
    "missing-density-file": (["sample", "--n", "5", "--density", "missing.json",
                              "--out", "out.csv"], {}),
    "out-in-missing-directory": (["sample", "--n", "5", "--out", "missing/out.csv"], {}),
    # each row below exited 0 or with a traceback before the real and box rules
    "config-r-inf": (RUN, {"r": float("inf")}),
    "config-max_predicted_faces-nan": (RUN, {"max_predicted_faces": float("nan")}),
    "config-r_exponent-radius-zero": (["experiment", "run", "--config", EXPONENT_RULE % "1e308",
                                       "--out", "out.csv"], {}),
    "config-r_exponent-radius-overflow": (["experiment", "run", "--config",
                                           EXPONENT_RULE % "-1e308", "--out", "out.csv"], {}),
    "constants-uniform-hi-inf": (constants_on(
        {"kind": "uniform-box", "lo": [0.0], "hi": [float("inf")]}), {}),
    "constants-uniform-span-overflow": (constants_on(
        {"kind": "uniform-box", "lo": [-1e308], "hi": [1e308]}), {}),
    "constants-gaussian-mean-inf": (constants_on(
        {"kind": "gaussian-isotropic", "mean": [float("inf")], "sigma": 1.0}), {}),
    "constants-gaussian-sigma-inf": (constants_on(
        {"kind": "gaussian-isotropic", "mean": [0.0], "sigma": float("inf")}), {}),
    "constants-grid-weight-inf": (constants_on({"kind": "piecewise-constant-grid", "lo": [0.0],
                                                "hi": [1.0], "weights": [1.0, float("inf")]}), {}),
    "constants-uniform-volume-zero": (constants_on(
        {"kind": "uniform-box", "lo": [0.0] * 10, "hi": [1e-40] * 10}), {}),
    "config-uniform-hi-inf": (RUN, {"density": {"kind": "uniform-box", "lo": [0.0],
                                                "hi": [float("inf")]}}),
    "config-gaussian-sigma-inf": (RUN, {"density": {"kind": "gaussian-isotropic", "mean": [0.0],
                                                    "sigma": float("inf")}}),
    "build-r-inf": (["build", "--n", "5", "--r", "1e999", "--kmax", "1", "--out", "out"], {}),
    "regime-overflow": (["regime", "--n", "1e300", "--d", "3", "--r", "1e200", "--k", "1"], {}),
}


@pytest.mark.parametrize("argv,overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_one_with_one_error_line(tmp_path, monkeypatch, caplog,
                                                       argv, overrides):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path / "exp.json", **overrides)
    for name, text in BAD_CSVS.items():
        (tmp_path / name).write_text(text)
    before = set(tmp_path.iterdir())
    assert main(argv) == 1
    assert [r.levelno for r in caplog.records if r.levelno >= logging.WARNING] == [logging.ERROR]
    assert set(tmp_path.iterdir()) == before


TINY_SQUARE = {"lo": [0.0, 0.0], "hi": [1e-50, 1e-50]}
REGIME = ["regime", "--n", "100", "--d", "1", "--r", "0.1", "--k", "1"]


@pytest.mark.parametrize("argv,named", [
    # the density is valid, but f^5 integrates beyond the float range
    (["constants", "--kind", "mu", "--k", "4", "--d", "2", "--samples", "100",
      "--out", "out.json", "--density", json.dumps({"kind": "uniform-box", **TINY_SQUARE})],
     "density factor"),
    (["constants", "--kind", "mu", "--k", "4", "--d", "2", "--samples", "100",
      "--out", "out.json", "--density",
      '{"kind": "gaussian-isotropic", "mean": [0.0, 0.0], "sigma": 1e-50}'], "density factor"),
    (["constants", "--kind", "mu", "--k", "4", "--d", "2", "--samples", "100",
      "--out", "out.json", "--density",
      json.dumps({"kind": "piecewise-constant-grid", **TINY_SQUARE, "weights": [[1.0, 2.0]]})],
     "density factor"),
    ([*REGIME, "--sparse-threshold", "nan"], "sparse threshold"),
    ([*REGIME, "--growth-threshold", "inf"], "growth threshold"),
    ([*REGIME, "--mode", "chi", "--vanish-threshold", "nan"], "vanish threshold"),
])
def test_out_of_range_quantity_exits_one_naming_it(tmp_path, monkeypatch, caplog, argv, named):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(errors) == 1 and named in errors[0]
    assert list(tmp_path.iterdir()) == []


def test_an_allocation_the_machine_refuses_exits_two(tmp_path, monkeypatch, caplog):
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.11 PiB for an array")

    monkeypatch.setattr("softplex.cli.sample_binomial", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--n", "1e15", "--out", "out.csv"]) == 2
    assert [r.levelno for r in caplog.records if r.levelno >= logging.WARNING] == [logging.ERROR]
    assert list(tmp_path.iterdir()) == []


def test_json_flags_take_an_inline_object_or_a_path(tmp_path):
    files = {
        "--config": write_config(tmp_path / "exp.json", replications=4),
        "--density": tmp_path / "density.json",
        "--region": tmp_path / "region.json",
    }
    files["--density"].write_text(
        '{"kind": "gaussian-isotropic", "mean": [0.5, 0.5], "sigma": 0.2}')
    files["--region"].write_text('{"kind": "box", "lo": [0.0, 0.0], "hi": [0.5, 0.5]}')
    commands = {
        "--config": ["experiment", "run"],
        "--density": ["sample", "--n", "20", "--d", "2"],
        "--region": ["constants", "--kind", "mu", "--k", "1", "--d", "2", "--samples", "1e3"],
    }
    for flag, command in commands.items():
        artifacts = []
        for form, value in (("path", str(files[flag])), ("inline", files[flag].read_text())):
            out = tmp_path / f"{flag[2:]}-{form}.out"
            assert main([*command, flag, value, "--out", str(out)]) == 0
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1], flag


def test_console_entry_point_runs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import softplex

    # the child imports the same package as this process, under any pytest invocation
    src = str(Path(softplex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "softplex.cli", "regime", "--n", "1e4", "--d", "1",
         "--a", "1.6", "--k", "1", "--mode", "chi"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    payload = strict_json(proc.stdout)
    assert payload["mode"] == "chi"
