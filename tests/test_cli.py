import json
from pathlib import Path

import pytest

from quasimo import optimizer as optimizer_mod
from quasimo import workflow as workflow_mod
from quasimo.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


def small_quench_config(steps=3):
    return {
        "model": {
            "kind": "heisenberg",
            "Jx": 1.0,
            "Jy": 1.0,
            "Jz": 0.0,
            "h_ext": 0.0,
            "num_spins": 5,
            "initial_spins": [0, 1, 0, 1, 0],
            "observable": "staggered_magnetization",
        },
        "workflow": {"name": "time-dependent", "dt": 0.05, "steps": steps},
        "output": {"csv": "quench.csv"},
    }


def test_run_time_dependent_writes_csv(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "quench.csv").read_text().splitlines()
    assert lines[0] == "step,time,exp_val"
    assert len(lines) == 5  # header + steps + 1
    step, time, value = lines[1].split(",")
    assert (step, time) == ("0", "0.0")
    assert float(value) == pytest.approx(1.0, abs=1e-12)


def test_run_qite_writes_csv(tmp_path):
    config = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"kind": "tfim", "num_spins": 3, "initial-state": "000"},
            "workflow": {"name": "qite", "steps": 4, "step-size": 0.45},
            "output": {"csv": "qite.csv"},
        },
    )
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "qite.csv").read_text().splitlines()
    assert lines[0] == "step,beta,energy"
    assert len(lines) == 6
    assert float(lines[1].split(",")[2]) == pytest.approx(-2.0)


def test_run_unknown_workflow_exits_2(tmp_path, capsys):
    config = write_config(
        tmp_path / "cfg.json",
        {"model": {"kind": "tfim"}, "workflow": {"name": "nope"}},
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert "nope" in capsys.readouterr().err


def test_run_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = small_quench_config()
    cfg["workflow"]["bogus"] = 1
    config = write_config(tmp_path / "cfg.json", cfg)
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_run_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_run_same_seed_byte_identical(tmp_path):
    config = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"kind": "star-maxcut", "num_qubits": 3},
            "workflow": {
                "name": "qaoa",
                "steps": 1,
                "optimizer": "nelder-mead",
                "starts": 2,
                "budget": 60,
            },
            "output": {"csv": "qaoa.csv"},
        },
    )
    for out in ("a", "b"):
        code = main(
            ["run", "--config", config, "--seed", "11", "--out", str(tmp_path / out), "--quiet"]
        )
        assert code == 0
    assert (tmp_path / "a" / "qaoa.csv").read_bytes() == (
        tmp_path / "b" / "qaoa.csv"
    ).read_bytes()


def test_env_seed_fallback(tmp_path, monkeypatch):
    config = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"kind": "star-maxcut", "num_qubits": 3},
            "workflow": {
                "name": "qaoa",
                "steps": 1,
                "optimizer": "nelder-mead",
                "starts": 2,
                "budget": 60,
            },
            "output": {"csv": "qaoa.csv"},
        },
    )
    monkeypatch.setenv("QUASIMO_SEED", "11")
    assert main(["run", "--config", config, "--out", str(tmp_path / "env"), "--quiet"]) == 0
    monkeypatch.delenv("QUASIMO_SEED")
    assert main(
        ["run", "--config", config, "--seed", "11", "--out", str(tmp_path / "flag"), "--quiet"]
    ) == 0
    assert (tmp_path / "env" / "qaoa.csv").read_bytes() == (
        tmp_path / "flag" / "qaoa.csv"
    ).read_bytes()


def test_shots_flag_switches_to_tomography(tmp_path):
    config = write_config(tmp_path / "cfg.json", small_quench_config(steps=1))
    assert (
        main(
            [
                "run",
                "--config",
                config,
                "--shots",
                "256",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
                "--quiet",
            ]
        )
        == 0
    )
    lines = (tmp_path / "quench.csv").read_text().splitlines()
    assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_run_tapered_h2_vqe(tmp_path, capsys):
    config = write_config(
        tmp_path / "cfg.json",
        {
            "model": {"kind": "h2", "transform": "qubit-tapering"},
            "workflow": {"name": "vqe", "optimizer": "nelder-mead", "budget": 200},
            "output": {"csv": "vqe.csv"},
        },
    )
    assert main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    energy = float(out.splitlines()[0].split("=")[1])
    assert energy == pytest.approx(-1.13727017466, abs=1e-4)
    lines = (tmp_path / "vqe.csv").read_text().splitlines()
    assert lines[0] == "eval,energy"


class EnergyOnlyWorkflow(workflow_mod.QuantumSimulationWorkflow):
    name = "energy-only"

    def execute(self, model):
        return workflow_mod.WorkflowResult({"energy": -1.0})


def test_plugin_workflow_without_trace_writes_its_energy(tmp_path, monkeypatch):
    monkeypatch.setitem(workflow_mod._REGISTRY, EnergyOnlyWorkflow.name, EnergyOnlyWorkflow)
    config = write_config(
        tmp_path / "cfg.json",
        {"model": {"kind": "tfim", "num_spins": 2}, "workflow": {"name": "energy-only"}},
    )
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "energy-only.csv").read_text() == "eval,energy\n0,-1.0\n"


def with_value(config, section, key, value):
    config = json.loads(json.dumps(config))
    if key is None:
        config[section] = value
    else:
        config[section][key] = value
    return config


QITE = {
    "model": {"kind": "tfim", "num_spins": 2},
    "workflow": {"name": "qite", "steps": 1, "step-size": 0.1},
}
QAOA = {
    "model": {"kind": "star-maxcut", "num_qubits": 3},
    "workflow": {"name": "qaoa", "steps": 1, "optimizer": "nelder-mead", "budget": 20},
}
HEISENBERG_2 = {
    "model": {"kind": "heisenberg", "num_spins": 2},
    "workflow": {"name": "time-dependent", "dt": 0.05, "steps": 2},
}
VQE = {"model": {"kind": "h2"}, "workflow": {"name": "vqe", "optimizer": "spsa", "budget": 100}}
MALFORMED = {
    "model": with_value(QITE, "model", None, 3),
    "workflow": with_value(QITE, "workflow", None, "qite"),
    "evaluator": with_value(QITE, "evaluator", None, ["shots"]),
    "output": with_value(small_quench_config(), "output", None, "x.csv"),
    "file": with_value(small_quench_config(), "output", None, {"file": "x.csv"}),
    "csv": with_value(small_quench_config(), "output", "csv", 5),
    "dt": with_value(small_quench_config(), "workflow", "dt", "abc"),
    "steps": with_value(small_quench_config(), "workflow", "steps", "x"),
    "trotter-order": with_value(small_quench_config(), "workflow", "trotter-order", "two"),
    "step-size": with_value(QITE, "workflow", "step-size", None),
    "seed": with_value(QITE, "workflow", "seed", "x"),
    "shots": with_value(QITE, "evaluator", None, {"shots": "many"}),
    "starts": with_value(QAOA, "workflow", "starts", "ten"),
    "budget": with_value(QAOA, "workflow", "budget", "many"),
    "tolerance": with_value(QAOA, "workflow", "tolerance", "tiny"),
    "perturbation": with_value(VQE, "workflow", "perturbation", "x"),
    "stability": with_value(VQE, "workflow", "stability", [1]),
    "Jx": with_value(small_quench_config(), "model", "Jx", "abc"),
    "num_spins": with_value(small_quench_config(), "model", "num_spins", "x"),
    "initial_spins": with_value(small_quench_config(), "model", "initial_spins", [1, 0, "x"]),
    "hx": with_value(QITE, "model", "hx", "x"),
    "num_qubits": with_value(QAOA, "model", "num_qubits", "x"),
    "layers": with_value(VQE, "model", "layers", "x"),
}
# (case id, key, config): every float key with NaN and Infinity, which Python's
# json reads as floats, a shot count out of range in either section, an empty
# CSV name and each malformed shape of "initial-params".
MALFORMED_VALUES = [
    (f"{key}={value}", key, with_value(config, section, key, value))
    for section, key, config in [
        ("workflow", "dt", HEISENBERG_2),
        ("workflow", "step-size", QITE),
        ("workflow", "perturbation", VQE),
        ("workflow", "stability", VQE),
        ("workflow", "tolerance", QAOA),
        ("model", "Jx", HEISENBERG_2),
        ("model", "Jy", HEISENBERG_2),
        ("model", "Jz", HEISENBERG_2),
        ("model", "h_ext", HEISENBERG_2),
        ("model", "hx", QITE),
    ]
    for value in (float("nan"), float("inf"))
] + [
    (f"tfim-Jz={value}", "Jz", with_value(QITE, "model", "Jz", value))
    for value in (float("nan"), float("inf"))
] + [
    ("hx='nan'", "hx", with_value(QITE, "model", "hx", "nan")),
    ("workflow-shots=-5", "shots", with_value(QITE, "workflow", "shots", -5)),
    ("evaluator-shots=-5", "shots", with_value(QITE, "evaluator", None, {"shots": -5})),
    ("workflow-shots=1e30", "shots", with_value(QITE, "workflow", "shots", 1e30)),
    ("evaluator-shots=1e30", "shots", with_value(QITE, "evaluator", None, {"shots": 1e30})),
    # numpy's default_rng refuses a negative seed only once the run has started.
    ("workflow-seed=-1", "seed", with_value(QAOA, "workflow", "seed", -1)),
    ("evaluator-seed=-1", "seed", with_value(VQE, "evaluator", None, {"shots": 100, "seed": -1})),
    ("csv=''", "csv", with_value(small_quench_config(), "output", "csv", "")),
] + [
    # The CSV name is joined to --out, so any path component would escape it.
    (f"csv={name}", "csv", with_value(small_quench_config(), "output", "csv", name))
    for name in ("../x.csv", "/tmp/x.csv", "sub/x.csv", "..", ".")
] + [
    (f"initial-params={label}", "initial-params",
     with_value(VQE, "workflow", "initial-params", value))
    for label, value in [
        ("abc", "abc"),
        ("nested", [[1, 2]]),
        ("a,0..", ["a"] + [0] * 7),
        ("nan,0..", [float("nan")] + [0] * 7),
        ("inf,0..", [float("inf")] + [0] * 7),
        ("true", True),
        ("true,false,0..", [True, False] + [0] * 6),
    ]
] + [
    # An optimizer option the named method does not read.
    ("nelder-mead-perturbation", "perturbation",
     with_value(QAOA, "workflow", "perturbation", 0.5)),
    ("spsa-tolerance", "tolerance", with_value(VQE, "workflow", "tolerance", 1e-3)),
] + [
    # JSON true is not a number, and a spin is 0 or 1.
    ("dt=true", "dt", with_value(HEISENBERG_2, "workflow", "dt", True)),
    ("steps=true", "steps", with_value(HEISENBERG_2, "workflow", "steps", True)),
] + [
    (f"initial_spins={spins}", "initial_spins",
     with_value(small_quench_config(), "model", "initial_spins", spins))
    for spins in ([0, 2, 1, 0, 1], [0, -1, 1, 0, 1], [0, True, 1, 0, 1])
] + [
    # A TFIM initial state must have one entry per spin (QITE has num_spins 2).
    (f"tfim-{key}={value}", key, with_value(QITE, "model", key, value))
    for key, value in [
        ("initial_spins", [0]),
        ("initial_spins", [1, 0, 1]),
        ("initial-state", "0"),
        ("initial-state", "100"),
    ]
]


@pytest.mark.parametrize(
    "key, config",
    [pytest.param(key, config, id=key) for key, config in sorted(MALFORMED.items())]
    + [pytest.param(key, config, id=case) for case, key, config in MALFORMED_VALUES],
)
def test_malformed_config_exits_2_naming_the_key(key, config, tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", config)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "optimizer, evaluator",
    [
        pytest.param("spsa", {}, id="spsa"),
        pytest.param("nelder-mead", {}, id="nelder-mead"),
        # Unchecked, a sampled NaN start would reach numpy's binomial as a NaN p_even.
        pytest.param("spsa", {"shots": 100}, id="spsa-shots"),
    ],
)
def test_nan_initial_params_name_the_evaluation(optimizer, evaluator, tmp_path, capsys):
    # A NaN start is refused at initialize, before any objective is evaluated;
    # the optimizer's own non-finite check is covered in test_optimizer.py.
    config = with_value(VQE, "workflow", "optimizer", optimizer)
    config = with_value(config, "workflow", "initial-params", [float("nan")] + [0.0] * 7)
    config = with_value(config, "evaluator", None, evaluator)
    config = write_config(tmp_path / "cfg.json", config)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    assert "'initial-params'" in capsys.readouterr().err


def test_tfim_with_both_initial_state_keys_exits_2_naming_both(tmp_path, capsys):
    config = with_value(QITE, "model", None,
                        {"kind": "tfim", "num_spins": 3, "initial_spins": [1, 0, 0],
                         "initial-state": "ghz"})
    config = write_config(tmp_path / "cfg.json", config)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "'initial_spins'" in err and "'initial-state'" in err


@pytest.mark.parametrize("flags", [[], ["--shots", "10", "--seed", "3"]], ids=["", "flags"])
@pytest.mark.parametrize(
    "keys",
    [{"shots": 100000}, {"seed": 9}, {"shots": 100000, "seed": 9}],
    ids=["shots", "seed", "both"],
)
def test_a_key_in_both_evaluator_and_workflow_exits_2_naming_it(keys, flags, tmp_path, capsys):
    # Either section's value would silently lose to the other's.
    config = with_value(VQE, "workflow", "shots", 100)
    config = with_value(config, "workflow", "seed", 5)
    config = write_config(tmp_path / "cfg.json", with_value(config, "evaluator", None, keys))
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{sorted(keys)[0]}'" in err


def test_evaluator_keys_act_as_the_same_workflow_keys(tmp_path):
    keys = {"shots": 100, "seed": 5}
    configs = {
        "evaluator": with_value(QITE, "evaluator", None, keys),
        "workflow": with_value(QITE, "workflow", None, {**QITE["workflow"], **keys}),
        "exact": QITE,
    }
    for label, config in configs.items():
        config = write_config(tmp_path / f"{label}.json", config)
        assert main(["run", "--config", config, "--out", str(tmp_path / label), "--quiet"]) == 0
    evaluator, workflow, exact = [(tmp_path / label / "qite.csv").read_bytes() for label in configs]
    assert evaluator == workflow != exact


# Config errors only the model can reveal: checked before the run, still exit 2.
MODEL_DEPENDENT = [
    ("vqe-initial-params-length", "initial-params",
     with_value(VQE, "workflow", "initial-params", [0.1, 0.2])),
    ("vqe-spsa-budget", "budget", with_value(VQE, "workflow", "budget", 10)),
    ("qaoa-spsa-budget", "budget",
     with_value(with_value(QAOA, "workflow", "optimizer", "spsa"), "workflow", "budget", 30)),
    ("qaoa-nelder-mead-budget", "budget", with_value(QAOA, "workflow", "budget", 0)),
]


@pytest.mark.parametrize(
    "key, config", [pytest.param(key, config, id=case) for case, key, config in MODEL_DEPENDENT]
)
def test_model_dependent_config_error_exits_2_naming_the_key(key, config, tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", config)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err


@pytest.mark.parametrize(
    "workflow", [HEISENBERG_2["workflow"], QITE["workflow"]], ids=["time-dependent", "qite"]
)
def test_a_parameterised_model_under_time_evolution_exits_2(workflow, tmp_path, capsys):
    # The mirror case, VQE on an unparameterised model, exits 2 as well.
    config = write_config(tmp_path / "cfg.json", {"model": {"kind": "h2"}, "workflow": workflow})
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "8 parameter(s)" in err
    assert not list(tmp_path.glob("*.csv"))


NON_INTEGRAL = [
    ("num_spins", 2.5, with_value(HEISENBERG_2, "model", "num_spins", 2.5)),
    ("steps", 2.5, with_value(HEISENBERG_2, "workflow", "steps", 2.5)),
    ("steps", "inf", with_value(HEISENBERG_2, "workflow", "steps", float("inf"))),
    ("budget", 99.9, with_value(QAOA, "workflow", "budget", 99.9)),
    ("starts", 1.5, with_value(QAOA, "workflow", "starts", 1.5)),
    ("shots", 10.5, with_value(QITE, "evaluator", None, {"shots": 10.5})),
    ("initial_spins", 0.7, with_value(HEISENBERG_2, "model", "initial_spins", [0.7, 1])),
]


@pytest.mark.parametrize(
    "key, config",
    [pytest.param(key, config, id=f"{key}={value}") for key, value, config in NON_INTEGRAL],
)
def test_non_integral_integer_option_exits_2_naming_the_key(key, config, tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", config)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_integral_float_and_string_spellings_still_convert(tmp_path):
    config = with_value(HEISENBERG_2, "model", "num_spins", 2.0)
    config = with_value(config, "model", "initial_spins", [1.0, "0"])
    config = write_config(tmp_path / "cfg.json", with_value(config, "workflow", "steps", "2"))
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "time-dependent.csv").read_text().splitlines()
    assert len(lines) == 4  # header + steps + 1
    assert float(lines[1].split(",")[2]) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("source", ["flag", "env"])
def test_a_negative_seed_from_the_flag_or_the_environment_exits_2(
    source, tmp_path, monkeypatch, capsys
):
    config = write_config(tmp_path / "cfg.json", with_value(VQE, "evaluator", None, {"shots": 100}))
    flags = ["--seed", "-5"] if source == "flag" else []
    if source == "env":
        monkeypatch.setenv("QUASIMO_SEED", "-5")
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'seed'" in err


def test_malformed_env_seed_exits_2_naming_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QUASIMO_SEED", "x")
    config = write_config(tmp_path / "cfg.json", QITE)
    assert main(["run", "--config", config, "--out", str(tmp_path), "--quiet"]) == 2
    assert "'QUASIMO_SEED'" in capsys.readouterr().err


def test_list_workflows(capsys):
    assert main(["list-workflows"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "qaoa",
        "qite",
        "time-dependent",
        "vqe",
    ]


def test_list_workflows_filter(capsys):
    assert main(["list-workflows", "q"]) == 0
    assert capsys.readouterr().out.splitlines() == ["qaoa", "qite", "vqe"]


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "h2",
        "heisenberg",
        "star-maxcut",
        "tfim",
    ]


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_bundled_configs_run_clean(name, tmp_path):
    code = main(
        ["run", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path), "--quiet"]
    )
    assert code == 0


@pytest.mark.parametrize("name", ["vqe_h2_spsa", "vqe_h2_tapered", "qaoa_star8"])
def test_compact_trace_writes_the_csv_of_index_value_tuples(name, tmp_path, monkeypatch):
    # Every trace the run makes also keeps its (index, value) tuples, as the
    # trace once stored them; the CSV, written from the compact trace, must
    # be byte for byte the one those tuples give in the "eval,energy" layout.
    traces = []

    class TupleKeepingTrace(optimizer_mod.Trace):
        __slots__ = ("pairs",)

        def __init__(self):
            super().__init__()
            self.pairs = []
            traces.append(self)

        def append(self, value):
            super().append(value)
            self.pairs.append((len(self.pairs), value))

    monkeypatch.setattr(optimizer_mod, "Trace", TupleKeepingTrace)
    config = CONFIG_DIR / f"{name}.json"
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    written = (tmp_path / f"{name}.csv").read_bytes()
    layouts = {
        ("eval,energy\n" + "".join(f"{k},{v!r}\n" for k, v in t.pairs)).encode() for t in traces
    }
    assert written in layouts


def test_validate_identical_files_rmse(tmp_path):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
    csv_path = str(tmp_path / "quench.csv")
    code = main(
        ["validate", csv_path, "--reference", csv_path, "--measure", "rmse", "--threshold", "1e-12"]
    )
    assert code == 0


def test_validate_scalar_reference_rejects(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
    csv_path = str(tmp_path / "quench.csv")
    # last exp_val is ~0.86; off-by-0.1 reference with a tight threshold
    code = main(
        [
            "validate",
            csv_path,
            "--reference",
            "0.96",
            "--measure",
            "abs-diff",
            "--threshold",
            "1e-3",
        ]
    )
    assert code == 1
    assert "rejected" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
def test_validate_a_threshold_that_is_not_positive_exits_2(threshold, tmp_path, capsys):
    # Acceptance is decided by ValidationCriteria and accept_results, as in the API.
    results = tmp_path / "results.csv"
    results.write_text("step,time,exp_val\n0,0.0,1.0\n")
    code = main(["validate", str(results), "--reference", "1.0", "--threshold", threshold])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "threshold" in err


def test_validate_missing_column_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
    code = main(
        [
            "validate",
            str(tmp_path / "quench.csv"),
            "--reference",
            "1.0",
            "--measure",
            "abs-diff",
            "--threshold",
            "1.0",
            "--column",
            "energy",
        ]
    )
    assert code == 2
    assert "energy" in capsys.readouterr().err


def test_validate_rmse_against_a_reference_of_another_length_exits_2(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
    csv_path = tmp_path / "quench.csv"
    reference = tmp_path / "reference.csv"
    reference.write_text("\n".join(csv_path.read_text().splitlines()[:-1]) + "\n")
    code = main(
        [
            "validate",
            str(csv_path),
            "--reference",
            str(reference),
            "--measure",
            "rmse",
            "--threshold",
            "1.0",
        ]
    )
    assert code == 2
    assert "length" in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["abs-diff", "rmse"])
def test_validate_header_only_reference_exits_2(tmp_path, capsys, measure):
    config = write_config(tmp_path / "cfg.json", small_quench_config())
    main(["run", "--config", config, "--out", str(tmp_path), "--quiet"])
    csv_path = tmp_path / "quench.csv"
    reference = tmp_path / "reference.csv"
    reference.write_text(csv_path.read_text().splitlines()[0] + "\n")
    code = main(
        [
            "validate",
            str(csv_path),
            "--reference",
            str(reference),
            "--measure",
            measure,
            "--threshold",
            "1.0",
        ]
    )
    assert code == 2
    assert f"{reference} has no data rows" in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,0.05", "1,0.05,0.9,7"], ids=["short", "long"])
@pytest.mark.parametrize("ragged_side", ["results", "reference"])
def test_validate_a_ragged_row_exits_2_naming_the_file_and_line(
    row, ragged_side, tmp_path, capsys
):
    good = tmp_path / "good.csv"
    good.write_text("step,time,exp_val\n0,0.0,1.0\n1,0.05,0.9\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(f"step,time,exp_val\n0,0.0,1.0\n{row}\n")
    results, reference = (ragged, good) if ragged_side == "results" else (good, ragged)
    code = main(
        ["validate", str(results), "--reference", str(reference), "--measure", "rmse",
         "--threshold", "1.0"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{ragged} line 3" in err
