import csv
import json
import os
import pathlib
import random
import re

import jsonschema
import pytest

from sssfactor.cli import (
    BENCH_SCHEMA,
    FACTOR_SCHEMA,
    generate_semiprime,
    main,
    random_prime,
)
from sssfactor.numtheory import is_probable_prime


def test_factor_text_output(capsys):
    assert main(["factor", "8051"]) == 0
    assert capsys.readouterr().out == "83\n97\n"


def test_factor_prime_output(capsys):
    assert main(["factor", "97"]) == 0
    assert capsys.readouterr().out == "97 (prime)\n"


def test_factor_multiplicity_rendering(capsys):
    assert main(["factor", "243"]) == 0
    assert capsys.readouterr().out == "3^5\n"


def test_factor_json_output(capsys):
    assert main(["factor", "8051", "--json", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, FACTOR_SCHEMA)
    assert payload["schema_version"] == 1
    assert payload["factors"] == [["83", 1], ["97", 1]]
    assert payload["success"] is True
    assert payload["config"]["seed"] == 3


def test_factor_usage_errors():
    with pytest.raises(SystemExit) as err:
        main(["factor", "not-a-number"])
    assert err.value.code == 2
    assert main(["factor", "1"]) == 2


USAGE_N = "4905772621454398733637869"
# its parent is this file, so no directory can ever be found there
UNWRITABLE = os.path.join(__file__, "x.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", USAGE_N, "--max-rounds", "-1"],
        ["relations", USAGE_N, "--max-rounds", "-1"],
        ["relations", USAGE_N, "--out", UNWRITABLE],
        ["relations", USAGE_N, "--partials-out", UNWRITABLE],
    ],
    ids=["factor-max-rounds-neg", "relations-max-rounds-neg",
         "relations-out-unwritable", "relations-partials-out-unwritable"],
)
def test_bad_config_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert USAGE_N in lines[0]  # names the number, not a flag value


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", USAGE_N, "--k", "0"],
        ["factor", USAGE_N, "--rho", "1"],
        ["relations", USAGE_N, "--k", "0"],
        ["relations", USAGE_N, "--m", "3"],
        ["relations", USAGE_N, "--n", "500"],
        ["factor", USAGE_N, "--n", "-3"],
        ["factor", "15", "--k", "6"],
        ["relations", USAGE_N, "--m", "500"],
        ["relations", USAGE_N, "--delta", "5"],
        ["bench", "--digits", "12", "--rho", "10"],
        ["bench", "--digits", "12", "--n", "40"],
        ["factor", "15", "--max", "5"],
    ],
    ids=["factor-k0", "factor-rho1", "relations-k0", "relations-m3", "relations-n500",
         "factor-n-neg", "factor-k6", "relations-m500", "relations-delta5",
         "bench-rho10", "bench-n40", "factor-abbreviation"],
)
def test_removed_flag_is_a_usage_error(argv, capsys, monkeypatch, tmp_path):
    # m, n, k, rho and delta come from the input; a script that still sets
    # them stops here instead of running with the derived values, and no
    # flag passes as an abbreviation of a longer one (--m of --max-rounds)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "15"],
        ["relations", USAGE_N],
        ["bench", "--digits", "12", "--count", "1"],
    ],
    ids=["factor", "relations", "bench"],
)
def test_bad_env_knob_is_a_usage_error(argv, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("SSSFACTOR_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "SSSFACTOR_SEED" in lines[0]


@pytest.mark.parametrize(
    "options",
    [
        ["--out", os.path.join(__file__, "r")],
        ["--count", "0"],
        ["--count", "-1"],
        ["--timeout-seconds", "-5"],
        ["--timeout-seconds", "0"],
    ],
    ids=["out-unwritable", "count0", "count-neg", "timeout-neg", "timeout0"],
)
def test_bad_bench_options_are_usage_errors(options, capsys, tmp_path):
    argv = ["bench", "--digits", "12", "--out", str(tmp_path / "report"), *options]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # checked before the first job runs
    assert len(captured.err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def test_factor_starvation_exit_code(capsys):
    n = 1299709 * 1299721
    assert main(["factor", str(n), "--max-rounds", "0"]) == 1
    err = capsys.readouterr().err
    assert "residue" in err


def test_env_override_seed(monkeypatch, capsys):
    monkeypatch.setenv("SSSFACTOR_SEED", "77")
    assert main(["factor", "8051", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == 77


def test_json_config_echo_reproduces_run(capsys):
    n = 1299709 * 1299721
    outs = []
    for _ in range(2):
        assert main(["factor", str(n), "--json", "--seed", "5"]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    for payload in outs:
        payload["stats"].pop("phase_seconds")
    assert outs[0] == outs[1]
    # the echoed config rebuilds the identical run through the library
    from sssfactor import RunConfig, factor

    replay = factor(n, RunConfig(**outs[0]["config"]))
    stats = outs[0]["stats"]
    assert replay.stats.counters() == {
        k: stats[k] for k in replay.stats.counters()
    }
    assert [[str(p), e] for p, e in replay.factors] == outs[0]["factors"]


def test_random_prime_and_semiprime_generation():
    rng = random.Random(1)
    p = random_prime(9, rng)
    assert len(str(p)) == 9 and is_probable_prime(p)
    n, p, q = generate_semiprime(21, rng)
    assert len(str(n)) == 21
    assert p != q and p * q == n
    assert is_probable_prime(p) and is_probable_prime(q)
    # about the same size: the larger factor gets the extra digit
    assert len(str(p)) == 11 and len(str(q)) == 10


def test_semiprime_generation_deterministic():
    a = [generate_semiprime(14, random.Random(42))[0] for _ in range(3)]
    b = [generate_semiprime(14, random.Random(42))[0] for _ in range(3)]
    assert a == b


def test_relations_dump_and_determinism(tmp_path, capsys):
    n = 1299709 * 1299721
    paths = []
    for run in range(2):
        out = tmp_path / f"fulls_{run}.csv"
        part = tmp_path / f"partials_{run}.csv"
        code = main(
            [
                "relations",
                str(n),
                "--max-rounds",
                "40",
                "--seed",
                "6",
                "--out",
                str(out),
                "--partials-out",
                str(part),
            ]
        )
        assert code == 0
        paths.append((out.read_bytes(), part.read_bytes()))
    assert paths[0] == paths[1]  # byte-identical replays
    text = paths[0][0].decode()
    header = text.splitlines()[0]
    assert header.startswith("x,sign,e_2,")
    for line in text.splitlines()[1:]:
        x, sign, *exps = line.split(",")
        rhs = 1
        primes = [int(col[2:]) for col in header.split(",")[2:]]
        for p, e in zip(primes, map(int, exps)):
            rhs = rhs * pow(p, e, n) % n
        if int(sign):
            rhs = (n - rhs) % n
        assert int(x) ** 2 % n == rhs


def test_relations_stdout_and_empty_dump(capsys):
    n = 1299709 * 1299721
    assert main(["relations", str(n), "--max-rounds", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x,sign,e_2,")  # header survives an empty dump
    assert len(out.strip().splitlines()) == 1


def test_relations_partials_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["relations", "1689259081189", "--max-rounds", "0", "--partials-out", "-"]) == 0
    out = capsys.readouterr().out
    assert "\nx,r,sign,e_2," in out  # after the fulls dump
    assert not (tmp_path / "-").exists()


def test_readme_relations_example_dumps_relations(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    number = re.search(r"sssfactor relations (\d+)", readme).group(1)
    assert main(["relations", number, "--max-rounds", "2"]) == 0
    assert capsys.readouterr().out.startswith("x,sign,e_2,")


def test_relations_rejects_prime(capsys):
    assert main(["relations", "1299709"]) == 2


def test_bench_factor_mode(tmp_path, capsys):
    out = tmp_path / "report"
    code = main(
        [
            "bench",
            "--digits",
            "12",
            "--count",
            "2",
            "--algos",
            "sss,qs",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(report, BENCH_SCHEMA)
    assert report["mode"] == "factor"
    assert len(report["runs"]) == 4  # 2 semiprimes x 2 algorithms
    assert all(r["success"] for r in report["runs"])
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0] == "digits,algo,runs,metric,mean,std"
    assert len(csv_text) == 3  # one summary row per (digits, algo)


def test_bench_relation_count_mode(tmp_path):
    out = tmp_path / "rel_report"
    code = main(
        [
            "bench",
            "--digits",
            "14",
            "--count",
            "1",
            "--algos",
            "sss",
            "--timeout-seconds",
            "2",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "rel_report.json").read_text())
    jsonschema.validate(report, BENCH_SCHEMA)
    assert report["mode"] == "relations"
    run = report["runs"][0]
    assert run["relations"]["fulls"] + run["relations"]["partials"] > 0
    # the summary counts relations that can reach the matrix
    [row] = csv.DictReader((tmp_path / "rel_report.csv").open())
    assert row["metric"] == "relations_found"
    assert float(row["mean"]) == run["relations"]["fulls"] + run["relations"]["combined"]
    # collect_relations times itself, so relation-count runs report it too
    assert run["phase_seconds"]["collect"] > 0


def test_bench_deterministic_inputs(tmp_path):
    runs = []
    for name in ("a", "b"):
        main(
            [
                "bench", "--digits", "10", "--count", "2", "--algos", "sss",
                "--seed", "11", "--out", str(tmp_path / name),
            ]
        )
        report = json.loads((tmp_path / f"{name}.json").read_text())
        runs.append([r["n"] for r in report["runs"]])
    assert runs[0] == runs[1]


def test_bench_usage_errors(capsys):
    assert main(["bench", "--digits", "x"]) == 2
    assert main(["bench", "--digits", "12", "--algos", "bogus"]) == 2
    assert main(["bench", "--digits", "4"]) == 2


def test_bench_relations_records_lucky_divisor(tmp_path, monkeypatch):
    from sssfactor.numtheory import FoundFactor
    from sssfactor.relations import RelationStore

    real_ingest = RelationStore.ingest
    fired = {"done": False}

    def lucky(self, x_bar, residual):
        if not fired["done"]:
            fired["done"] = True
            raise FoundFactor(1299709)
        return real_ingest(self, x_bar, residual)

    monkeypatch.setattr(RelationStore, "ingest", lucky)
    out = tmp_path / "lucky"
    code = main(
        [
            "bench", "--digits", "14", "--count", "2", "--algos", "sss",
            "--timeout-seconds", "0.5", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "lucky.json").read_text())
    jsonschema.validate(report, BENCH_SCHEMA)
    first, second = report["runs"]  # the lucky run does not stop the bench
    assert first["success"] is False
    assert first["divisor"] == "1299709"
    assert second["success"] is True
    assert "divisor" not in second
