import json
import os
import pathlib
import random
import re
import subprocess
import sys

import jsonschema
import pytest

from semiprimes import generate_semiprime, random_prime

from sssfactor.cli import FACTOR_SCHEMA, main
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
        ["factor", "15", "--max", "5"],
    ],
    ids=["factor-k0", "factor-rho1", "relations-k0", "relations-m3", "relations-n500",
         "factor-n-neg", "factor-k6", "relations-m500", "relations-delta5",
         "factor-abbreviation"],
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
    # the subcommand's usage line, which lists the flags it does take
    assert captured.err.startswith(f"usage: sssfactor {argv[0]} ")
    assert "unrecognized arguments" in captured.err
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


def test_bench_subcommand_is_gone(capsys, monkeypatch, tmp_path):
    # timings come from benchmarks/run.py; the old subcommand is a usage
    # error that writes no report
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["bench", "--digits", "12"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, variable",
    [
        (["factor", "8051"], ("SSSFACTOR_SEED", "77")),
        (["factor", "8051"], ("SSSFACTOR_K", "0")),
        (["relations", USAGE_N], ("SSSFACTOR_SEED", "77")),
        (["relations", USAGE_N], ("SSSFACTOR_K", "0")),
    ],
    ids=["factor", "factor-k", "relations", "relations-k"],
)
def test_bad_env_knob_is_a_usage_error(argv, variable, monkeypatch, capsys, tmp_path):
    # flags are the only input: a script that still sets a variable, valid
    # value or not, stops here instead of running with values it did not mean
    monkeypatch.setenv(*variable)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert variable[0] in lines[0]
    assert "flag" in lines[0]
    assert not list(tmp_path.iterdir())


def test_factor_starvation_exit_code(capsys):
    n = 1299709 * 1299721
    assert main(["factor", str(n), "--max-rounds", "0"]) == 1
    err = capsys.readouterr().err
    assert "residue" in err


def test_factor_starvation_names_the_starved_layer(capsys):
    n = 121049062572493753
    message = (
        f"starved factoring {n} after 1 rounds: "
        "23 fulls + 0 combined relations of 70 (22 partials)"
    )
    assert main(["factor", str(n), "--max-rounds", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"unfactored residue: {n}", message]
    assert main(["factor", str(n), "--max-rounds", "1", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    jsonschema.validate(payload, FACTOR_SCHEMA)
    assert payload["shortfalls"] == [message]
    assert captured.err.splitlines() == [message]


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


@pytest.mark.parametrize("argv", [
    ["factor", "8051"],
    ["relations", "5550426454971436013", "--max-rounds", "50", "--partials-out", "-"],
], ids=["factor", "relations"])
def test_closed_stdout_fails_quietly(argv):
    # the reader is gone before the first write, as with `| head -c 0`:
    # exit 1 and no traceback, neither from the command nor at exit
    reader, writer = os.pipe()
    os.close(reader)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sssfactor.cli", *argv],
            stdout=writer, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    finally:
        os.close(writer)
    assert done.returncode == 1
    assert done.stderr == ""


def test_readme_relations_example_dumps_relations(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    number = re.search(r"sssfactor relations (\d+)", readme).group(1)
    assert main(["relations", number, "--max-rounds", "2"]) == 0
    assert capsys.readouterr().out.startswith("x,sign,e_2,")


def test_relations_rejects_prime(capsys):
    assert main(["relations", "1299709"]) == 2
