import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mdim.resolve
from mdim.cli import main
from mdim.construct import basis_minimal_set
from mdim.core import format_vertex, parse_vertex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_record(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 1, "one record per invocation"
    return code, json.loads(lines[0])


def test_verify_resolving_exit_zero(capsys):
    code, record = run_record(capsys, "verify", "--n", "5", "--set", "01000,00100,00010,00001")
    assert code == 0
    assert record["schema_version"] == "3"
    assert record["command"] == "verify"
    assert record["result"]["resolving"] is True
    assert record["result"]["witness"] is None
    assert record["result"]["vertices_checked"] == 32


def test_verify_set_notation(capsys):
    code, record = run_record(
        capsys, "verify", "--n", "5", "--set", "{1,2,3,4,5},{1,2,3},{2,4},{2,3,5}"
    )
    assert code == 0
    assert record["inputs"]["set"] == ["11111", "11100", "01010", "01101"]


def test_verify_failure_exit_one_with_witness(capsys):
    code, record = run_record(capsys, "verify", "--n", "5", "--set", "00100,00010,00001")
    assert code == 1
    assert record["result"]["resolving"] is False
    assert record["result"]["witness"] == ["10000", "01000"]


def test_verify_parse_error_exit_two(capsys):
    code, out, err = run(capsys, "verify", "--n", "5", "--set", "00100,0001,00001")
    assert code == 2
    assert out == ""
    assert "landmark 2" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "40", "--set", "0"),
    ("verify", "--n", "0", "--set", "0"),
    ("minimal", "--n", "30", "--set", "0,1"),
])
def test_bad_dimension_is_not_blamed_on_a_landmark(capsys, argv):
    # a dimension outside 1..DIMENSION_CAP is named alone, not as the first token's fault
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "dimension must be an int" in err and "landmark" not in err


def test_minimal_of_minimal_set(capsys):
    code, record = run_record(capsys, "minimal", "--n", "5", "--set", "01000,00100,00010,00001")
    assert code == 0
    assert record["result"]["minimal"] is True
    assert record["result"]["removable"] == []


def test_minimal_of_er_set(capsys):
    code, record = run_record(
        capsys, "minimal", "--n", "5", "--set", "11111,01111,10111,11011,11101"
    )
    assert code == 0
    assert record["result"]["minimal"] is False
    assert "11111" in record["result"]["removable"]


def test_minimal_of_padded_set(capsys):
    code, record = run_record(
        capsys, "minimal", "--n", "5", "--set", "01000,00100,00010,00001,11111"
    )
    assert code == 0
    assert record["result"]["removable"] != []


def test_minimal_runs_the_verdict_of_the_set_once(capsys, verdicts):
    # one elimination and one rank-path pass settle S and every member at once
    S = basis_minimal_set(20)
    code, record = run_record(capsys, "minimal", "--n", "20", "--set", ",".join(format_vertex(v, 20) for v in S))
    assert (code, record["result"]["minimal"], record["result"]["removable"]) == (0, True, [])
    assert verdicts == ["rank-members"]


def test_minimal_rejects_non_resolving_with_exit_one(capsys):
    code, record = run_record(capsys, "minimal", "--n", "5", "--set", "00100,00010,00001")
    assert code == 1
    assert record["result"]["resolving"] is False
    assert record["result"]["witness"] == ["10000", "01000"]
    assert record["result"]["minimal"] is None


def test_construct_er_reduced(capsys):
    code, record = run_record(capsys, "construct", "--name", "er-reduced", "--n", "5")
    assert code == 0
    assert record["result"]["members"] == ["01111", "10111", "11011", "11101"]
    assert record["result"]["size"] == 4


def test_construct_er_q5(capsys):
    code, record = run_record(capsys, "construct", "--name", "er-q5")
    assert code == 0
    assert record["result"]["members"] == ["11111", "11100", "01010", "01101"]


def test_construct_level(capsys):
    code, record = run_record(capsys, "construct", "--name", "level", "--n", "5", "--k", "2")
    assert code == 0
    assert record["result"]["size"] == 10
    assert len(record["result"]["members"]) == 10


def test_construct_list(capsys):
    code, record = run_record(capsys, "construct", "--list")
    assert code == 0
    names = [row["name"] for row in record["result"]["catalog"]]
    assert "basis-minimal" in names and "er-q5" in names


@pytest.mark.parametrize("extra", [["--name", "basis-minimal"], ["--n", "5"], ["--k", "2"],
                                   ["--name", "basis-minimal", "--n", "5"]])
def test_construct_list_takes_no_other_option(capsys, extra):
    # the catalog ignored them and echoed nulls for the options it was given
    code, out, err = run(capsys, "construct", "--list", *extra)
    assert (code, out, err) == (2, "", "error: construct --list takes no --name, --n or --k\n")


def test_construct_errors_exit_two(capsys):
    code, _, err = run(capsys, "construct", "--name", "nope")
    assert code == 2 and "unknown construction" in err
    code, _, err = run(capsys, "construct", "--name", "basis-minimal", "--n", "3")
    assert code == 2 and "n >= 5" in err
    code, _, err = run(capsys, "construct")
    assert code == 2
    code, out, err = run(capsys, "construct", "--name", "product-chain", "--n", "29")
    assert (code, out, err) == (2, "", "error: dimension must be an int in 1..28, got 29\n")
    code, out, err = run(capsys, "construct", "--name", "level", "--n", "1", "--k", "1")
    assert (code, out, err) == (2, "", "error: level_set_landmarks needs n >= 2, got 1\n")


def test_dimension_q4(capsys):
    code, record = run_record(capsys, "dimension", "--n", "4")
    assert code == 0
    assert record["result"]["min_size"] == 4
    assert record["result"]["exhaustive"] is True
    assert record["result"]["example"] == ["0000", "1000", "0100", "0010"]


def test_dimension_guard(capsys):
    code, _, err = run(capsys, "dimension", "--n", "9")
    assert code == 2 and "forced" in err


def test_graph_verify(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("# path\np 3\n0 1\n1 2\n")
    code, record = run_record(capsys, "graph-verify", "--graph", str(path), "--landmarks", "0")
    assert code == 0
    assert record["result"]["resolving"] is True

    cyc = tmp_path / "c4.txt"
    cyc.write_text("p 4\n0 1\n1 2\n2 3\n3 0\n")
    code, record = run_record(capsys, "graph-verify", "--graph", str(cyc), "--landmarks", "0")
    assert code == 1
    assert record["result"]["witness"] == [1, 3]


def test_graph_verify_hypercube_file(tmp_path, capsys):
    lines = ["p 16"]
    seen = set()
    for v in range(16):
        for i in range(4):
            u = v ^ (1 << i)
            if (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                lines.append(f"{v} {u}")
    path = tmp_path / "q4.txt"
    path.write_text("\n".join(lines) + "\n")
    # small_minimum_set(4) = {phi, e2, e3, e4} = indices 0,2,4,8
    code, record = run_record(capsys, "graph-verify", "--graph", str(path), "--landmarks", "0,2,4,8")
    assert code == 0


def test_graph_verify_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3\n0 99\n")
    code, _, err = run(capsys, "graph-verify", "--graph", str(bad), "--landmarks", "0")
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "graph-verify", "--graph", str(tmp_path / "none.txt"), "--landmarks", "0")
    assert code == 2
    disc = tmp_path / "disc.txt"
    disc.write_text("p 4\n0 1\n2 3\n")
    code, _, err = run(capsys, "graph-verify", "--graph", str(disc), "--landmarks", "0")
    assert code == 2 and "connected" in err


@pytest.mark.parametrize("landmarks", ["1_0", "+1", "\u0661", "0,-0", "0,,2", "0,"])
def test_graph_verify_takes_ascii_digit_landmarks_only(tmp_path, capsys, landmarks):
    # int() would read 1_0 as 10, +1 and the Arabic-Indic one as 1, and -0 as
    # 0; empty tokens were dropped, where verify --set refuses them
    path = tmp_path / "p12.txt"
    path.write_text("p 12\n" + "".join(f"{v} {v + 1}\n" for v in range(11)))
    code, _, err = run(capsys, "graph-verify", "--graph", str(path), "--landmarks", landmarks)
    assert code == 2 and "comma-separated vertex indices" in err


def test_graph_verify_strips_landmark_tokens(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("p 3\n0 1\n1 2\n")
    code, record = run_record(capsys, "graph-verify", "--graph", str(path), "--landmarks", " 0 , 2 ")
    assert code == 0 and record["inputs"]["landmarks"] == [0, 2]


def test_printed_vertices_reparse(capsys):
    _, record = run_record(capsys, "construct", "--name", "erdos-renyi", "--n", "7")
    n = record["result"]["n"]
    for text in record["result"]["members"]:
        assert parse_vertex(text, n) >= 0
        assert len(text) == n


def test_cli_imports_no_worker_pool():
    # the search and the verifier run on one thread; importing
    # concurrent.futures would cost start-up time for nothing
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import mdim.cli, sys; assert 'concurrent.futures' not in sys.modules, 'pool imported'"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_imports_load_only_what_they_use():
    src = Path(__file__).resolve().parents[1] / "src"
    code = """
import sys
import mdim, mdim.core, mdim.graphs, mdim.construct
assert "numpy" not in sys.modules, "numpy imported"
names = dir(mdim)
for name in mdim.__all__:
    getattr(mdim, name)
    assert name in names, name
"""
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})
    # verify and minimal need resolve, and cli imports it up front, numpy with it: the cli bench reads
    # numpy's row from `python -X importtime -c "import mdim.cli"`
    code = """
import sys
import mdim.cli
assert "numpy" in sys.modules, "numpy not imported"
loaded = {"mdim.search", "mdim.graphs", "mdim.construct"} & set(sys.modules)
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_seed_is_rejected():
    # --seed was reserved and never used; it went with schema_version "2"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "4", "--set", "0000,1000,0100,0010", "--seed", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "4", "--set", "0000,1000,0100,0010", "--threads", "2"],
    ["verify", "--n", "4", "--set", "0000,1000,0100,0010", "--fast"],
    ["minimal", "--n", "4", "--set", "0000,1000,0100,0010", "--threads", "2"],
    ["construct", "--list", "--threads", "2"],
    ["dimension", "--n", "4", "--threads", "2"],
    ["graph-verify", "--graph", "p3.txt", "--landmarks", "0", "--threads", "2"],
])
def test_retired_options_are_rejected(capsys, argv):
    # --threads and verify --fast changed no result; they went with schema_version "3"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert "unrecognized arguments: --" in out.err


def test_pretty_output_is_not_json(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--set", "0000,1000,0100,0010", "--pretty")
    assert code == 0
    assert "command: verify" in out
    assert "resolving: True" in out


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "5"])  # missing --set
    assert exc.value.code == 2


# Whole records, key order included, for a fixed list of invocations: the
# elapsed_ms value is masked and <tmp> stands for the graph-file directory.
GOLDEN = [
    (
        ['verify', '--n', '5', '--set', '01000,00100,00010,00001'], 0,
        (
            '{"schema_version":"3","command":"verify","inputs":{"n":5,"set":["01000",'
            '"00100","00010","00001"]},"result":{"resolving":true,'
            '"witness":null,"vertices_checked":32},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['verify', '--n', '5', '--set', '00100,00010,00001'], 1,
        (
            '{"schema_version":"3","command":"verify","inputs":{"n":5,"set":["00100",'
            '"00010","00001"]},"result":{"resolving":false,'
            '"witness":["10000","01000"],"vertices_checked":32},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['verify', '--n', '4', '--set', '0000,1000,0100,0010', '--pretty'], 0,
        (
            "command: verify\n  n: 4\n  set: ['0000', '1000', '0100', '0010']\nresult:\n"
            '  resolving: True\n  witness: None\n'
            '  vertices_checked: 16\nelapsed_ms: 0\n'
        ),
        '',
    ),
    (
        ['verify', '--n', '5', '--set', '00100,0001,00001'], 2,
        '',
        "error: landmark 2: binary form needs exactly 5 digits, got 4 in '0001'\n",
    ),
    (
        ['minimal', '--n', '5', '--set', '01000,00100,00010,00001'], 0,
        (
            '{"schema_version":"3","command":"minimal","inputs":{"n":5,'
            '"set":["01000","00100","00010","00001"]},"result":{"resolving":true,'
            '"witness":null,"minimal":true,"removable":[]},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['minimal', '--n', '5', '--set', '11111,01111,10111,11011,11101'], 0,
        (
            '{"schema_version":"3","command":"minimal","inputs":{"n":5,'
            '"set":["11111","01111","10111","11011","11101"]},'
            '"result":{"resolving":true,"witness":null,"minimal":false,'
            '"removable":["11111"]},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['minimal', '--n', '5', '--set', '00100,00010,00001'], 1,
        (
            '{"schema_version":"3","command":"minimal","inputs":{"n":5,'
            '"set":["00100","00010","00001"]},"result":{"resolving":false,'
            '"witness":["10000","01000"],"minimal":null,"removable":null},'
            '"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['minimal', '--n', '5', '--set', '00100,00010,00001', '--pretty'], 1,
        (
            "command: minimal\n  n: 5\n  set: ['00100', '00010', '00001']\nresult:\n"
            "  resolving: False\n  witness: ['10000', '01000']\n  minimal: None\n"
            '  removable: None\nelapsed_ms: 0\n'
        ),
        '',
    ),
    (
        ['construct', '--name', 'er-reduced', '--n', '5'], 0,
        (
            '{"schema_version":"3","command":"construct",'
            '"inputs":{"name":"er-reduced","n":5,"k":null},"result":{"n":5,"size":4,'
            '"members":["01111","10111","11011","11101"],'
            '"description":"all-ones with one zero in coordinate i,'
            ' i=1..n-1; minimal resolving set"},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['construct', '--name', 'level', '--n', '4', '--k', '2', '--pretty'], 0,
        (
            'command: construct\n  name: level\n  n: 4\n  k: 2\nresult:\n  n: 4\n  size: 6\n'
            "  members: ['1100', '1010', '0110', '1001', '0101', '0011']\n"
            '  description: every vertex with exactly k ones\nelapsed_ms: 0\n'
        ),
        '',
    ),
    (
        ['construct', '--list'], 0,
        (
            '{"schema_version":"3","command":"construct","inputs":{"name":null,'
            '"n":null,"k":null},"result":{"catalog":[{"name":"basis-minimal",'
            '"params":"n >= 5","size":"n-1","description":"singletons {2},...,'
            '{n}; minimal resolving set"},{"name":"er-reduced","params":"n >= 5",'
            '"size":"n-1","description":"all-ones with one zero in coordinate i,'
            ' i=1..n-1; minimal resolving set"},{"name":"erdos-renyi",'
            '"params":"n >= 2","size":"n",'
            '"description":"Erdos-Renyi size-n resolving set: all-ones plus er-reduced; not minimal for n >= 5"},'
            '{"name":"er-q5","params":"n = 5","size":"4",'
            '"description":"Erdos-Renyi 4-vertex resolving set for Q^5"},'
            '{"name":"small-min","params":"1 <= n <= 4","size":"n",'
            '"description":"minimum resolving sets for the smallest cubes"},'
            '{"name":"product-chain","params":"n >= 2","size":"n-1 for n >= 5,'
            ' else n","description":"K2-product lift chained from a small base set"},'
            '{"name":"level","params":"n >= 2, 1 <= k <= n-1","size":"C(n,k)",'
            '"description":"every vertex with exactly k ones"}]},"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['construct', '--name', 'nope'], 2,
        '',
        (
            "error: unknown construction 'nope'; valid: basis-minimal, er-q5,"
            ' er-reduced, erdos-renyi, level, product-chain, small-min\n'
        ),
    ),
    (
        ['construct'], 2,
        '',
        'error: construct needs --name or --list\n',
    ),
    (
        ['dimension', '--n', '4'], 0,
        (
            '{"schema_version":"3","command":"dimension","inputs":{"n":4,'
            '"max_k":null,"force":false},"result":{"min_size":4,"example":["0000",'
            '"1000","0100","0010"],"subsets_examined":123,"exhaustive":true},'
            '"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['dimension', '--n', '5', '--max-k', '3'], 0,
        (
            '{"schema_version":"3","command":"dimension","inputs":{"n":5,"max_k":3,'
            '"force":false},"result":{"min_size":4,"example":["01111","10111",'
            '"11011","11101"],"subsets_examined":497,"exhaustive":false},'
            '"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['dimension', '--n', '9'], 2,
        '',
        'error: exhaustive search above n=8 must be forced explicitly (n=9)\n',
    ),
    (
        ['graph-verify', '--graph', '<tmp>/p3.txt', '--landmarks', '0'], 0,
        (
            '{"schema_version":"3","command":"graph-verify",'
            '"inputs":{"graph":"<tmp>/p3.txt","landmarks":[0]},'
            '"result":{"resolving":true,"witness":null,"vertices_checked":3},'
            '"elapsed_ms":0}\n'
        ),
        '',
    ),
    (
        ['graph-verify', '--graph', '<tmp>/c4.txt', '--landmarks', '0', '--pretty'], 1,
        (
            'command: graph-verify\n  graph: <tmp>/c4.txt\n  landmarks: [0]\nresult:\n'
            '  resolving: False\n  witness: [1, 3]\n  vertices_checked: 4\n'
            'elapsed_ms: 0\n'
        ),
        '',
    ),
    (
        ['graph-verify', '--graph', '<tmp>/none.txt', '--landmarks', '0'], 2,
        '',
        "error: [Errno 2] No such file or directory: '<tmp>/none.txt'\n",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN])
def test_golden_records(tmp_path, capsys, argv, code, out, err):
    (tmp_path / "p3.txt").write_text("p 3\n0 1\n1 2\n")
    (tmp_path / "c4.txt").write_text("p 4\n0 1\n1 2\n2 3\n3 0\n")
    got = run(capsys, *(arg.replace("<tmp>", str(tmp_path)) for arg in argv))

    def mask(text):
        text = re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', text)
        text = re.sub(r"elapsed_ms: \d+", "elapsed_ms: 0", text)
        return text.replace(str(tmp_path), "<tmp>")

    assert (got[0], mask(got[1]), mask(got[2])) == (code, out, err)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every example line exits as its "# exit N" comment says, or 0 without one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mdim ")]
    assert len(lines) == 9
    (tmp_path / "path.txt").write_text("p 3\n0 1\n1 2\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        command, _, comment = line.partition("#")
        expected = re.match(r"\s*exit (\d+)", comment)
        try:
            code = main(shlex.split(command)[1:])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == (int(expected.group(1)) if expected else 0), (line, err)
