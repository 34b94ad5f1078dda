"""Command line behavior: formats, flags, exit codes."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from orthoform import PrimeField, QuadraticField, RationalField, RationalQuaternions, random_form
from orthoform import cli
from orthoform.cli import InputFormatError, format_form_file, main, parse_form_file

# Child interpreters import the orthoform this process imported, also when
# pytest (not PYTHONPATH) put it on the path.
_SRC = str(Path(cli.__file__).resolve().parents[1])
_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SAMPLE = """\
# a symmetric form over GF(7)
ring gfp 7
s +1
dim 3
1 2 0   # trailing comments are fine
2 5 0
0 0 3
"""


def test_decompose_text_output(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    code, out, err = run(["decompose", "--input", str(path), "--verify", "--count-ops"], capsys)
    assert code == 0
    assert "ring gfp 7, sigma identity, s +1" in out
    assert "verification: PASS" in out
    assert "counters:" in out


def test_decompose_json_schema(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    code, out, err = run(
        ["decompose", "--input", str(path), "--algo", "blocks", "--json",
         "--verify", "--count-ops", "--emit-transform", "matrix"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["ring"] == {"kind": "gfp", "param": 7, "sigma": "identity"}
    assert doc["s"] == 1 and doc["dim"] == 3 and doc["algo"] == "blocks"
    assert doc["radical_dim"] == 0
    assert sum(b["size"] for b in doc["blocks"]) == 3
    assert all(isinstance(v, bool) for v in doc["verification"].values())
    assert all(doc["verification"].values())
    assert set(doc["counters"]) == {
        "additions", "multiplications", "inversions", "equality_tests", "sigma_applications",
    }
    assert len(doc["transform"]) == 3 and len(doc["transform"][0]) == 3
    assert doc["invariants"]["rank"] == 3


def test_json_omits_unrequested_sections(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    code, out, err = run(["decompose", "--input", str(path), "--json"], capsys)
    doc = json.loads(out)
    assert doc["transform"] is None
    assert doc["counters"] is None
    assert doc["verification"] is None


def test_slp_transform_lines(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    code, out, err = run(
        ["decompose", "--input", str(path), "--json", "--emit-transform", "slp"], capsys
    )
    doc = json.loads(out)
    for line in doc["transform"]:
        op = line.split()[0]
        assert op in ("scale", "swap", "transvect", "blockleft")


def test_auto_sign_detection(tmp_path, capsys):
    path = tmp_path / "alt.txt"
    path.write_text("ring rational\ndim 2\n0 5\n-5 0\n")
    code, out, err = run(["decompose", "--input", str(path), "--verify"], capsys)
    assert code == 0
    assert "detected s = -1" in out
    assert "verification: PASS" in out


def test_auto_sign_on_zero_matrix_defaults_positive(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("ring gfp 5\ndim 2\n0 0\n0 0\n")
    code, out, err = run(["decompose", "--input", str(path)], capsys)
    assert code == 0
    assert "undetermined" in out
    assert "s +1" in out


def test_gen_is_deterministic_and_round_trips(tmp_path, capsys):
    code, out1, _ = run(["gen", "--ring", "gfp:7", "--dim", "4", "--seed", "11"], capsys)
    assert code == 0
    code, out2, _ = run(["gen", "--ring", "gfp:7", "--dim", "4", "--seed", "11"], capsys)
    assert out1 == out2
    ring, sign, matrix = parse_form_file(out1)
    assert matrix.nrows == 4 and sign == 1
    assert format_form_file(ring, 1, matrix) == out1


def test_gen_rank_and_out_file(tmp_path, capsys):
    target = tmp_path / "gen.txt"
    code, out, err = run(
        ["gen", "--ring", "rational", "--s", "-1", "--dim", "6", "--rank", "4",
         "--seed", "2", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    code, out, err = run(
        ["decompose", "--input", str(target), "--verify", "--json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == -1
    assert doc["radical_dim"] == 2
    assert doc["invariants"]["j_blocks"] == 2


@pytest.mark.parametrize(
    "content,fragment",
    [
        (b"ring gfp 6\ndim 1\n1\n", "not prime"),
        (b"ring gfp 7\ndim 1\nzz\n", "column 0"),
        (b"ring gfp 7\ndim 2\n1 0\n", "found 1"),
        (b"ring gfp 7\ndim 1\n1\n2\n", "after the last"),
        (b"dim 1\n1\n", "ring must be declared"),
        (b"ring gfp 7\ns +2\ndim 1\n1\n", "sign"),
        (b"ring gfp 7\nsigma frobenius\ndim 1\n1\n", "involution"),
        (b"ring gfp 7\ns +1\ndim 2\n0 1\n2 0\n", "symmetry law"),
        (b"ring gfp 7\nbogus 3\ndim 1\n1\n", "unknown directive"),
        (b"ring gfp 4000000000000000000000027\ndim 1\n1\n", "too large"),
        (b"ring rational\ndim 1\n1/0\n", "line 3: column 0: zero denominator"),
        (b"ring rational\ndim 1\n0/0\n", "line 3: column 0: zero denominator"),
        (b"ring quaternion\ndim 1\n1/0\n", "line 3: column 0: zero denominator"),
        (b"ring quaternion\ndim 1\n1+1/0*i\n", "line 3: column 0: zero denominator"),
        (b"ring gfp 7\ndim 1\n\xff\n", "can't decode byte 0xff"),
    ],
)
def test_bad_inputs_exit_2(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    code, out, err = run(["decompose", "--input", str(path)], capsys)
    assert code == 2
    assert fragment in err


def test_missing_file_exits_2(capsys):
    code, out, err = run(["decompose", "--input", "/nonexistent/f.txt"], capsys)
    assert code == 2


def test_gen_bad_args_exit_2(capsys):
    code, _, err = run(["gen", "--ring", "gfp:7", "--dim", "2", "--s", "auto"], capsys)
    assert code == 2
    code, _, err = run(["gen", "--ring", "rational", "--s", "-1", "--dim", "4", "--rank", "3"], capsys)
    assert code == 2 and "rank" in err
    code, _, err = run(["gen", "--ring", "gfp:6", "--dim", "1"], capsys)
    assert code == 2
    code, out, err = run(["gen", "--ring", "gfp:7", "--dim", "-1"], capsys)
    assert code == 2 and "dim must be nonnegative" in err and out == ""


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a huge dim or input ends in MemoryError; stand one in rather than
    # allocating for real
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "random_form", exhausted)
    monkeypatch.setattr(cli, "decompose_gs", exhausted)
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    for argv in (["gen", "--ring", "gfp:7", "--dim", "100000"], ["decompose", "--input", str(path)]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class _UnwritableStdout(io.StringIO):
    """A stdout whose writes fail with `exc`, backed by the descriptor `fd`."""

    def __init__(self, exc: OSError, fd: int):
        super().__init__()
        self.exc, self.fd = exc, fd

    def write(self, text):
        raise self.exc

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "exc", [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left on device")]
)
def test_unwritable_output_exits_2(tmp_path, capsys, exc):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    sink = tmp_path / "stdout"
    with open(sink, "wb") as fh, contextlib.redirect_stdout(_UnwritableStdout(exc, fh.fileno())):
        code = main(["decompose", "--input", str(path), "--emit-transform", "slp"])
        # the descriptor now leads to the null device, so the flush at exit cannot fail
        os.write(fh.fileno(), b"flushed at exit")
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: cannot write the output: {exc}\n"
    assert sink.read_bytes() == b""


@pytest.mark.parametrize("dim", [3, 400])
def test_closed_stdout_pipe_exits_2(dim):
    # with buffered stdout (no PYTHONUNBUFFERED) a small form is still in the
    # buffer when the pipe fails, and the interpreter's flush at exit retries it
    env = {k: v for k, v in _CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    gen = subprocess.Popen(
        [sys.executable, "-m", "orthoform.cli", "gen", "--ring", "gfp:101", "--dim", str(dim)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    gen.stdout.close()
    _, err = gen.communicate(timeout=60)
    assert gen.returncode == 2, err
    assert err == "error: cannot write the output: [Errno 32] Broken pipe\n"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputFormatError) as info:
        parse_form_file("ring gfp 7\ndim 2\n1 0\n0 q\n")
    assert info.value.line_no == 4
    with pytest.raises(InputFormatError) as info:
        parse_form_file("ring gfp 7\n")
    assert "missing dim" in str(info.value)


def test_verification_failure_exits_1(tmp_path, capsys, monkeypatch):
    # the library never produces a failing decomposition on valid input, so
    # force the checker to report failure and confirm the exit code contract
    from orthoform.verify import CheckReport

    def fake_check(original, s, dec):
        return CheckReport(True, False, True, True, details=["forced failure"])

    monkeypatch.setattr(cli, "check_decomposition", fake_check)
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    code, out, err = run(["decompose", "--input", str(path), "--verify"], capsys)
    assert code == 1
    assert "verification: FAIL" in out
    assert "forced failure" in out


def test_strassen_cutoff_flag_validation(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text(SAMPLE)
    # the value is checked before dispatch, so gs, which multiplies no
    # blocks, rejects it as blocks does instead of ignoring it
    for algo in ("blocks", "gs"):
        code, _, err = run(
            ["decompose", "--input", str(path), "--algo", algo, "--strassen-cutoff", "1"], capsys
        )
        assert code == 2 and "cutoff" in err


def test_post_sort_rejected_on_wrong_ring(tmp_path, capsys):
    path = tmp_path / "herm.txt"
    path.write_text("ring gfp2 3\ns +1\ndim 1\n1\n")
    code, _, err = run(["decompose", "--input", str(path), "--post", "sort"], capsys)
    assert code == 2


def test_console_script_subprocess(tmp_path):
    form = tmp_path / "f.txt"
    gen = subprocess.run(
        [sys.executable, "-m", "orthoform.cli", "gen", "--ring", "gfp:11", "--dim", "3", "--seed", "5"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert gen.returncode == 0
    form.write_text(gen.stdout)
    dec = subprocess.run(
        [sys.executable, "-m", "orthoform.cli", "decompose", "--input", str(form), "--verify", "--json"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert dec.returncode == 0
    doc = json.loads(dec.stdout)
    assert all(doc["verification"].values())


# Runs the CLI in a fresh interpreter, then reports on stderr whether numpy
# was loaded: only the int64 kernel may load it.
_NUMPY_PROBE = """\
import sys
from orthoform.cli import main
code = main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_import_leaves_numpy_unloaded():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, orthoform, orthoform.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


@pytest.mark.parametrize(
    "ring, dim, loaded, algo, post",
    [
        pytest.param("rational", 8, False, "gs", [], id="rational-8-False"),
        pytest.param("quaternion", 8, False, "gs", [], id="quaternion-8-False"),
        # p >= 2^31 fails the overflow guard
        pytest.param("gfp:1000000000000000003", 8, False, "gs", [], id="gfp:1000000000000000003-8-False"),
        # 32x32 eliminations run on the kernel
        pytest.param("gfp:1009", 32, True, "gs", [], id="gfp:1009-32-True"),
        # block_congruence and the coupling products run the integer product
        pytest.param("rational", 8, False, "blocks", [], id="rational-8-blocks-False"),
        pytest.param("quaternion", 8, False, "blocks", [], id="quaternion-8-blocks-False"),
        # 16x16 eliminations stay on the generic loop and the products of
        # --verify, the blocks recursion and --post sort on the integer product
        pytest.param("gfp:101", 16, False, "gs", [], id="gfp:101-16-False"),
        pytest.param("gfp2:3", 16, False, "gs", [], id="gfp2:3-16-False"),
        pytest.param("gfp:2", 16, False, "blocks", [], id="gfp:2-16-blocks-False"),
        pytest.param("gfp:101", 16, False, "gs", ["--post", "sort"], id="gfp:101-16-sort-False"),
    ],
)
def test_numpy_loads_only_when_the_kernel_runs(tmp_path, capsys, ring, dim, loaded, algo, post):
    path = tmp_path / "form.txt"
    assert run(["gen", "--ring", ring, "--dim", str(dim), "--seed", "3", "--out", str(path)], capsys)[0] == 0
    dec = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, "decompose", "--input", str(path), "--algo", algo,
         "--verify", "--json", "--emit-transform", "slp", *post],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
    )
    assert dec.returncode == 0, dec.stderr
    assert all(json.loads(dec.stdout)["verification"].values())
    assert dec.stderr.splitlines()[-1] == f"numpy loaded: {loaded}"


# (header lines, the ring whose entries fill the body, whether the header is valid)
CONTRACT_SPECS = [
    ("ring gfp 2", PrimeField(2), True),
    ("ring gfp 3", PrimeField(3), True),
    ("ring gfp 101", PrimeField(101), True),
    ("ring gfp 2305843009213693951", PrimeField(2**61 - 1), True),
    ("ring gfp2 3", QuadraticField(3), True),
    ("ring gfp2 3\nsigma identity", QuadraticField(3, "identity"), True),
    ("ring gfp2 5\nsigma frobenius", QuadraticField(5), True),
    ("ring rational", RationalField(), True),
    ("ring quaternion", RationalQuaternions(), True),
    ("ring quaternion\nsigma conj", RationalQuaternions(), True),
    ("ring gfp 6", PrimeField(7), False),
    ("ring gfp", PrimeField(7), False),
    ("ring gfp2 2", PrimeField(2), False),
    ("ring rational 3", RationalField(), False),
    ("ring octonion", RationalField(), False),
    ("ring gfp seven", PrimeField(7), False),
    ("ring gfp 7\nsigma frobenius", PrimeField(7), False),
    ("ring quaternion\nsigma identity", RationalQuaternions(), False),
    ("ring gfp 4000000000000000000000027", PrimeField(7), False),
]
# Entry tokens that are malformed in some rings or in all of them.
ODD_TOKENS = ["zz", "1/0", "0/0", "1.5", "--1", "1+", "7/", "i", "x", "3*x", "1/2", "2*i", "-0", "9" * 30, "1+1/0*i"]
# How a form file is spoiled, if it is: "valid" leaves it a form.
DAMAGE = ["valid", "asymmetric", "token", "short", "long row", "extra row", "dim", "sign"]


@st.composite
def form_files(draw):
    header, ring, header_ok = draw(st.sampled_from(CONTRACT_SPECS))
    s = draw(st.sampled_from((1, -1)))
    d = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rank = draw(st.none() | st.integers(0, d))
    try:
        form = random_form(ring, s, d, rng, rank=rank)
    except ValueError:  # no form of that rank and sign over this ring
        form = random_form(ring, s, d, rng)
    rows = [[ring.format(v) for v in row] for row in form.m.rows]
    sign = draw(st.sampled_from(("+1" if s == 1 else "-1", "auto")))
    dim = str(d)
    damage = draw(st.sampled_from(DAMAGE))
    if damage == "asymmetric" and d:
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = ring.format(ring.add(form.m.rows[i][j], ring.one))
    elif damage == "token" and d:
        rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(st.sampled_from(ODD_TOKENS))
    elif damage == "short" and d:
        rows.pop()
    elif damage == "long row" and d:
        rows[-1].append("0")
    elif damage == "extra row":
        rows.append(["0"] * d)
    elif damage == "dim":
        dim = draw(st.sampled_from(("-1", "x", f"{d} {d}", str(d + 1))))
    elif damage == "sign":
        sign = draw(st.sampled_from(("+2", "0", "plus", "")))
    body = "\n".join(" ".join(row) for row in rows)
    text = f"{header}\ns {sign}\ndim {dim}\n{body}\n"
    return text, header_ok and damage == "valid", ring


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    form_files(),
    st.sampled_from(("gs", "blocks")),
    st.sampled_from(("none", "maxj", "sort")),
    st.sampled_from(("none", "matrix", "slp")),
    st.booleans(),
)
def test_cli_exit_contract(tmp_path_factory, case, algo, post, emit, verify):
    # every form file, valid or not, exits 0 or 2; a valid form never fails
    # --verify, and whatever exits 0 prints JSON that parses
    text, valid, ring = case
    path = tmp_path_factory.getbasetemp() / "contract.txt"
    path.write_text(text)
    argv = ["decompose", "--input", str(path), "--algo", algo, "--post", post, "--emit-transform", emit, "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--verify"] * verify)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        # --post sort is defined only over odd GF(p); every other valid run exits 0
        assert not valid or (post == "sort" and not (isinstance(ring, PrimeField) and ring.p > 2)), err.getvalue()
        return
    doc = json.loads(out.getvalue())
    if verify:
        assert all(doc["verification"].values())
