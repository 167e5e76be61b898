"""The spec text reader: the float64 bits json.loads and float() give for
every number it reads, refusal of every document outside its one form,
and the CLI's choice between it and json.loads, which must not show in
any output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hustab
from hustab import cli, spectext
from hustab.cli import main
from hustab.sequences import spec_from_json

MIN_BYTES = cli._SPECTEXT_MIN_BYTES


def _doc(tokens, key="table", sep=", ") -> bytes:
    """A table document whose pairs hold the number texts in order."""
    assert len(tokens) % 4 == 0
    pairs = sep.join("[" + sep.join(tokens[i : i + 4]) + "]" for i in range(0, len(tokens), 4))
    return ('{"kind": "table", "' + key + '": [' + pairs + '], "tail": "repeat"}').encode()


def _assert_read_as_json_loads(tokens):
    tokens = list(tokens) + ["1"] * (-len(tokens) % 4)
    doc = spectext.read(_doc(tokens))
    assert doc is not None
    got = doc["table"]
    want = np.array([float(json.loads(t)) for t in tokens])
    assert got.shape == (len(tokens) // 4, 4) and not got.flags.writeable
    bad = np.flatnonzero(got.reshape(-1).view(np.uint64) != want.view(np.uint64))
    assert not bad.size, [(tokens[k], got.reshape(-1)[k], want[k]) for k in bad[:5]]


def test_random_bit_patterns_read_as_json_loads():
    bits = np.random.default_rng(20).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]  # json.dumps writes NaN and Infinity, which are not JSON
    pairs = values[: len(values) // 4 * 4].reshape(-1, 4).tolist()
    text = json.dumps({"kind": "table", "table": pairs})
    got = spectext.read(text.encode())["table"]
    want = np.array(json.loads(text)["table"])
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


@st.composite
def _number_text(draw):
    """A JSON number of at most 19 significant digits, shorter than the
    reader's window: a sign, an integer part that may be 0, a fraction
    that may lead with zeros, and an exponent written with e or E, with
    or without a sign and with leading zeros, that puts q (the power of
    ten of the last digit) in [-360, 330]."""
    count = draw(st.integers(0, 19))
    digits = str(draw(st.integers(10 ** (count - 1), 10**count - 1))) if count else "0"
    split = draw(st.integers(0, len(digits)))
    integer, fraction = digits[:split] or "0", digits[split:]
    if integer == "0":  # leading zeros, as many as the window leaves room for
        room = spectext._WIDTH - 1 - (1 + 1 + 1 + len(fraction) + 8)  # a sign, "0.", an exponent of 8
        fraction = "0" * draw(st.integers(0, max(0, min(8, room)))) + fraction
    text = draw(st.sampled_from(["", "-"])) + integer + ("." + fraction if fraction else "")
    if draw(st.booleans()):
        exponent = draw(st.integers(-360, 330)) + len(fraction)
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        zeros = "0" * draw(st.integers(0, 3))
        text += draw(st.sampled_from("eE")) + sign + zeros + str(abs(exponent))
    assert len(text) < spectext._WIDTH
    return text


@settings(max_examples=300, deadline=None)
@given(st.lists(_number_text(), min_size=1, max_size=40))
def test_any_number_text_reads_as_json_loads(tokens):
    _assert_read_as_json_loads(tokens)


def test_boundary_values_read_as_json_loads():
    _assert_read_as_json_loads([
        "5e-324", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
        "9007199254740993", "9007199254740993.0", "1e23", "8.98846567431158e307",
        "-0", "-0.0", "0", "0.0", "0e999", "-0e-999", "1E5", "1e+5", "1e-400", "1e400", "-1e400",
        "9999999999999999999", "0.0000000000000000000000000001", "1e00000000000000000000000005",
        "1e-0000000000000000000000400", "123456789e99999999999999999",
    ])


@pytest.mark.parametrize("bad", [
    "01", "-01", "1.", ".5", "+1", "1e", "1e+-5", "1.5.5", "1e5e5", "1e5.5", "1--1", "-", "1-", "1e5-",
    "NaN", "Infinity", "true", '"5"', "1 2", "12345678901234567890", "1.0000000000000000000",
    "1" + "0" * 399, "0." + "0" * 30 + "1",
])
def test_grammar_refusals(bad):
    for at in (0, 5, 11):
        tokens = ["1"] * 12
        tokens[at] = bad
        assert spectext.read(_doc(tokens)) is None


@pytest.mark.parametrize("array", [
    "[[1, 2, 3]]",
    "[[1, 2, 3, 4], [1, 2, 3]]",
    "[[1, 2, 3, 4, 5]]",
    "[[1, 2, 3, 4],]",
    "[[1, 2, 3, 4], ]",
    "[[1, 2, 3, 4] [1, 2, 3, 4]]",
    "[[1, 2, 3, 4],, [1, 2, 3, 4]]",
    "[[1, 2, 3 4]]",
    "[[1, 2, 3, 4,]]",
    "[[,1, 2, 3, 4]]",
    "[[[1, 2, 3, 4]]]",
    "[[1, 2, 3, 4], 5]",
    "[5, [1, 2, 3, 4]]",
    "[[1, 2, 3, 4]]]",
    "[]",
    "[[]]",
    "[[1, 2, 3, 4]\f]",
])
def test_shape_refusals(monkeypatch, array):
    for block in (4, spectext._BLOCK_NUMBERS):  # a block per pair, and one block
        monkeypatch.setattr(spectext, "_BLOCK_NUMBERS", block)
        assert spectext.read(('{"kind": "table", "table": ' + array + "}").encode()) is None


@pytest.mark.parametrize("text", [
    b'[[[1, 0, 1, 0]]]',
    b'{"kind": "table", "table": [[1, 0, 1, 0]], "x": 1}',
    b'{"kind": "table", "x": 1, "table": [[1, 0, 1, 0]]}',
    b'{"kind": "table", "table": [[1, 0, 1, 0]], "table": [[2, 0, 1, 0]]}',
    b'{"kind": "table", "table": [[1, 0, 1, 0]], "table": "x"}',
    b'{"kind": "t\\u0061ble", "table": [[1, 0, 1, 0]]}',
    b'{"kind": "table", "table": [[1, 0, 1, 0]]} x',
    b'{"kind": "table", "table": [[1, 0, 1, 0]]',
    b'{"kind": "table", "table": [[1, 0, 1, 0]], }',
    b'{"kind": "table" "table": [[1, 0, 1, 0]]}',
    b'\xef\xbb\xbf{"kind": "table", "table": [[1, 0, 1, 0]]}',
    '{"kind": "tablé", "table": [[1, 0, 1, 0]]}'.encode(),
    b'{"kind": "table", "tail": "]", "table": [[1, 0, 1, 0]], "note": "]"}',
    b'{"kind": "table", "formula": [[1, 0, 1, 0]]}',
])
def test_document_refusals(text):
    assert spectext.read(text) is None


def test_accepted_document_keeps_its_other_members():
    text = b' \r\n{ "tail" : "repeat" ,"kind":"periodic",\t"period" :\n[ [ 1 , -0 , 2.5e-1 , 0 ] ]\r\n, "note": "x" } \n'
    doc = spectext.read(text)
    want = json.loads(text)
    assert doc.keys() == want.keys() and doc["tail"] == "repeat" and doc["note"] == "x"
    assert doc["period"].tolist() == [[1.0, 0.0, 0.25, 0.0]] and str(doc["period"][0, 1]) == "0.0"
    assert spec_from_json(doc).entries.tolist() == spec_from_json(want).entries.tolist()


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_pair_counts_straddling_the_block_size(extra, blocks):
    pairs = blocks * spectext._BLOCK_NUMBERS // 4 + extra
    values = np.random.default_rng(pairs).standard_normal((pairs, 4)) * 10.0 ** np.arange(-3, 5, 2)
    text = json.dumps({"kind": "table", "table": values.tolist()}, indent=2 if blocks == 1 else None)
    assert (spectext.read(text.encode())["table"] == values).all()


def test_every_block_cut_reads_the_same(monkeypatch):
    # A block per pair, and cuts that land on CRLF whitespace.
    values = np.random.default_rng(3).standard_normal((40, 4))
    text = json.dumps({"kind": "table", "table": values.tolist()}, indent=2).replace("\n", "\r\n").encode()
    for block in (1, 4, 8, 12, 64):
        monkeypatch.setattr(spectext, "_BLOCK_NUMBERS", block)
        assert (spectext.read(text)["table"] == values).all()


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reads(monkeypatch):
    """The documents spectext.read accepted (True) or refused (False)."""
    seen, read = [], spectext.read

    def spy(data):
        doc = read(data)
        seen.append(doc is not None)
        return doc

    monkeypatch.setattr(spectext, "read", spy)
    return seen


def _outcome(capsys, monkeypatch, path, reader):
    monkeypatch.setattr(cli, "_SPECTEXT_MIN_BYTES", MIN_BYTES if reader else 1 << 62)
    return _run(capsys, "classify", "--spec", str(path), "--horizon", "2000")


@pytest.mark.parametrize("size", [MIN_BYTES - 1, MIN_BYTES])
def test_threshold_size(tmp_path, capsys, monkeypatch, reads, size):
    pairs = np.random.default_rng(1).uniform(0.5, 2.0, (MIN_BYTES // 100, 4)).tolist()
    text = json.dumps({"kind": "table", "table": pairs, "tail": "repeat"})
    path = tmp_path / "spec.json"
    path.write_text(text + " " * (size - len(text)))
    assert path.stat().st_size == size
    want = _outcome(capsys, monkeypatch, path, reader=False)
    assert reads == []
    assert _outcome(capsys, monkeypatch, path, reader=True) == want and want[0] in (0, 2)
    assert reads == ([True] if size >= MIN_BYTES else [])


def test_small_spec_takes_json_loads_alone(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"kind": "periodic", "period": [[2, 0, 5, 0], [0.25, 0, 5, 0], [3, 0.5, 1, 0]]}))
    argvs = [("classify",), ("witness", "--horizon", "600", "--force")]
    want = [_run(capsys, *argv, "--spec", str(path)) for argv in argvs]

    def refuse(*args):
        raise AssertionError("a small spec reached the reader")

    monkeypatch.setattr(spectext, "read", refuse)
    monkeypatch.setattr(Path, "read_bytes", refuse)
    got = [_run(capsys, *argv, "--spec", str(path)) for argv in argvs]
    assert got == want and [code for code, _, _ in got] == [0, 0]


def _pairs_text(bad, at, count=1200):
    """count pairs of json.dumps'd random floats, pair `at` the text bad."""
    rng = np.random.default_rng(count)
    pairs = [json.dumps(p) for p in rng.uniform(0.5, 2.0, (count, 4)).tolist()]
    pairs[at] = bad
    return "[" + ", ".join(pairs) + "]"


_BAD_PAIRS = {
    "length3": "[1, 0, 5]",
    "bool": "[true, 0, 5, 0]",
    "string": '[1, 0, "5", 0]',
    "nan": "[NaN, 0, 5, 0]",
    "infinity": "[1, Infinity, 5, 0]",
    "1e400": "[1e400, 0, 5, 0]",
    "int400": "[1" + "0" * 400 + ", 0, 5, 0]",
    "zero_a": "[0, 0, 5, 0]",
    "huge_modulus": "[1.5e308, 1.5e308, 1, 0]",
}
_GOOD = _pairs_text("[2, 0, 1, 0]", 0)


# name: (document text, whether the reader takes it)
_DOCUMENTS = {
    "non_object": (_GOOD, False),
    "missing_field": ('{"kind": "periodic", "table": ' + _GOOD + "}", True),
    "wrong_type": ('{"kind": "table", "period": ' + _GOOD + ', "table": "x"}', True),
    **{
        f"{name}_{where}": ('{"kind": "table", "table": ' + _pairs_text(bad, at) + ', "tail": "repeat"}', accepted)
        for name, bad in _BAD_PAIRS.items()
        for where, at in (("first", 0), ("last", -1))
        for accepted in [name in ("1e400", "zero_a", "huge_modulus")]
    },
    "duplicate_table": ('{"kind": "table", "table": [[3, 0, 1, 0]], "table": ' + _GOOD + "}", False),
    "non_string_member": ('{"kind": "table", "table": ' + _GOOD + ', "x": 1}', False),
    "bom": ("\ufeff" + '{"kind": "table", "table": ' + _GOOD + "}", False),
    "non_ascii": ('{"kind": "table", "note": "été", "table": ' + _GOOD + "}", False),
    "crlf": (json.dumps({"kind": "table", "table": json.loads(_GOOD)}, indent=1).replace("\n", "\r\n"), True),
    "indent2": (json.dumps({"kind": "periodic", "period": json.loads(_GOOD)}, indent=2), True),
}


@pytest.mark.parametrize("name", list(_DOCUMENTS))
def test_large_document_gives_the_json_loads_outcome(tmp_path, capsys, monkeypatch, reads, name):
    # Exit code, stdout and the one stderr line: the same whichever reads it.
    text, accepted = _DOCUMENTS[name]
    path = tmp_path / "spec.json"
    path.write_bytes(text.encode())
    assert path.stat().st_size >= MIN_BYTES
    want = _outcome(capsys, monkeypatch, path, reader=False)
    assert _outcome(capsys, monkeypatch, path, reader=True) == want
    assert reads == [accepted]
    code, out, err = want
    assert (code in (0, 2) and err == "") or (code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1)


def test_import_builds_no_table():
    # The CLI imports the reader on the first large spec, and the reader
    # builds its tables on first use.
    src = str(Path(hustab.__file__).parents[1])
    code = (
        "import sys, hustab.cli\n"
        "assert 'hustab.spectext' not in sys.modules\n"
        "from hustab import spectext as s\n"
        "assert all(f.cache_info().currsize == 0 for f in (s._powers, s._byte_masks))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0
