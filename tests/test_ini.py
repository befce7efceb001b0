"""`data.read_ini`, the one INI reader, behind generator specs and fusion
configs."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmoe.data import BOOLEAN, Key, read_ini
from flowmoe.fusion import load_fusion_config
from flowmoe.synth import GeneratorSpec

SCHEMA = {
    "run": {"count": Key(int, 3, "an integer >= 1", lambda n: n >= 1),
            "rate": Key(float, 0.5, "a finite number",
                        lambda x: math.isfinite(x)),
            "verbose": BOOLEAN},
    "job:": {"size": Key(int, 1, "an integer")},
    "names": Key(str.split),
}


def _write(tmp_path, text):
    path = tmp_path / "x.cfg"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    return path


def _error(path):
    with pytest.raises(ValueError) as info:
        read_ini(path, SCHEMA)
    return str(info.value)


def test_values_are_typed_and_missing_ones_take_their_default(tmp_path):
    path = _write(tmp_path, "[job:b]\nsize = 4\n\n[run]\ncount = 7\n"
                            "verbose = Yes\n\n[job:a]\n")
    assert read_ini(path, SCHEMA) == {
        "run": {"count": 7, "rate": 0.5, "verbose": True},
        "names": None,
        "job:b": {"size": 4}, "job:a": {"size": 1}}


def test_any_key_section_keeps_case_order_and_percent(tmp_path):
    path = _write(tmp_path, "[names]\nZeta = a 50%\nalpha = %(x)s\nAlpha = B\n")
    names = read_ini(path, SCHEMA)["names"]
    assert list(names.items()) == [("Zeta", ["a", "50%"]),
                                   ("alpha", ["%(x)s"]), ("Alpha", ["B"])]


def test_an_empty_default_section_is_allowed(tmp_path):
    path = _write(tmp_path, "[DEFAULT]\n\n[run]\ncount = 2\n")
    assert read_ini(path, SCHEMA)["run"]["count"] == 2


@pytest.mark.parametrize("text, message", [
    ("[run]\ncount = 0\n", "[run] count = '0': expected an integer >= 1"),
    ("[run]\nrate = inf\n", "[run] rate = 'inf': expected a finite number"),
    ("[run]\nverbose = maybe\n", "[run] verbose = 'maybe': expected a "
                                 "boolean (1/0, yes/no, true/false or on/off)"),
    ("[job:a]\nsize = x\n", "[job:a] size = 'x': expected an integer"),
    ("[run]\nCount = 2\n", "[run] Count: unknown key; expected one of "
                           "count, rate, verbose"),
    ("[job]\n", "[job]: unknown section; expected [run], [job:<id>] or "
                "[names]"),
    ("[DEFAULT]\ncount = 1\n[run]\n", "[DEFAULT]: unknown section; expected "
                                      "[run], [job:<id>] or [names]"),
], ids=["invalid", "non-finite", "boolean", "prefix-section", "key-case",
        "unknown-section", "default-with-keys"])
def test_bad_section_key_or_value_names_file_section_and_key(tmp_path, text,
                                                             message):
    path = _write(tmp_path, text)
    assert _error(path) == f"{path}: {message}"


@pytest.mark.parametrize("text, message", [
    ("[run]\ncount = 2\n\n[run]\n", "4: [run]: repeated"),
    ("[names]\na = b\nB = c\na = d\n", "4: [names] a: repeated"),
    ("count = 2\n[run]\n", "1: not a key = value line under a [section] "
                           "header"),
    ("[run]\ncount = 2\njunk\n", "3: not a key = value line under a "
                                 "[section] header"),
    (b"[names]\na = caf\xe9\n", "2: byte 0xe9 is not utf-8 text"),
], ids=["repeated-section", "repeated-key", "no-header", "no-equals",
        "not-utf8"])
def test_unparsable_file_is_one_line_naming_file_and_line(tmp_path, text,
                                                          message):
    path = _write(tmp_path, text)
    assert _error(path) == f"{path}:{message}"


def test_unreadable_file_is_a_value_error_naming_it(tmp_path):
    assert _error(tmp_path) == f"{tmp_path}: cannot read: Is a directory"


# -- fuzz: both readers return or raise one ValueError naming the file ------

SECTIONS = ["generator", "tasks", "classes", "nesting", "experts", "fusion",
            "task:app", "task:Tool", "DEFAULT", "extra", "Generator"]
KEYS = ["seed", "flows_per_class", "nb", "npkt", "separation", "sede",
        "files", "mode", "lr", "epochs", "batch_size", "dropout",
        "unfreeze_experts", "experts", "labels", "alpha", "app", "App",
        "c0", "ToolA", "Seed"]
VALUES = ["1", "0", "-1", "2.5", "x", "a b", "50%", "%(x)s", "I", "iii",
          "yes", "maybe", "a.snke b.snke", "0 1", "nan", ""]


@st.composite
def ini_lines(draw):
    line = st.one_of(
        st.sampled_from(SECTIONS).map(lambda name: f"[{name}]".encode()),
        st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)).map(
            lambda kv: f"{kv[0]} = {kv[1]}".encode()),
        st.sampled_from([b"", b"# comment", b"junk", b"# caf\xe9",
                         b"app = \xff"]))
    return draw(st.lists(line, max_size=12))


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=ini_lines())
def test_config_fuzz_returns_or_raises_one_error_naming_the_file(tmp_path,
                                                                 lines):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for reader in (GeneratorSpec.from_config, load_fusion_config):
        try:
            reader(path)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(str(path)), message
            assert "\n" not in message, message
