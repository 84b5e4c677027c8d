"""Exit codes and error reporting of the command-line pipeline."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import zlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import schoolsense
from schoolsense import cli, ingest
from schoolsense.ingest import RECORD, SeriesStore, parse_catalog
from schoolsense.model import parse_iso8601, to_epoch

SPEC = {
    "seed": 5,
    "start": "2017-10-02",
    "days": 9,
    "sensing_rate": 600,
    "sites": [{"site_id": "s1", "rooms": [{"room_id": "a", "occupant_events": 1}]}],
}
COMFORT = ["--from", "2017-10-09", "--to", "2017-10-11"]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Synthesized inputs, ingested and repaired once for the whole module."""
    root = tmp_path_factory.mktemp("prepared")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert cli.main(["synth", str(root / "spec.json"), "--out", str(root / "inputs")]) == 0
    _write_config(root)
    for command in ("ingest", "quality"):
        assert cli.main([command, "--config", str(root / "config.json")]) == 0
    return root


def _write_config(root, **overrides):
    inputs = root / "inputs"
    config = {
        "catalog": str(inputs / "catalog.json"),
        "weather": str(inputs / "weather.csv"),
        "store": str(root / "store"),
        "out": str(root / "out"),
        "measurements": [str(inputs / "measurements" / "s1.csv")],
        **overrides,
    }
    (root / "config.json").write_text(json.dumps(config))
    return ["--config", str(root / "config.json")]


@pytest.fixture
def work(prepared, tmp_path):
    """A private copy of the prepared workspace."""
    root = tmp_path / "work"
    shutil.copytree(prepared, root)
    _write_config(root)
    return root


def _run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    return code, capsys.readouterr().err


def _assert_one_error_line(err):
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1, err


def _truncate_records(store_root):
    records_file = store_root / "s1" / "s1-a-temp" / "records.bin"
    records_file.write_bytes(records_file.read_bytes()[:-RECORD.itemsize])


@pytest.mark.parametrize("key, value", [
    ("spike_sigma", "abc"),
    ("spike_sigma", 5.0),
    ("min_window_samples", 0),
    ("lookback_days", 7),
    ("acceptability", 90),
    ("env_window_hours", 24.0),
    ("event_drop", 2.0),
])
def test_removed_config_key_exits_2_naming_it(work, capsys, key, value):
    # the analysis is the same for every building; the config names paths only
    code, err = _run(["quality", *_write_config(work, **{key: value})], capsys)
    assert code == 2
    assert key in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("command, flag", [("quality", "--out"), ("ingest", "--measurements")])
def test_config_paths_have_no_flag_overrides(work, capsys, command, flag):
    argv = [command, flag, str(work / "elsewhere"), "--config", str(work / "config.json")]
    code, err = _run(argv, capsys)
    assert code == 2
    _assert_one_error_line(err)


@pytest.mark.parametrize("command", [["comfort", *COMFORT], ["perf"]])
def test_truncated_repaired_partition_exits_1(work, capsys, command):
    _truncate_records(work / "out" / "repaired")
    code, err = _run([*command, "--config", str(work / "config.json")], capsys)
    assert code == 1
    assert "row count" in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("command, store", [
    (["quality"], "store"),
    (["perf"], "out/repaired"),
])
def test_corrupt_manifest_exits_1(work, capsys, command, store):
    (work / store / "s1" / "s1-a-temp" / "manifest.json").write_text("{")
    code, err = _run([*command, "--config", str(work / "config.json")], capsys)
    assert code == 1
    assert "corrupt manifest" in err
    _assert_one_error_line(err)


def _edit_manifest(manifest, edit):
    """Replace the manifest by `edit` of it."""
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))


def _set_record(records_file, manifest, row, **fields):
    """Change record `row` and restamp the file's crc32, so that the checks
    after the crc are the ones that see the change."""
    records = np.fromfile(records_file, RECORD)
    for name, value in fields.items():
        records[name][row] = value
    records_file.write_bytes(records.tobytes())
    _edit_manifest(manifest, lambda entry: dict(entry, crc32=zlib.crc32(records.tobytes())))


def _noon_of_next_day(records_file):
    """Noon of the day after the first record's, past the second record's stamp."""
    first = int(np.fromfile(records_file, RECORD)["t"][0])
    return (first // 86400 + 1) * 86400 + 12 * 3600


def _cut_first_record(records_file, cut):
    """Cut bytes from the end of the first record."""
    data = records_file.read_bytes()
    records_file.write_bytes(data[:RECORD.itemsize - cut] + data[RECORD.itemsize:])


def _flip_byte(records_file, at=RECORD.itemsize + 8):
    """Flip the lowest mantissa bit of the second value: only the crc32 can tell."""
    data = bytearray(records_file.read_bytes())
    data[at] ^= 0x01
    records_file.write_bytes(bytes(data))


def _append_bytes(path, data=b"\xff\xfe"):
    path.write_bytes(path.read_bytes() + data)


# damage -> (how to do it to the record file or to the manifest, what the error says)
STORE_DAMAGE = {
    "truncated partition": (
        lambda records, manifest: _cut_first_record(records, cut=5), "row count"),
    "trailing bytes": (lambda records, manifest: _append_bytes(records), "row count"),
    "row count off by one": (
        lambda records, manifest: _edit_manifest(
            manifest, lambda entry: dict(entry, rows=entry["rows"] + 1)), "row count"),
    "flipped byte": (lambda records, manifest: _flip_byte(records), "crc32"),
    "repeated timestamp": (
        lambda records, manifest: _set_record(
            records, manifest, 2, t=np.fromfile(records, RECORD)["t"][1]),
        "row 3: timestamp not after"),
    "timestamp of another day": (
        lambda records, manifest: _set_record(records, manifest, 0,
                                              t=_noon_of_next_day(records)),
        "row 2: timestamp not after"),
    "bad timestamp": (
        lambda records, manifest: _set_record(records, manifest, 1,
                                              t=np.iinfo(np.int64).min),
        "row 2: timestamp not after"),
    "non-numeric value": (
        lambda records, manifest: _set_record(records, manifest, 1, v=np.nan),
        "row 2: non-finite value"),
    "infinite value": (
        lambda records, manifest: _set_record(records, manifest, -1, v=-np.inf),
        "non-finite value"),
    "non-UTF-8 manifest": (
        lambda records, manifest: _append_bytes(manifest), "corrupt manifest"),
    # the manifest of the CSV partitions mapped each day to its row count
    "CSV-era manifest": (
        lambda records, manifest: _edit_manifest(
            manifest, lambda entry: {"2017-10-02": entry["rows"]}),
        "re-run ingest"),
}


@pytest.mark.parametrize("damage", sorted(STORE_DAMAGE))
@pytest.mark.parametrize("command, store", [
    (["quality"], "store"),
    (["perf"], "out/repaired"),
])
def test_damaged_store_exits_1_naming_the_file(work, capsys, command, store, damage):
    sensor_dir = work / store / "s1" / "s1-a-temp"
    records, manifest = sensor_dir / "records.bin", sensor_dir / "manifest.json"
    do_damage, message = STORE_DAMAGE[damage]
    do_damage(records, manifest)
    code, err = _run([*command, "--config", str(work / "config.json")], capsys)
    assert code == 1
    named = manifest if "manifest" in damage else records
    assert f"error: {named}: " in err
    assert message in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("command, store", [
    (["ingest"], "store"),
    (["quality"], "store"),
    (["perf"], "out/repaired"),
])
def test_store_with_per_day_files_exits_1(work, capsys, command, store):
    # the layout before one record file per sensor: <day>.bin files, and a
    # manifest mapping each day to its rows and crc32
    sensor_dir = work / store / "s1" / "s1-a-temp"
    records = np.fromfile(sensor_dir / "records.bin", RECORD)
    entries = {}
    for day in np.unique(records["t"] // 86400).tolist():
        data = records[records["t"] // 86400 == day].tobytes()
        name = (date(1970, 1, 1) + timedelta(days=day)).isoformat()
        (sensor_dir / f"{name}.bin").write_bytes(data)
        entries[name] = {"rows": len(data) // RECORD.itemsize, "crc32": zlib.crc32(data)}
    (sensor_dir / "manifest.json").write_text(json.dumps(entries))
    (sensor_dir / "records.bin").unlink()
    conf = ["--config", str(work / "config.json")]
    code, err = _run([*command, *conf], capsys)
    if command == ["ingest"]:
        # a save never reads the old files, so ingest writes a store quality reads
        assert code == 0, err
        assert _run(["quality", *conf], capsys) == (0, "")
    else:
        assert code == 1
        assert f"error: {sensor_dir / 'manifest.json'}: store of an older version" in err
        assert "re-run ingest" in err
        _assert_one_error_line(err)


@pytest.mark.parametrize("command, overrides, expected", [
    (["quality"], {"colour": "blue"}, 2),
    (["ingest"], {"catalog": "missing/catalog.json"}, 1),
    (["ingest"], {"measurements": ["missing/m.csv"]}, 1),
    (["comfort", *COMFORT], {"weather": "missing/weather.csv"}, 1),
    (["ingest"], {"measurements": []}, 2),
    (["ingest"], {"measurements": 5}, 2),
    (["ingest"], {"catalog": 5}, 2),
])
def test_config_problems_map_to_exit_codes(work, capsys, command, overrides, expected):
    conf = _write_config(work, **overrides)
    code, err = _run([*command, *conf], capsys)
    assert code == expected
    _assert_one_error_line(err)


@pytest.mark.parametrize("key", ["catalog", "store", "out"])
def test_required_path_null_exits_2(work, capsys, key):
    code, err = _run(["ingest", *_write_config(work, **{key: None})], capsys)
    assert code == 2
    assert f"{key} must be a path" in err
    _assert_one_error_line(err)


def test_missing_scenario_spec_exits_1(tmp_path, capsys):
    code, err = _run(["synth", str(tmp_path / "nope.json"), "--out", str(tmp_path)], capsys)
    assert code == 1
    _assert_one_error_line(err)


def test_catalog_value_of_the_wrong_json_type_exits_2(work, capsys):
    catalog = json.loads((work / "inputs" / "catalog.json").read_text())
    catalog["sites"][0]["cold_climate"] = "false"
    (work / "bad_catalog.json").write_text(json.dumps(catalog))
    code, err = _run(["quality", *_write_config(work, catalog=str(work / "bad_catalog.json"))],
                     capsys)
    assert code == 2
    assert "cold_climate must be true or false, got 'false'" in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("edit, message", [
    (lambda catalog: catalog["sites"][0].update(start_time=5), "start_time must be a string"),
    (lambda catalog: catalog["sites"][0].update(start_time=["2017-10-02T00:00:00Z"]),
     "start_time must be a string"),
    (lambda catalog: catalog.update(sensors=None), "sensors must be a list of objects"),
    (lambda catalog: catalog["sites"][0]["rooms"][0].update(room_id=None),
     "room_id must be a string"),
], ids=["start_time-int", "start_time-list", "sensors-null", "room_id-null"])
def test_malformed_catalog_shape_exits_2(work, capsys, edit, message):
    catalog = json.loads((work / "inputs" / "catalog.json").read_text())
    edit(catalog)
    (work / "bad_catalog.json").write_text(json.dumps(catalog))
    code, err = _run(["quality", *_write_config(work, catalog=str(work / "bad_catalog.json"))],
                     capsys)
    assert code == 2
    assert message in err
    _assert_one_error_line(err)


def test_spec_value_of_the_wrong_json_type_exits_2(tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps(dict(SPEC, days=2.9)))
    code, err = _run(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert "days must be an integer, got 2.9" in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("field, value", [
    ("tz_offset_minutes", 100000), ("latitude", 500.0), ("longitude", -900.0)])
def test_catalog_site_value_out_of_range_exits_2(work, capsys, field, value):
    catalog = json.loads((work / "inputs" / "catalog.json").read_text())
    catalog["sites"][0][field] = value
    (work / "bad_catalog.json").write_text(json.dumps(catalog))
    code, err = _run(["quality", *_write_config(work, catalog=str(work / "bad_catalog.json"))],
                     capsys)
    assert code == 2
    assert f"{field} must lie in" in err
    _assert_one_error_line(err)


@pytest.mark.parametrize("site, message", [
    ({"site_id": "../../escaped"}, "site_id '../../escaped' cannot name a store directory"),
    ({"site_id": ".."}, "site_id '..' cannot name a store directory"),
    ({"site_id": 7}, "site_id must be a string, got 7"),
    ({"site_id": "s1", "rooms": [{"room_id": "a,b"}]}, "room_id 'a,b' cannot be part of"),
    ({"site_id": "s1", "rooms": [{"room_id": "a/b"}]}, "room_id 'a/b' cannot be part of"),
    ({"site_id": "s1", "rooms": [{"room_id": 3}]}, "room_id must be a string, got 3"),
], ids=["site-escapes-out", "site-dotdot", "site-int", "room-comma", "room-slash", "room-int"])
def test_spec_id_that_cannot_name_a_file_exits_2_writing_nothing(tmp_path, capsys, site, message):
    (tmp_path / "spec.json").write_text(json.dumps(dict(SPEC, sites=[site])))
    out = tmp_path / "a" / "b" / "out"
    code, err = _run(["synth", str(tmp_path / "spec.json"), "--out", str(out)], capsys)
    assert code == 2
    assert message in err
    _assert_one_error_line(err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["spec.json"]


@pytest.mark.parametrize("field, value", [
    ("tz_offset_minutes", 100000), ("latitude", 500.0), ("longitude", -900.0)])
def test_spec_site_value_out_of_range_exits_2(tmp_path, capsys, field, value):
    spec = dict(SPEC, sites=[dict(SPEC["sites"][0], **{field: value})])
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code, err = _run(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert f"{field} must lie in" in err
    _assert_one_error_line(err)


def test_malformed_measurements_name_the_file(work, capsys):
    bad = work / "bad.csv"
    bad.write_text("sensor_id,timestamp,value\ns1-a-temp,2017-10-02T00:00:00Z\n")
    code, err = _run(["ingest", *_write_config(work, measurements=[str(bad)])], capsys)
    assert code == 2
    assert f"{bad}: line 2" in err
    _assert_one_error_line(err)


def _fresh_process_env() -> dict:
    """The environment of a fresh process that imports `schoolsense` and the test helpers."""
    paths = (str(Path(schoolsense.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _fresh_ingest(config) -> subprocess.CompletedProcess:
    """`ingest` with the config, in a fresh process, so that a crash fails one test alone."""
    code = "import sys\nfrom schoolsense import cli\nsys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, "ingest", *config],
                          env=_fresh_process_env(), capture_output=True, text=True, timeout=60)


def test_bad_stamp_in_a_large_file_exits_2_naming_its_line(work):
    """A month 13 in a 1,000-row file, in a fresh process, so that a crash
    fails this test alone."""
    lines = (work / "inputs" / "measurements" / "s1.csv").read_text().splitlines()[:1001]
    bad_row = 700
    lines[bad_row] = lines[bad_row].replace("-10-", "-13-", 1)
    bad = work / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    config = _write_config(work, measurements=[str(bad)])
    code = "\n".join((
        "import sys",
        "from schoolsense import cli",
        "from schoolsense.model import ModelError",
        "from conftest import parse_stamps",
        "rows = open(sys.argv[1]).read().splitlines()[1:]",
        "try:",
        "    parse_stamps([row.split(',')[1] for row in rows])",
        "except ModelError as exc:",
        "    print('index', exc.index)",
        "sys.exit(cli.main(sys.argv[2:]))",
    ))
    run = subprocess.run([sys.executable, "-c", code, str(bad), "ingest", *config],
                         env=_fresh_process_env(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stdout.splitlines()[0] == f"index {bad_row - 1}"
    assert f"{bad}: line {bad_row + 1}" in run.stderr
    _assert_one_error_line(run.stderr)


@pytest.mark.parametrize("value, message", [
    ("21.5x", "bad value '21.5x'"),
    ("inf", "non-finite value 'inf'"),
])
def test_bad_value_in_a_large_file_exits_2_naming_its_line(work, value, message):
    """A bad value at line 701 of a 1,000-row file, in a fresh process."""
    lines = (work / "inputs" / "measurements" / "s1.csv").read_text().splitlines()[:1001]
    bad_row = 700
    sensor_id, stamp, _ = lines[bad_row].split(",")
    lines[bad_row] = f"{sensor_id},{stamp},{value}"
    bad = work / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    run = _fresh_ingest(_write_config(work, measurements=[str(bad)]))
    assert run.returncode == 2, run.stderr
    assert f"{bad}: line {bad_row + 1}: {message}" in run.stderr
    _assert_one_error_line(run.stderr)


@pytest.mark.parametrize("errors, named, message", [
    (("value",), "value", "bad value '21.5x'"),
    (("stamp",), "stamp", "bad timestamp '2017-13-"),
    (("value", "stamp"), "stamp", "bad timestamp '2017-13-"),  # a stamp outranks a value
], ids=["value", "stamp", "value-then-stamp"])
def test_errors_past_the_first_block_name_their_lines(work, errors, named, message):
    """A bad value 1.5 reader blocks into a file and a bad stamp 2.5 blocks in, in a fresh
    process: each names its line in the file, and the stamp wins though it comes later."""
    header, *rows = (work / "inputs" / "measurements" / "s1.csv").read_text().splitlines()
    lines = [header, *rows * 4]  # a repeated stamp is no error: the last one wins
    ends = np.cumsum([len(line) + 1 for line in lines])
    assert ends[-1] > 3 * ingest._BLOCK
    at = {"value": int(np.searchsorted(ends, 1.5 * ingest._BLOCK)),
          "stamp": int(np.searchsorted(ends, 2.5 * ingest._BLOCK))}
    for error in errors:
        sensor_id, stamp, value = lines[at[error]].split(",")
        lines[at[error]] = (f"{sensor_id},{stamp},21.5x" if error == "value" else
                            f"{sensor_id},{stamp.replace('-10-', '-13-', 1)},{value}")
    bad = work / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    run = _fresh_ingest(_write_config(work, measurements=[str(bad)]))
    assert run.returncode == 2, run.stderr
    assert f"{bad}: line {at[named] + 1}: {message}" in run.stderr
    _assert_one_error_line(run.stderr)


@pytest.mark.parametrize("site_id, sensor_id, named", [
    ("s1", "..", "sensor_id '..'"),
    ("s1", "x/../..", "sensor_id 'x/../..'"),
    ("..", "", "site_id '..'"),
])
def test_catalog_id_outside_the_store_exits_2(work, capsys, site_id, sensor_id, named):
    catalog = json.loads((work / "inputs" / "catalog.json").read_text())
    catalog["sites"][0]["site_id"] = catalog["sensors"][0]["site_id"] = site_id
    catalog["sensors"][0]["sensor_id"] = sensor_id
    (work / "bad_catalog.json").write_text(json.dumps(catalog))
    store = work / "fresh" / "store"
    config = _write_config(work, catalog=str(work / "bad_catalog.json"), store=str(store))
    code, err = _run(["ingest", *config], capsys)
    assert code == 2
    assert f"{named} cannot name a store directory" in err
    _assert_one_error_line(err)
    assert not (work / "fresh").exists()


@pytest.mark.parametrize("command", ["ingest", "quality", "comfort", "perf"])
def test_catalog_room_id_that_would_split_a_report_row_exits_2(work, capsys, command):
    """A room id is a field of the comfort and perf report rows; with a comma in it,
    each such row would have one field more than its header."""
    catalog = json.loads((work / "inputs" / "catalog.json").read_text())
    for entry in [*catalog["sites"][0]["rooms"], *catalog["sensors"]]:
        if entry.get("room_id") == "a":
            entry["room_id"] = "a,b"
    (work / "bad_catalog.json").write_text(json.dumps(catalog))
    config = _write_config(work, catalog=str(work / "bad_catalog.json"))
    code, err = _run([command, *config, *(COMFORT if command == "comfort" else [])], capsys)
    assert code == 2
    assert "room_id 'a,b' cannot be a report field" in err
    _assert_one_error_line(err)


def test_non_utf8_measurements_exit_2(work, capsys):
    bad = work / "bad.csv"
    bad.write_bytes(b"sensor_id,timestamp,value\n\xff\xfe,1,2\n")
    code, err = _run(["ingest", *_write_config(work, measurements=[str(bad)])], capsys)
    assert code == 2
    assert str(bad) in err
    _assert_one_error_line(err)


def test_non_utf8_config_exits_2(work, capsys):
    _append_bytes(work / "config.json")
    code, err = _run(["quality", "--config", str(work / "config.json")], capsys)
    assert code == 2
    assert "config" in err
    _assert_one_error_line(err)


def test_non_utf8_spec_exits_2(work, capsys):
    spec = work / "spec.json"
    _append_bytes(spec)
    code, err = _run(["synth", str(spec), "--out", str(work / "synth")], capsys)
    assert code == 2
    assert f"cannot read spec {spec}" in err
    _assert_one_error_line(err)


# A locale whose encoding is ASCII, for files and file names alike.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _fresh_ascii_locale(argv) -> subprocess.CompletedProcess:
    """The command in a fresh process under `_ASCII_LOCALE`."""
    code = "import sys\nfrom schoolsense import cli\nsys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env={**_fresh_process_env(), **_ASCII_LOCALE},
                          capture_output=True, text=True, encoding="utf-8",
                          errors="backslashreplace", timeout=60)


def test_files_are_utf8_under_an_ascii_locale(work):
    """A non-ASCII room id in the catalog, under an ASCII locale: every stage reads and
    writes UTF-8, and its reports equal those of the same stages run in-process."""
    catalog = json.loads((work / "inputs" / "catalog.json").read_text(encoding="utf-8"))
    for entry in [*catalog["sites"][0]["rooms"], *catalog["sensors"]]:
        if entry.get("room_id") == "a":
            entry["room_id"] = "aula-ö"
    (work / "utf8_catalog.json").write_text(json.dumps(catalog, ensure_ascii=False),
                                            encoding="utf-8")
    runs = {}
    for name in ("fresh", "in_process"):
        config = _write_config(work, catalog=str(work / "utf8_catalog.json"),
                               store=str(work / name / "store"), out=str(work / name / "out"))
        for command in (["ingest"], ["quality"], ["comfort", *COMFORT], ["perf"]):
            argv = [command[0], *config, *command[1:]]
            if name == "fresh":
                run = _fresh_ascii_locale(argv)
                assert run.returncode == 0, run.stderr
            else:
                assert cli.main(argv) == 0
        out = work / name / "out"
        runs[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert runs["fresh"] == runs["in_process"]
    assert "aula-ö".encode() in runs["fresh"][Path("comfort_daily.csv")]


def test_file_name_the_locale_cannot_encode_exits_1(work):
    """A config naming a non-ASCII measurement file, under an ASCII locale: the file
    name has no form in the file system's encoding."""
    config = json.loads((work / "config.json").read_text(encoding="utf-8"))
    config["measurements"] = [str(work / "mätningar.csv")]
    (work / "config.json").write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
    run = _fresh_ascii_locale(["ingest", "--config", str(work / "config.json")])
    assert run.returncode == 1, run.stderr
    # stderr writes what it cannot encode as escapes
    assert "cannot encode" in run.stderr and r"m\xe4tningar.csv" in run.stderr
    _assert_one_error_line(run.stderr)


def test_config_root_must_be_an_object(work, capsys):
    (work / "config.json").write_text("[]")
    code, err = _run(["quality", "--config", str(work / "config.json")], capsys)
    assert code == 2
    _assert_one_error_line(err)


def test_quality_has_no_from_option(work, capsys):
    code, err = _run(["quality", "--config", str(work / "config.json"),
                      "--from", "2017-10-05"], capsys)
    assert code == 2
    _assert_one_error_line(err)


@pytest.mark.parametrize("end", ["2017-10-02", "2017-09-01"])
def test_quality_period_ending_before_every_start_exits_2(work, capsys, end):
    # the store starts 2017-10-02: an end on or before it leaves nothing to audit
    code, err = _run(["quality", "--config", str(work / "config.json"), "--to", end], capsys)
    assert code == 2
    assert end in err
    _assert_one_error_line(err)


def test_quality_site_starting_after_the_period_gets_no_row(work, capsys):
    catalog_path = work / "inputs" / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    catalog["sites"].append(dict(catalog["sites"][0], site_id="s2",
                                 start_time="2017-10-06T00:00:00Z"))
    catalog["sensors"].append(dict(catalog["sensors"][0], site_id="s2",
                                   sensor_id="s2-a-temp"))
    catalog_path.write_text(json.dumps(catalog))
    code, err = _run(["quality", "--config", str(work / "config.json"),
                      "--to", "2017-10-05"], capsys)
    assert code == 0, err
    out = work / "out"
    for report in ("quality_report.csv", "site_quality.csv"):
        site_ids = {row.split(",")[0] for row in (out / report).read_text().splitlines()[1:]}
        assert site_ids == {"s1"}, report
    categories = [row.split(",")[0]
                  for row in (out / "kind_quality.csv").read_text().splitlines()[1:]]
    assert categories == ["environmental", "atmospheric", "weather", "power"]


def test_quality_group_expecting_no_sample_gets_no_row(work, capsys):
    # the site starts 30 min before the period ends, so the 3600 s weather and
    # atmospheric sensors have no grid point in the period
    catalog_path = work / "inputs" / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    catalog["sites"][0]["start_time"] = "2017-10-04T23:30:00Z"
    catalog_path.write_text(json.dumps(catalog))
    code, err = _run(["quality", "--config", str(work / "config.json"),
                      "--to", "2017-10-05"], capsys)
    assert code == 0, err
    out = work / "out"
    categories = [row.split(",")[0]
                  for row in (out / "kind_quality.csv").read_text().splitlines()[1:]]
    assert categories == ["environmental", "power"]
    rates = {m.sensor_id: m.sensing_rate for m in parse_catalog(catalog_path.read_text()).sensors}
    rows = [row.split(",") for row in (out / "quality_report.csv").read_text().splitlines()[1:]]
    assert sorted(row[1] for row in rows) == sorted(rates)
    for _, sensor_id, day, expected, _, outage, *_ in rows:
        assert day == "2017-10-04"
        if rates[sensor_id] == 3600:
            assert (expected, outage) == ("0", "0.0"), sensor_id
        else:
            assert int(expected) == 1800 // rates[sensor_id], sensor_id
    assert [row.split(",")[0] for row in
            (out / "site_quality.csv").read_text().splitlines()[1:]] == ["s1"]


def test_quality_to_limits_repair_and_outlier_rates(tmp_path, capsys):
    spec = dict(SPEC, days=6, sites=[dict(SPEC["sites"][0], zero_error_rate=0.02,
                                          spike_rate=0.02)])
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert cli.main(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "inputs")]) == 0
    conf = _write_config(tmp_path)
    assert cli.main(["ingest", *conf]) == 0
    code, err = _run(["quality", *conf, "--to", "2017-10-04"], capsys)
    assert code == 0, err
    out = tmp_path / "out"
    catalog = parse_catalog((tmp_path / "inputs" / "catalog.json").read_text())
    header, *rows = (line.split(",") for line in
                     (out / "quality_report.csv").read_text().splitlines())
    flag_columns = [header.index(c) for c in ("zero_flags", "spike_flags", "bound_flags")]
    totals: dict[str, tuple[int, int]] = {}  # site or category -> (flags, observed)
    for row in rows:
        assert row[2] < "2017-10-04"
        meta = catalog.sensor(row[1])
        for group in (meta.site_id, meta.kind.category):
            flags, observed = totals.get(group, (0, 0))
            totals[group] = (flags + sum(int(row[c]) for c in flag_columns),
                             observed + int(row[header.index("observed")]))
    assert totals["s1"][0] > 0
    for report in ("site_quality.csv", "kind_quality.csv"):
        for line in (out / report).read_text().splitlines()[1:]:
            group, *_, outlier_pct = line.split(",")
            flags, observed = totals[group]
            assert float(outlier_pct) == 100.0 * flags / observed, (report, group)
    _assert_repaired_before(tmp_path, date(2017, 10, 4))


def _assert_repaired_before(root, end):
    """Every catalog sensor's repaired series is non-empty and ends before `end`."""
    catalog = parse_catalog((root / "inputs" / "catalog.json").read_text())
    repaired = SeriesStore(root / "out" / "repaired")
    for meta in catalog.sensors:
        times = repaired.load(meta.site_id, meta.sensor_id).series.times
        assert len(times) and times[-1] < to_epoch(end), meta.sensor_id


def test_quality_to_replaces_a_longer_repair(work, capsys):
    # the workspace was repaired over all 9 days; a run with --to must not leave
    # those later days in the repaired store for perf to report
    conf = ["--config", str(work / "config.json")]
    code, err = _run(["quality", *conf, "--to", "2017-10-05"], capsys)
    assert code == 0, err
    assert cli.main(["perf", *conf]) == 0
    _assert_repaired_before(work, date(2017, 10, 5))
    swing_rows = (work / "out" / "perf_swings.csv").read_text().splitlines()[1:]
    assert [row for row in swing_rows if row.split(",")[2] >= "2017-10-05"] == []


def test_quality_ignores_samples_before_the_site_start(tmp_path, capsys):
    # the measurements begin on 2017-10-02, and the catalog starts the site at
    # noon on 2017-10-06: the earlier samples reach no report and no repaired series
    spec = dict(SPEC, sites=[dict(SPEC["sites"][0], zero_error_rate=0.05)])
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert cli.main(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "inputs")]) == 0
    start = "2017-10-06T12:00:00Z"
    catalog_path = tmp_path / "inputs" / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    catalog["sites"][0]["start_time"] = start
    catalog_path.write_text(json.dumps(catalog))
    every = tmp_path / "inputs" / "measurements" / "s1.csv"
    header, *lines = every.read_text().splitlines()
    after = [line for line in lines if line.split(",")[1] >= start]
    assert 0 < len(after) < len(lines)
    (tmp_path / "after.csv").write_text("\n".join([header, *after]) + "\n")

    outputs = {}
    for name, measurements in (("every", every), ("after", tmp_path / "after.csv")):
        conf = _write_config(tmp_path, store=str(tmp_path / name / "store"),
                             out=str(tmp_path / name / "out"), measurements=[str(measurements)])
        for command in ("ingest", "quality"):
            code, err = _run([command, *conf], capsys)
            assert code == 0, err
        out = tmp_path / name / "out"
        outputs[name] = {str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
    # reports and repaired series alike
    assert outputs["every"] == outputs["after"]

    columns, *rows = (line.split(",") for line in
                      (tmp_path / "every" / "out" / "quality_report.csv").read_text().splitlines())
    assert min(row[2] for row in rows) == "2017-10-06"
    assert sum(int(row[columns.index("zero_flags")]) for row in rows
               if row[2] == "2017-10-06") > 0
    repaired = SeriesStore(tmp_path / "every" / "out" / "repaired")
    for meta in parse_catalog(catalog_path.read_text()).sensors:
        times = repaired.load(meta.site_id, meta.sensor_id).series.times
        assert times[0] == parse_iso8601(start), meta.sensor_id


@pytest.mark.parametrize("command", ["comfort", "perf"])
@pytest.mark.parametrize("start, end", [
    ("2017-10-10", "2017-10-05"),
    ("2017-10-05", "2017-10-05"),
])
def test_period_not_forward_exits_2_naming_both_dates(work, capsys, command, start, end):
    code, err = _run([command, "--config", str(work / "config.json"),
                      "--from", start, "--to", end], capsys)
    assert code == 2
    assert f"--from {start}" in err and f"--to {end}" in err
    _assert_one_error_line(err)


def _perf_reports(work, *period):
    assert cli.main(["perf", "--config", str(work / "config.json"), *period]) == 0
    return {p.name: p.read_bytes() for p in sorted((work / "out").glob("perf_*"))}


@pytest.mark.parametrize("bound, equivalent", [
    (["--from", "2017-10-09"], ["--from", "2017-10-09", "--to", "2017-10-11"]),
    (["--to", "2017-10-07"], ["--from", "2017-10-02", "--to", "2017-10-07"]),
])
def test_perf_applies_each_bound_alone(work, bound, equivalent):
    # the store holds 2017-10-02 .. 2017-10-10
    alone = _perf_reports(work, *bound)
    assert alone == _perf_reports(work, *equivalent)
    assert alone != _perf_reports(work)


def test_perf_notes_each_room_without_weekend_samples(work):
    # 2017-10-02 is a Monday, so the period holds school days only
    _perf_reports(work, "--from", "2017-10-02", "--to", "2017-10-07")
    rooms = sorted(r.room_id for r in
                   parse_catalog((work / "inputs" / "catalog.json").read_text()).sites[0].rooms)
    notes = [line for line in (work / "out" / "perf_anomalies.txt").read_text().splitlines()
             if line.startswith("#")]
    assert rooms and notes == [f"# correlation skipped: {room}: no weekend samples"
                               for room in rooms]


def test_ingest_later_file_wins_repeated_timestamp(work, capsys):
    first = work / "first.csv"
    second = work / "second.csv"
    first.write_text("sensor_id,timestamp,value\n"
                     "s1-a-temp,2017-10-02T00:00:00Z,20.0\n"
                     "s1-a-temp,2017-10-02T00:10:00Z,21.0\n")
    second.write_text("sensor_id,timestamp,value\n"
                      "s1-a-temp,2017-10-02T00:20:00Z,22.0\n"
                      "s1-a-temp,2017-10-02T00:10:00Z,25.0\n")
    store = work / "fresh_store"
    conf = _write_config(work, store=str(store), measurements=[str(first), str(second)])
    assert cli.main(["ingest", *conf]) == 0
    assert capsys.readouterr().out.startswith("ingested 3 samples from 2 files")
    loaded = SeriesStore(store).load("s1", "s1-a-temp").series
    assert loaded.values.tolist() == [20.0, 25.0, 22.0]
    assert np.all(np.diff(loaded.times) == 600)


def test_ingest_replaces_every_catalog_sensor(work, capsys):
    # the workspace store holds all 9 days; a new ingest leaves only what it read
    only = work / "only.csv"
    only.write_text("sensor_id,timestamp,value\n"
                    "s1-a-temp,2017-10-20T00:00:00Z,20.0\n")
    assert cli.main(["ingest", *_write_config(work, measurements=[str(only)])]) == 0
    store = SeriesStore(work / "store")
    catalog = parse_catalog((work / "inputs" / "catalog.json").read_text())
    lengths = {meta.sensor_id: len(store.load(meta.site_id, meta.sensor_id).series)
               for meta in catalog.sensors}
    assert lengths == {sensor_id: int(sensor_id == "s1-a-temp") for sensor_id in lengths}
    empty = json.loads((work / "store" / "s1" / "s1-power" / "manifest.json").read_text())
    assert empty == {"crc32": 0, "rows": 0}


def _power_spike_flags(out):
    rows = [line.split(",") for line in (out / "quality_report.csv").read_text().splitlines()]
    column = rows[0].index("spike_flags")
    return {row[2]: int(row[column]) for row in rows[1:] if row[1] == "s1-power"}


def test_quality_survives_huge_power_readings(work, capsys):
    # the running mean of 1e200 readings squares past the float range, and once
    # they leave the window the running sums must not stay poisoned
    unmodified = _power_spike_flags(work / "out")
    lines = (work / "inputs" / "measurements" / "s1.csv").read_text().splitlines()
    power = [i for i, line in enumerate(lines) if line.startswith("s1-power,")]
    for i in power[:29]:
        lines[i] = lines[i].rsplit(",", 1)[0] + ",1e200"
    huge = work / "huge.csv"
    huge.write_text("\n".join(lines) + "\n")
    conf = _write_config(work, store=str(work / "huge_store"), measurements=[str(huge)])
    assert cli.main(["ingest", *conf]) == 0
    code, err = _run(["quality", *conf], capsys)
    assert code == 0, err
    assert "Traceback" not in err
    huge_day = lines[power[0]].split(",")[1][:10]
    after = {day: n for day, n in _power_spike_flags(work / "out").items() if day > huge_day}
    assert after == {day: n for day, n in unmodified.items() if day > huge_day}
