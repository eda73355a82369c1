import csv
import io
import os

import numpy as np
import pytest

from ionpulse.analysis import PowerMap, save_power_map_csv
from ionpulse.artifacts import write_csv, write_npz


class StoppedPartway(Exception):
    pass


def rows_then_stop(rows):
    yield from rows
    raise StoppedPartway


class PartialPowerMap(PowerMap):
    """A power map whose rows stop after the third, as a killed stage's would."""

    def computed_pairs(self):
        return rows_then_stop(super().computed_pairs()[:3])


def power_map(n_ions=6, value=2 * np.pi * 1e5):
    matrix = np.full((n_ions, n_ions), value)
    np.fill_diagonal(matrix, np.nan)
    return PowerMap(omega_max=matrix)


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "powermap_A.csv"
    save_power_map_csv(power_map(), path)
    previous = path.read_bytes()
    with pytest.raises(StoppedPartway):
        save_power_map_csv(PartialPowerMap(power_map(value=2 * np.pi * 2e5).omega_max), path)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["powermap_A.csv"]


def test_failed_write_leaves_no_file(tmp_path):
    with pytest.raises(StoppedPartway):
        write_csv(tmp_path / "sweep.csv", ["offset_hz", "error"], rows_then_stop([(1.0, 2.0)]))
    assert os.listdir(tmp_path) == []


def test_new_artifact_has_the_mode_of_a_plain_open(tmp_path):
    # the temp file is made by open, not mkstemp, whose files are 0600 under any umask
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain.csv", "w"):
            pass
        write_csv(tmp_path / "written.csv", ["index"], [(1,)])
    finally:
        os.umask(umask)
    assert os.stat(tmp_path / "written.csv").st_mode == os.stat(tmp_path / "plain.csv").st_mode


def test_csv_bytes_match_csv_writer(tmp_path):
    rows = [(1, 1e-300, -0.0), (-2, 1e300, 5e-324), (3, -1.0 / 3.0, float("inf"))]
    write_csv(tmp_path / "a.csv", ["i", "x", "y"], rows)
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["i", "x", "y"])
    for i, x, y in rows:
        writer.writerow([i, repr(float(x)), repr(float(y))])
    assert (tmp_path / "a.csv").read_bytes() == reference.getvalue().encode()


def test_failed_npz_write_keeps_the_previous_file(tmp_path):
    # an object array would need a pickle, so it is refused after t_s is written
    path = tmp_path / "trajectories_A.npz"
    write_npz(path, t_s=np.linspace(0.0, 1.0, 5))
    previous = path.read_bytes()
    with pytest.raises(ValueError, match="allow_pickle"):
        write_npz(path, t_s=np.arange(3.0), alpha=np.array([None, 1.0], dtype=object))
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["trajectories_A.npz"]


def test_npz_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    arrays = {"t_s": np.array([-0.0, 5e-324, 1e300]), "mode": np.arange(1, 4)}
    write_npz(tmp_path / "now.npz", **arrays)
    monkeypatch.setattr("time.time", lambda: 2e9)
    write_npz(tmp_path / "later.npz", **arrays)
    assert (tmp_path / "now.npz").read_bytes() == (tmp_path / "later.npz").read_bytes()
    with np.load(tmp_path / "later.npz", allow_pickle=False) as data:
        assert {name: data[name].tobytes() for name in data} == {
            name: value.tobytes() for name, value in arrays.items()}
