import numpy as np
import pytest

from mfgcoef.fieldio import (
    read_field,
    read_pgm,
    write_csv,
    write_field,
    write_json,
    write_pgm,
    write_rows,
)
from mfgcoef.grid import (
    BOUNDARY_TRACE,
    GAMMA_TRACE,
    SPACE_TIME,
    SPATIAL,
    Field,
    SpaceTimeGrid,
)

RANKS = (SPATIAL, SPACE_TIME, GAMMA_TRACE, BOUNDARY_TRACE)


def read_csv(path) -> Field:
    """Reference reader for ``write_csv``: the rank and grid comments, then the values."""
    rank = grid = None
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# rank "):
                rank = line[len("# rank "):]
            elif line.startswith("# grid "):
                tokens = line[len("# grid "):].split()
                a, b, hw, horizon = (float(x) for x in tokens[:4])
                n1, n2, nt = (int(x) for x in tokens[4:])
                grid = SpaceTimeGrid(
                    a=a, b=b, half_width=hw, horizon=horizon, n1=n1, n2=n2, nt=nt
                )
            elif line and not line.startswith("#") and not line[0].isalpha():
                values.append(float(line.rsplit(",", 1)[1]))
    if rank is None or grid is None:
        raise ValueError(f"missing rank/grid header comments: {path}")
    return Field(grid, rank, np.asarray(values).reshape(Field.expected_shape(grid, rank)))


def small_grid():
    return SpaceTimeGrid(a=1.0, b=2.0, half_width=0.5, horizon=1.0, n1=5, n2=4, nt=3)


def random_field(grid, rank, seed=0):
    rng = np.random.default_rng(seed)
    shape = Field.expected_shape(grid, rank)
    # irrational-looking doubles so exact equality is a real test
    return Field(grid, rank, rng.standard_normal(shape) * np.pi)


@pytest.mark.parametrize("rank", RANKS)
def test_container_round_trip_is_bit_exact(tmp_path, rank):
    field = random_field(small_grid(), rank)
    path = tmp_path / "f.field"
    write_field(path, field)
    back = read_field(path)
    assert back.rank == rank
    assert back.grid == field.grid
    assert back.values.dtype == np.float64
    assert np.array_equal(
        back.values.view(np.uint64), field.values.view(np.uint64)
    )


def test_container_rejects_truncated_payload(tmp_path):
    field = random_field(small_grid(), SPATIAL)
    path = tmp_path / "f.field"
    write_field(path, field)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload length"):
        read_field(path)


def test_container_rejects_wrong_magic(tmp_path):
    path = tmp_path / "f.field"
    path.write_bytes(b"something-else 1\nend\n")
    with pytest.raises(ValueError, match="field container"):
        read_field(path)


@pytest.mark.parametrize("key", ["rank", "counts", "grid", "payload"])
def test_container_names_a_missing_header_line(tmp_path, key):
    path = tmp_path / "f.field"
    write_field(path, random_field(small_grid(), SPATIAL))
    raw = path.read_bytes()
    head, sep, payload = raw.partition(b"\nend\n")
    kept = [line for line in head.split(b"\n") if line.split(b" ")[0] != key.encode()]
    path.write_bytes(b"\n".join(kept) + sep + payload)
    with pytest.raises(ValueError, match=f"no '{key}' line"):
        read_field(path)


def test_container_names_a_missing_end_line(tmp_path):
    path = tmp_path / "f.field"
    path.write_bytes(b"mfgcoef-field 1\nrank spatial\n")
    with pytest.raises(ValueError, match="no 'end' line") as info:
        read_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("rank", RANKS)
def test_csv_round_trip_is_exact(tmp_path, rank):
    field = random_field(small_grid(), rank, seed=3)
    path = tmp_path / "f.csv"
    write_csv(path, field)
    back = read_csv(path)
    assert back.rank == rank
    assert back.grid == field.grid
    # 17 significant digits reproduce every double exactly
    assert np.array_equal(back.values, field.values)


def test_csv_requires_header_comments(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x1,x2,value\n1.0,0.0,2.0\n")
    with pytest.raises(ValueError, match="rank/grid"):
        read_csv(path)


def test_pgm_scales_extremes_to_full_range(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "f.pgm"
    write_pgm(path, values)
    levels = read_pgm(path)
    assert levels.min() == 0 and levels.max() == 255
    # top-left pixel is (low x1, high x2)
    assert levels[0, 0] == round(values[0, 1] / 4.0 * 255)
    sidecar = (tmp_path / "f.pgm.json").read_text()
    assert '"constant": false' in sidecar
    assert '"min": 0.0' in sidecar


def test_pgm_constant_field_is_flagged_mid_gray(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(path, np.full((4, 3), 7.5))
    levels = read_pgm(path)
    assert (levels == 128).all()
    assert '"constant": true' in (tmp_path / "f.pgm.json").read_text()


def test_pgm_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="2-d"):
        write_pgm(tmp_path / "f.pgm", np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_refuses_non_finite_values_before_writing(tmp_path, bad):
    values = np.ones((3, 4))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="finite values"):
        write_pgm(tmp_path / "f.pgm", values)
    assert list(tmp_path.iterdir()) == []


def test_json_is_strict_and_refused_values_leave_no_file(tmp_path):
    write_json(tmp_path / "ok.json", {"b": 0.1, "a": [1, "\u00e9"]})
    assert (tmp_path / "ok.json").read_text() == (
        '{\n  "a": [\n    1,\n    "\\u00e9"\n  ],\n  "b": 0.1\n}\n'
    )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"x": [bad]})
    assert not (tmp_path / "bad.json").exists()


def test_rows_print_floats_to_17_digits_and_ints_and_strings_as_they_are(tmp_path):
    path = tmp_path / "r.csv"
    write_rows(path, ["# note", "name,n,x"], [("a", 3, 0.1), ("b", np.int64(4), np.float64(1) / 3)])
    assert path.read_text() == (
        "# note\nname,n,x\na,3,0.10000000000000001\nb,4,0.33333333333333331\n"
    )
