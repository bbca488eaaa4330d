"""output.write_csv, the float-table writer, against the per-float writer
and row generators it replaced (tests/oracles.py): the same bytes on
adversarial values and on every bundled ``run`` config, and the same
refusal of a non-finite float."""

from pathlib import Path

import numpy as np
import oracles
import pytest

from gstrands import clebsch, config, gstrand, output, peakon, scenarios
from gstrands.errors import BlowUpError
from gstrands.kernels import HelmholtzKernel

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
RUN_CONFIGS = sorted(p for p in CONFIGS.glob("*.yaml") if "study" not in p.stem)

ADVERSARIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.5, 1e16, 1e17,
               2.0 ** 53 + 2.0, 123456789.12345678, 0.12345678901234568,
               9.999999999999999e22, 1e-7, 0.001]


def per_float_rows(table, index_column=None):
    """table as rows of Python floats, with the index column as ints, the
    way the row generators made them."""
    rows = table.tolist()
    if index_column is not None:
        for row in rows:
            row[index_column] = int(row[index_column])
    return rows


def test_table_writer_matches_the_per_float_writer_on_adversarial_values(tmp_path):
    rng = np.random.default_rng(0)
    values = np.array(ADVERSARIAL)
    # 17-digit values across the exponent range, over more than two blocks
    n = 2 * output.CSV_BLOCK_ROWS + 3
    spread = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    table = np.column_stack([np.arange(n, dtype=float), spread,
                             np.resize(values, n), -np.resize(values[::-1], n)])
    header = ["a", "x", "y", "z"]
    path = tmp_path / "t.csv"
    output.write_csv(str(path), header, table)
    expected = oracles.per_float_csv(str(path), header, per_float_rows(table, 0))
    assert path.read_bytes() == expected.encode()
    # rows given as lists, an iterator, a callable or with a label column
    labeled = [[f"k{i}", x] for i, x in enumerate(ADVERSARIAL)]
    for header, rows, expected_rows in [
            (["a", "x"], table[:5].tolist(), table[:5].tolist()),
            (["a", "x"], iter(table[:5].tolist()), table[:5].tolist()),
            (["a", "x", "y", "z"], lambda: table[:7], table[:7].tolist()),
            (["check", "value"], labeled, labeled),
            (["t"], [], [])]:
        output.write_csv(str(path), header, rows)
        assert path.read_bytes() == oracles.per_float_csv(str(path), header,
                                                          expected_rows).encode()


# scenario -> the History fields its CSV writes, in order
SLICE_FIELDS = {"chiral_so3": ("nu", "gamma"), "se3_strand": ("nu", "gamma"),
                "cdb_so3": ("m", "w_t", "w_s"), "symm_rigid_soN": ("q", "mw", "nw"),
                "linear_rep": ("v", "m", "n")}
SIMULATES = [(peakon, "simulate"), (gstrand, "simulate"), (clebsch, "cdb_simulate"),
             (clebsch, "symm_rigid_simulate"), (clebsch, "linear_strand_simulate")]


def legacy_rows(cfg, hist, suffix, rows):
    """The rows the per-float writer was given for this CSV."""
    ds = scenarios.make_grid(cfg).ds
    if cfg.scenario == "verify_action":
        return rows
    if cfg.scenario in ("peakon_strand", "ch_classical"):
        if suffix == ".fields":
            return oracles.snapshot_rows(hist, HelmholtzKernel(cfg.params["alpha"]), ds)
        return oracles.peakon_rows(hist, ds)
    return oracles.slice_rows(hist, ds, [getattr(hist, f) for f in SLICE_FIELDS[cfg.scenario]])


@pytest.mark.parametrize("path", RUN_CONFIGS, ids=lambda p: p.stem)
def test_table_writer_matches_the_per_float_writer_on_bundled_runs(path, tmp_path, monkeypatch):
    hists = []
    for module, name in SIMULATES:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, _real=real: hists.append(_real(*args)) or hists[-1])
    cfg = config.load_config(str(path))
    header, rows, _, extras = scenarios.run_scenario(cfg)
    tables = {"": (header, rows), **{f".{k}": table for k, table in extras.items()}}
    for suffix, (head, body) in tables.items():
        out = tmp_path / f"{cfg.label}{suffix}.csv"
        output.write_csv(str(out), head, body)
        expected = oracles.per_float_csv(str(out), head, legacy_rows(cfg, hists[0], suffix, body))
        assert out.read_bytes() == expected.encode(), out.name


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_table_writer_refuses_a_non_finite_float_as_the_per_float_writer(tmp_path, value):
    table = np.arange(15.0).reshape(5, 3)
    table[3, 2] = value
    labeled = [["a", 1.0], ["b", value]]
    path = str(tmp_path / "t.csv")
    for header, rows, where in [(["t", "s", "x"], table, "row 3, column 'x'"),
                                (["t", "s", "x"], lambda: table, "row 3, column 'x'"),
                                (["check", "value"], labeled, "row 1, column 'value'")]:
        with pytest.raises(BlowUpError) as new:
            output.write_csv(path, header, rows)
        with pytest.raises(BlowUpError) as old:
            oracles.per_float_csv(path, header, rows() if callable(rows) else
                                  (rows.tolist() if isinstance(rows, np.ndarray) else rows))
        assert str(new.value) == str(old.value)
        assert f"'{path}' at {where}; nothing written" in str(new.value)
        assert list(tmp_path.iterdir()) == []
