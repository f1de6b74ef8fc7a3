"""EET matrix: validation, lookups, heterogeneity diagnostics, CSV I/O."""

import io

import numpy as np
import pytest

from repro.core.errors import EETError
from repro.machines.eet import EETMatrix

EET_CSV = """task_type,CPU,GPU,FPGA
T1,10.0,2.0,4.0
T2,8.0,9.0,3.0
"""


class TestConstruction:
    def test_from_strings(self):
        m = EETMatrix([[1.0, 2.0]], ["T1"], ["A", "B"])
        assert m.n_task_types == 1
        assert m.n_machine_types == 2

    def test_values_read_only(self, eet_3x2):
        with pytest.raises(ValueError):
            eet_3x2.values[0, 0] = 99.0

    def test_non_2d_rejected(self):
        with pytest.raises(EETError):
            EETMatrix(np.ones(3), ["T1", "T2", "T3"], ["A"])

    def test_nonpositive_rejected(self):
        with pytest.raises(EETError):
            EETMatrix([[1.0, 0.0]], ["T1"], ["A", "B"])

    def test_nan_rejected(self):
        with pytest.raises(EETError):
            EETMatrix([[1.0, float("nan")]], ["T1"], ["A", "B"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(EETError):
            EETMatrix([[1.0, 2.0]], ["T1", "T2"], ["A", "B"])
        with pytest.raises(EETError):
            EETMatrix([[1.0, 2.0]], ["T1"], ["A"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(EETError):
            EETMatrix([[1.0, 2.0]], ["T1"], ["A", "A"])

    def test_misindexed_task_types_rejected(self, task_types):
        shuffled = [task_types[1], task_types[0], task_types[2]]
        with pytest.raises(EETError):
            EETMatrix(np.ones((3, 2)), shuffled, ["A", "B"])


class TestAccessors:
    def test_cell_by_row_and_column(self, eet_3x2):
        assert eet_3x2.row("T1")[0] == eet_3x2.column("M1")[0] == 4.0
        assert eet_3x2.row("T2")[1] == eet_3x2.column("M2")[1] == 3.0

    def test_row_by_task_type_object(self, eet_3x2, task_types):
        assert eet_3x2.row(task_types[2])[1] == 6.0

    def test_unknown_machine_type_raises_eet_error(self, eet_3x2):
        with pytest.raises(EETError, match="unknown machine type 'MX'"):
            eet_3x2.column("MX")

    def test_unknown_task_type_raises_eet_error(self, eet_3x2):
        assert eet_3x2.task_type("T3").index == 2
        assert not eet_3x2.has_task_type("TX")
        with pytest.raises(EETError, match="unknown task type 'TX'"):
            eet_3x2.task_type("TX")
        with pytest.raises(EETError, match="unknown task type 'TX'"):
            eet_3x2.row("TX")

    def test_row_and_column(self, eet_3x2):
        np.testing.assert_array_equal(eet_3x2.row("T2"), [9.0, 3.0])
        np.testing.assert_array_equal(eet_3x2.column("M1"), [4.0, 9.0, 5.0])

    def test_has_names(self, eet_3x2):
        assert eet_3x2.has_task_type("T1")
        assert not eet_3x2.has_task_type("TX")
        assert eet_3x2.has_machine_type("M2")
        assert not eet_3x2.has_machine_type("MX")

    def test_task_type_lookup(self, eet_3x2):
        assert eet_3x2.task_type("T3").index == 2


class TestDiagnostics:
    def test_homogeneous_detection(self, eet_homogeneous, eet_3x2):
        assert eet_homogeneous.is_homogeneous()
        assert not eet_3x2.is_homogeneous()


class TestHelpers:
    def test_homogeneous_builder(self):
        m = EETMatrix.homogeneous([2.0, 4.0], ["T1", "T2"], 3)
        assert m.is_homogeneous()
        assert m.n_machine_types == 3
        assert m.row("T2")[1] == 4.0

    def test_equality(self, eet_3x2):
        clone = EETMatrix(
            eet_3x2.values.copy(),
            eet_3x2.task_types,
            eet_3x2.machine_type_names,
        )
        assert clone == eet_3x2

    def test_inequality(self, eet_3x2, eet_homogeneous):
        assert eet_3x2 != eet_homogeneous


class TestCSV:
    def test_read(self):
        m = EETMatrix.read_csv(io.StringIO(EET_CSV))
        assert m.machine_type_names == ["CPU", "GPU", "FPGA"]
        assert m.column("FPGA")[1] == 3.0

    def test_round_trip(self):
        m = EETMatrix.read_csv(io.StringIO(EET_CSV))
        again = EETMatrix.read_csv(io.StringIO(m.to_csv()))
        assert again == m

    def test_write_to_path(self, tmp_path, eet_3x2):
        path = tmp_path / "eet.csv"
        eet_3x2.to_csv(path)
        assert EETMatrix.read_csv(path) == eet_3x2

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "eet.csv"
        path.write_text(EET_CSV, encoding="utf-8")
        assert EETMatrix.read_csv(path).n_task_types == 2

    def test_empty_csv_rejected(self):
        with pytest.raises(EETError):
            EETMatrix.read_csv(io.StringIO(""))

    def test_ragged_row_rejected(self):
        bad = "task_type,A,B\nT1,1.0\n"
        with pytest.raises(EETError):
            EETMatrix.read_csv(io.StringIO(bad))

    def test_non_numeric_rejected(self):
        bad = "task_type,A\nT1,fast\n"
        with pytest.raises(EETError):
            EETMatrix.read_csv(io.StringIO(bad))
