"""TaskType validation and builders."""

import pytest

from repro.core.errors import ConfigurationError
from repro.tasks.task_type import TaskType


class TestTaskType:
    def test_basic_construction(self):
        t = TaskType("detect", 0, relative_deadline=5.0)
        assert t.name == "detect"
        assert t.index == 0
        assert str(t) == "detect"

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskType("", 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskType("x", -1)

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskType("x", 0, relative_deadline=0.0)

    def test_negative_footprints_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskType("x", 0, memory=-1.0)
        with pytest.raises(ConfigurationError):
            TaskType("x", 0, data_in=-1.0)

    def test_frozen(self):
        t = TaskType("x", 0)
        with pytest.raises(AttributeError):
            t.name = "y"  # type: ignore[misc]
