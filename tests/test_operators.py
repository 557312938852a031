"""Unit tests for operator specs and task identifiers."""

import pytest

from repro.errors import TopologyError
from repro.topology import OperatorKind, OperatorSpec, TaskId


class TestTaskId:
    def test_renders_as_operator_and_index(self):
        assert repr(TaskId("O1", 3)) == "O1[3]"

    def test_is_ordered_and_hashable(self):
        a, b = TaskId("A", 0), TaskId("A", 1)
        assert a < b
        assert len({a, b, TaskId("A", 0)}) == 2

    def test_fields_accessible_by_name(self):
        task = TaskId("Op", 2)
        assert task.operator == "Op"
        assert task.index == 2


class TestOperatorSpec:
    def test_defaults_to_uniform_weights(self):
        spec = OperatorSpec("O", 4, OperatorKind.INDEPENDENT)
        assert spec.task_weights == pytest.approx((0.25,) * 4)

    def test_weights_are_normalised(self):
        spec = OperatorSpec("O", 2, OperatorKind.INDEPENDENT, task_weights=(3.0, 1.0))
        assert spec.task_weights == pytest.approx((0.75, 0.25))

    def test_tasks_enumerates_in_index_order(self):
        spec = OperatorSpec("O", 3, OperatorKind.SOURCE)
        assert spec.tasks() == (TaskId("O", 0), TaskId("O", 1), TaskId("O", 2))

    def test_task_supports_negative_index(self):
        spec = OperatorSpec("O", 3, OperatorKind.SOURCE)
        assert spec.task(-1) == TaskId("O", 2)

    def test_task_rejects_out_of_range(self):
        spec = OperatorSpec("O", 3, OperatorKind.SOURCE)
        with pytest.raises(TopologyError):
            spec.task(3)

    def test_weight_of_returns_normalised_share(self):
        spec = OperatorSpec("O", 2, OperatorKind.INDEPENDENT, task_weights=(1.0, 3.0))
        assert spec.weight_of(1) == pytest.approx(0.75)

    @pytest.mark.parametrize("parallelism", [0, -1])
    def test_rejects_non_positive_parallelism(self, parallelism):
        with pytest.raises(TopologyError):
            OperatorSpec("O", parallelism, OperatorKind.SOURCE)

    def test_rejects_empty_name(self):
        with pytest.raises(TopologyError):
            OperatorSpec("", 1, OperatorKind.SOURCE)

    def test_rejects_negative_selectivity(self):
        with pytest.raises(TopologyError):
            OperatorSpec("O", 1, OperatorKind.INDEPENDENT, selectivity=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_selectivity(self, value):
        with pytest.raises(TopologyError, match="operator 'O': selectivity must be finite"):
            OperatorSpec("O", 1, OperatorKind.INDEPENDENT, selectivity=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, value):
        with pytest.raises(TopologyError, match="operator 'O': task_weights must be finite"):
            OperatorSpec("O", 2, OperatorKind.INDEPENDENT, task_weights=(value, 1.0))

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(TopologyError):
            OperatorSpec("O", 3, OperatorKind.INDEPENDENT, task_weights=(0.5, 0.5))

    def test_rejects_negative_weights(self):
        with pytest.raises(TopologyError):
            OperatorSpec("O", 2, OperatorKind.INDEPENDENT, task_weights=(1.0, -1.0))

    def test_rejects_all_zero_weights(self):
        with pytest.raises(TopologyError):
            OperatorSpec("O", 2, OperatorKind.INDEPENDENT, task_weights=(0.0, 0.0))

    def test_kind_flags(self):
        assert OperatorSpec("S", 1, OperatorKind.SOURCE).is_source
        assert OperatorSpec("J", 1, OperatorKind.CORRELATED).is_correlated
        ind = OperatorSpec("M", 1, OperatorKind.INDEPENDENT)
        assert not ind.is_source and not ind.is_correlated
