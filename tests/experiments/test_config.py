"""Tests for the Table I / Table II configuration objects."""

import pytest

from repro.experiments.config import (
    NSGA_TABLE_II,
    ExperimentConfig,
    experiment_table_rows,
    nsga_table_rows,
)
from repro.experiments.engine import BACKEND_NAMES


class TestExperimentConfig:
    def test_paper_protocol_matches_table_i(self):
        config = ExperimentConfig.paper()
        assert config.models_per_architecture == 25
        assert config.images_per_model == 16
        assert config.ensemble_size == 16
        assert config.model_seeds == tuple(range(1, 26))

    def test_reduced_protocol_is_consistent(self):
        config = ExperimentConfig.reduced(models_per_architecture=3, images_per_model=2)
        assert config.models_per_architecture == 3
        assert len(config.model_seeds) == 3
        assert config.images_per_model == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(models_per_architecture=0)
        with pytest.raises(ValueError):
            ExperimentConfig(images_per_model=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            ExperimentConfig(models_per_architecture=30)  # only 25 seeds provided
        with pytest.raises(ValueError):
            ExperimentConfig(ensemble_size=30)

    def test_execution_fields(self):
        config = ExperimentConfig()
        assert config.n_jobs == 1
        assert config.execution_backend == "auto"
        for backend in ("serial", "persistent"):
            reduced = ExperimentConfig.reduced(n_jobs=4, execution_backend=backend)
            assert reduced.n_jobs == 4
            assert reduced.execution_backend == backend
        with pytest.raises(ValueError):
            ExperimentConfig(n_jobs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(execution_backend="threads")

    @pytest.mark.parametrize("backend", ("auto",) + BACKEND_NAMES)
    def test_accepts_every_engine_backend(self, backend):
        assert ExperimentConfig(execution_backend=backend).execution_backend == backend

    @pytest.mark.parametrize("backend", ["threads", "Persistent", ""])
    def test_unknown_backend_error_names_every_choice(self, backend):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(execution_backend=backend)
        message = str(excinfo.value)
        assert repr(backend) in message
        for name in ("auto",) + BACKEND_NAMES:
            assert repr(name) in message


class TestTableRows:
    def test_table_i_rows(self):
        rows = experiment_table_rows()
        assert len(rows) == 3
        values = {row["Configuration"]: row["Value"] for row in rows}
        assert "25" in values["# models generated"]
        assert values["# images tested on each model"] == "16"
        assert values["# models used in ensemble"] == "16"

    def test_table_ii_rows_match_paper(self):
        rows = nsga_table_rows()
        values = {row["Parameter"]: row["Value"] for row in rows}
        assert values["Number of iterations"] == "100"
        assert values["Population size"] == "101"
        assert values["Crossover probability"] == "pc = 0.5"
        assert values["Mutation probability"] == "pm = 0.45"
        assert values["Mutation window size"] == "w = 1%"

    def test_table_ii_constant_matches_paper(self):
        assert NSGA_TABLE_II.num_iterations == 100
        assert NSGA_TABLE_II.population_size == 101

    def test_rows_for_custom_config(self):
        config = ExperimentConfig.reduced(models_per_architecture=2)
        rows = experiment_table_rows(config)
        assert "2" in rows[0]["Value"]
