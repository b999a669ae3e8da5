"""Tests for the Table I / Table II configuration objects."""

import pytest

from repro.experiments.config import (
    NSGA_TABLE_II,
    ExperimentConfig,
    experiment_table_rows,
    nsga_table_rows,
)


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

    def test_reduced_single_model_protocol(self):
        """One model per architecture needs no explicit ensemble size: the
        reduced default follows the model count."""
        config = ExperimentConfig.reduced(models_per_architecture=1)
        assert config.models_per_architecture == 1
        assert config.ensemble_size == 1
        assert ExperimentConfig.reduced().ensemble_size == 2
        assert ExperimentConfig.reduced(models_per_architecture=3).ensemble_size == 2
        assert ExperimentConfig.reduced(3, ensemble_size=3).ensemble_size == 3


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
