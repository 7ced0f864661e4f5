"""Unit tests for system/method configuration."""

from dataclasses import fields

import pytest

from repro.anonymize import STRATEGIES
from repro.core import METHOD_NAMES, MethodConfig, SystemConfig
from repro.core.options import QueryOptions
from repro.exceptions import ConfigError, ReproError


class TestMethodConfig:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_all_paper_methods_resolve(self, name):
        method = MethodConfig.from_name(name)
        assert method.name == name

    def test_bas_shares_eff_grouping_but_uploads_gk(self):
        bas = MethodConfig.from_name("BAS")
        assert bas.upload_full_gk is True
        assert bas.strategy is STRATEGIES["EFF"]

    def test_optimized_methods_upload_go(self):
        for name in ("EFF", "RAN", "FSIM"):
            assert MethodConfig.from_name(name).upload_full_gk is False

    def test_case_insensitive(self):
        assert MethodConfig.from_name("eff").name == "EFF"

    def test_unknown_method_rejected(self):
        with pytest.raises(ReproError):
            MethodConfig.from_name("MAGIC")


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.k == 2
        assert config.theta == 2
        assert config.method.name == "EFF"

    def test_invalid_k(self):
        with pytest.raises(ReproError):
            SystemConfig(k=1)

    def test_invalid_theta(self):
        with pytest.raises(ReproError):
            SystemConfig(theta=0)

    def test_keyword_only(self):
        """Positional construction is a TypeError, not a silent k=3."""
        with pytest.raises(TypeError):
            SystemConfig(3)  # noqa: the point of the test

    def test_config_error_is_a_repro_error(self):
        with pytest.raises(ConfigError):
            SystemConfig(k=1)
        assert issubclass(ConfigError, ReproError)

    @pytest.mark.parametrize("bad_k", ["3", 2.0, True, None])
    def test_non_int_k_rejected(self, bad_k):
        with pytest.raises(ConfigError):
            SystemConfig(k=bad_k)

    @pytest.mark.parametrize("bad_theta", ["2", 1.5, False])
    def test_non_int_theta_rejected(self, bad_theta):
        with pytest.raises(ConfigError):
            SystemConfig(theta=bad_theta)

    def test_method_name_string_is_coerced(self):
        config = SystemConfig(method="bas")
        assert isinstance(config.method, MethodConfig)
        assert config.method.name == "BAS"

    def test_unknown_method_name_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(method="MAGIC")

    def test_non_method_object_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(method=42)

    def test_negative_tuning_knobs_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(max_intermediate_results=-1)

    def test_the_cloud_keeps_no_star_cache_field(self):
        assert len(fields(SystemConfig)) == 8
        with pytest.raises(TypeError):
            SystemConfig(star_cache_size=0)

    def test_zero_budget_is_legal(self):
        """0 = 'no intermediate results allowed' (bench skip path)."""
        config = SystemConfig(max_intermediate_results=0)
        assert config.max_intermediate_results == 0


@pytest.mark.parametrize(
    "make, field",
    [(SystemConfig, "max_intermediate_results"), (SystemConfig, "shards"), (QueryOptions, "workers"), (QueryOptions, "max_results")],
)
@pytest.mark.parametrize("bad", [2.5, True, "8"])
def test_integer_fields_reject_a_non_int(make, field, bad):
    """Every integer field of both config classes takes an int only: a
    float, a bool or a string is a ConfigError, never a TypeError."""
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        make(**{field: bad})
