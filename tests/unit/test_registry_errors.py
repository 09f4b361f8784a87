"""Registry ergonomics: did-you-mean suggestions for unknown names."""

import pytest

from repro.core.exceptions import UnknownNameError
from repro.processors.registry import get_entry
from repro.workloads.kernels import kernel_source


class TestUnknownNameSuggestions:
    def test_processor_registry_suggests_close_matches(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry("strongam")
        error = caught.value
        assert "strongarm" in error.suggestions
        assert error.suggestions[0] == "strongarm"
        assert "did you mean 'strongarm'" in str(error)

    def test_workload_registry_suggests_close_matches(self):
        with pytest.raises(UnknownNameError) as caught:
            kernel_source("blowfsh")
        error = caught.value
        assert "blowfish" in error.suggestions
        assert "did you mean 'blowfish'?" in str(error)

    def test_no_suggestion_for_distant_names(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry("zzzzzz")
        error = caught.value
        assert error.suggestions == ()
        assert "did you mean" not in str(error)
        # The full listing is still there for cold lookups.
        assert "strongarm" in str(error)

    def test_non_string_lookup_does_not_crash_suggestions(self):
        with pytest.raises(UnknownNameError) as caught:
            get_entry(42)
        assert caught.value.suggestions == ()

    def test_campaign_planner_surfaces_suggestions(self):
        from repro.campaign import CampaignSpec, plan_campaign

        with pytest.raises(UnknownNameError, match="did you mean 'xscale'"):
            plan_campaign(
                CampaignSpec(name="typo", processors=("xsale",), workloads=("crc",))
            )
