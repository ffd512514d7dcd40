"""Tests for user ranking functions and min–max normalization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import (
    LinearRankingFunction,
    SingleAttributeRanking,
    from_specification,
)
from repro.core.normalization import (
    MinMaxNormalizer,
    discover_attribute_range,
    discovered_normalizer,
)
from repro.exceptions import RankingFunctionError
from repro.webdb.query import SearchQuery


class TestSingleAttributeRanking:
    def test_ascending_scores(self):
        ranking = SingleAttributeRanking("price", ascending=True)
        assert ranking.score({"price": 10}) < ranking.score({"price": 20})

    def test_descending_scores(self):
        ranking = SingleAttributeRanking("price", ascending=False)
        assert ranking.score({"price": 20}) < ranking.score({"price": 10})

    def test_attributes_and_weight(self):
        ranking = SingleAttributeRanking("price", ascending=False)
        assert ranking.attributes == ("price",)
        assert ranking.weight("price") == -1.0
        assert ranking.is_single_attribute and ranking.dimensionality == 1
        with pytest.raises(RankingFunctionError):
            ranking.weight("carat")

    def test_empty_attribute_rejected(self):
        with pytest.raises(RankingFunctionError):
            SingleAttributeRanking("")

    def test_describe(self):
        assert "desc" in SingleAttributeRanking("price", ascending=False).describe()

    def test_validate_against_schema(self, diamond_schema_fixture):
        SingleAttributeRanking("price").validate(diamond_schema_fixture)
        with pytest.raises(Exception):
            SingleAttributeRanking("shape").validate(diamond_schema_fixture)

    def test_rank_rows_breaks_ties_on_key(self):
        ranking = SingleAttributeRanking("price")
        rows = [{"id": "b", "price": 1.0}, {"id": "a", "price": 1.0}]
        assert [row["id"] for row in ranking.rank_rows(rows, "id")] == ["a", "b"]


class TestLinearRankingFunction:
    def test_score_is_weighted_sum(self):
        ranking = LinearRankingFunction({"price": 1.0, "carat": -2.0})
        assert ranking.score({"price": 10.0, "carat": 3.0}) == pytest.approx(4.0)

    def test_zero_weights_dropped(self):
        ranking = LinearRankingFunction({"price": 1.0, "carat": 0.0})
        assert ranking.attributes == ("price",)

    def test_all_zero_rejected(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 0.0})

    def test_slider_range_enforcement(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 2.0}, enforce_slider_range=True)
        LinearRankingFunction({"price": 2.0})  # fine without enforcement

    def test_normalized_scores(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (0.0, 5.0)})
        ranking = LinearRankingFunction({"price": 1.0, "carat": -1.0}, normalizer=normalizer)
        assert ranking.score({"price": 50.0, "carat": 5.0}) == pytest.approx(-0.5)

    def test_score_of_values_matches_score(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 100.0), "carat": (0.0, 5.0)})
        ranking = LinearRankingFunction({"price": 1.0, "carat": -1.0}, normalizer=normalizer)
        values = {"price": 30.0, "carat": 2.0}
        assert ranking.score_of_values(values) == pytest.approx(ranking.score(values))

    def test_restricted_to_single_attribute(self):
        ranking = LinearRankingFunction({"price": 1.0, "carat": -0.5})
        restricted = ranking.restricted_to("carat")
        assert restricted.attributes == ("carat",)
        assert restricted.weight("carat") == -0.5

    def test_describe_renders_signs(self):
        text = LinearRankingFunction({"price": 1.0, "carat": -0.5}).describe()
        assert "1*price" in text and "- 0.5*carat" in text

    def test_weight_of_unknown_attribute(self):
        with pytest.raises(RankingFunctionError):
            LinearRankingFunction({"price": 1.0}).weight("carat")


class TestFromSpecification:
    def test_single_attribute_spec(self):
        ranking = from_specification({"attribute": "price", "ascending": False})
        assert isinstance(ranking, SingleAttributeRanking)
        assert not ranking.ascending

    def test_weights_spec(self):
        ranking = from_specification({"weights": {"price": 1.0, "carat": -0.5}})
        assert isinstance(ranking, LinearRankingFunction)
        assert ranking.weights == {"carat": -0.5, "price": 1.0}

    def test_weights_spec_enforces_sliders(self):
        with pytest.raises(RankingFunctionError):
            from_specification({"weights": {"price": 3.0}})

    def test_invalid_spec(self):
        with pytest.raises(RankingFunctionError):
            from_specification({})
        with pytest.raises(RankingFunctionError):
            from_specification({"weights": "price"})


class TestMinMaxNormalizer:
    def test_normalize_and_denormalize(self):
        normalizer = MinMaxNormalizer({"price": (100.0, 200.0)})
        assert normalizer.normalize("price", 150.0) == pytest.approx(0.5)
        assert normalizer.denormalize("price", 0.5) == pytest.approx(150.0)

    def test_normalize_clamps(self):
        normalizer = MinMaxNormalizer({"price": (100.0, 200.0)})
        assert normalizer.normalize("price", 50.0) == 0.0
        assert normalizer.normalize("price", 500.0) == 1.0

    def test_degenerate_domain(self):
        normalizer = MinMaxNormalizer({"price": (5.0, 5.0)})
        assert normalizer.normalize("price", 5.0) == 0.0

    def test_unknown_attribute(self):
        normalizer = MinMaxNormalizer({"price": (0.0, 1.0)})
        with pytest.raises(RankingFunctionError):
            normalizer.normalize("carat", 1.0)
        with pytest.raises(RankingFunctionError):
            normalizer.denormalize("carat", 1.0)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(RankingFunctionError):
            MinMaxNormalizer({"price": (10.0, 0.0)})

    def test_from_schema(self, diamond_schema_fixture):
        normalizer = MinMaxNormalizer.from_schema(diamond_schema_fixture, ["price", "carat"])
        assert normalizer.normalize("price", diamond_schema_fixture.domain_bounds("price")[0]) == 0.0

    def test_from_observed(self):
        normalizer = MinMaxNormalizer.from_observed({"price": (1, 3)})
        assert normalizer.normalize("price", 2) == pytest.approx(0.5)

    def test_bounds_are_read_only(self):
        source = {"price": (0.0, 10.0)}
        normalizer = MinMaxNormalizer(source)
        with pytest.raises(TypeError):
            normalizer.bounds["price"] = (0.0, 20.0)  # type: ignore[index]
        with pytest.raises(TypeError):
            del normalizer.bounds["price"]  # type: ignore[attr-defined]
        source["price"] = (0.0, 20.0)  # the caller's dict is copied, not shared
        assert normalizer.normalize("price", 10.0) == 1.0


ATTRIBUTES = ("a", "b", "c")
scalars = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def scored_cases(draw):
    """A linear function and a row covering clamping on both sides,
    degenerate bounds, negative weights, no normalizer, and int or
    numeric-string values."""
    weights = draw(
        st.dictionaries(
            st.sampled_from(ATTRIBUTES),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False).filter(bool),
            min_size=1,
        )
    )
    normalizer = None
    if draw(st.booleans()):
        bounds = {}
        for attribute in weights:
            lower = draw(scalars)
            upper = lower if draw(st.integers(0, 4)) == 0 else lower + draw(
                st.floats(min_value=1e-9, max_value=1e6)
            )
            bounds[attribute] = (lower, upper)
        normalizer = MinMaxNormalizer(bounds)
    row = {}
    for attribute in weights:
        value = draw(scalars)
        kind = draw(st.sampled_from(["float", "int", "str"]))
        row[attribute] = int(value) if kind == "int" else repr(value) if kind == "str" else value
    return LinearRankingFunction(weights, normalizer=normalizer), row


class TestCompiledScorer:
    @settings(max_examples=500, deadline=None)
    @given(scored_cases())
    def test_score_is_bit_identical_to_the_reference_sum(self, case):
        ranking, row = case
        normalizer = ranking.normalizer
        if normalizer is None:
            reference = sum(w * float(row[a]) for a, w in ranking.weights.items())
        else:
            reference = sum(
                w * normalizer.normalize(a, float(row[a])) for a, w in ranking.weights.items()
            )
        assert ranking.score(row).hex() == reference.hex()

    def test_clamped_and_degenerate_terms(self):
        normalizer = MinMaxNormalizer({"a": (0.0, 10.0), "b": (3.0, 3.0)})
        ranking = LinearRankingFunction({"a": 1.0, "b": -1.0}, normalizer=normalizer)
        assert ranking.score({"a": -5, "b": "7"}).hex() == (0.0).hex()
        assert ranking.score({"a": 50, "b": 3}) == 1.0

    def test_missing_bounds_raise_when_scoring(self):
        normalizer = MinMaxNormalizer({"a": (0.0, 1.0)})
        ranking = LinearRankingFunction({"a": 1.0, "b": 1.0}, normalizer=normalizer)
        with pytest.raises(RankingFunctionError):
            ranking.score({"a": 0.5, "b": 0.5})


class TestDiscoveredRange:
    def test_discover_matches_ground_truth(self, bluenile_db):
        low, high = discover_attribute_range(bluenile_db, "carat")
        values = bluenile_db.attribute_values("carat")
        assert low == pytest.approx(min(values))
        assert high == pytest.approx(max(values))

    def test_discover_respects_filter(self, bluenile_db):
        query = SearchQuery.build(ranges={"price": (1000.0, 5000.0)})
        low, high = discover_attribute_range(bluenile_db, "carat", base_query=query)
        carats = [row["carat"] for row in bluenile_db.all_matches(query)]
        assert low == pytest.approx(min(carats))
        assert high == pytest.approx(max(carats))

    def test_discover_empty_query_raises(self, bluenile_db):
        query = SearchQuery.build(ranges={"price": (300.4, 300.6)})
        with pytest.raises(RankingFunctionError):
            discover_attribute_range(bluenile_db, "carat", base_query=query)

    def test_discovered_normalizer(self, bluenile_db):
        normalizer = discovered_normalizer(bluenile_db, ["carat"])
        values = bluenile_db.attribute_values("carat")
        assert normalizer.normalize("carat", min(values)) == 0.0
        assert normalizer.normalize("carat", max(values)) == 1.0
