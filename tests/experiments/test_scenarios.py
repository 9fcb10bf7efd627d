"""Unit tests for the canonical paper scenarios."""

import datetime as dt

from repro.experiments import scenarios


class TestTable1:
    def test_exact_rows(self):
        relation = scenarios.table1_relation()
        assert relation.to_dicts() == [
            {"co_name": "Fruit Co", "address": "12 Jay St", "employees": 4004},
            {"co_name": "Nut Co", "address": "62 Lois Av", "employees": 700},
        ]

    def test_render_matches_paper_layout(self):
        text = scenarios.table1_relation().render()
        assert "co_name" in text and "address" in text and "#" not in text


class TestTable2:
    def test_exact_tags(self):
        relation = scenarios.table2_relation()
        nut = relation.rows[1]
        assert nut["address"].tag_value("creation_time") == dt.date(1991, 10, 24)
        assert nut["address"].tag_value("source") == "acct'g"
        assert nut["employees"].tag_value("source") == "estimate"

    def test_render_paper_style(self):
        text = scenarios.table2_relation().render()
        assert "62 Lois Av (10-24-91, acct'g)" in text
        assert "4004 (10-03-91, Nexis)" in text

    def test_values_match_table1(self):
        assert (
            scenarios.table2_relation().values_relation().to_dicts()
            == scenarios.table1_relation().to_dicts()
        )


class TestTradingSchema:
    def test_figure3_content(self):
        er = scenarios.trading_er_schema()
        assert {e.name for e in er.entities} == {"client", "company_stock"}
        assert [r.name for r in er.relationships] == ["trade"]
        trade = er.relationship("trade")
        assert trade.attribute_names == ("date", "quantity", "trade_price")


class TestCustomerDatabase:
    def test_scaled_build(self):
        world, pipeline, relation = scenarios.customer_database(
            n_companies=40, seed=3, simulated_days=30
        )
        assert len(relation) == 40
        assert relation.rows[0]["address"].has_tag("source")

    def test_heterogeneous_quality(self):
        world, _, relation = scenarios.customer_database(
            n_companies=80, seed=3, simulated_days=120
        )
        from repro.quality.dimensions import accuracy_against

        accuracy = accuracy_against(relation, world.truth(), "co_name")
        # The §1.2 situation: address (acct'g) beats employees (estimate).
        assert accuracy["address"] > accuracy["employees"]


class TestClearinghouse:
    def test_profiles_registered(self):
        _, _, _, registry = scenarios.clearinghouse(
            n_people=30, simulated_days=30
        )
        assert set(registry.names) == {"fund_raising", "mass_mailing"}
        assert len(registry.get("mass_mailing").quality_filter) == 0
        assert len(registry.get("fund_raising").quality_filter) == 2

    def test_mixed_sources(self):
        _, _, relation, _ = scenarios.clearinghouse(
            n_people=100, seed=1, simulated_days=60
        )
        sources = {
            row["address"].tag_value("source") for row in relation
        }
        assert sources == {"postal_feed", "purchased_list"}


class TestTicks:
    def test_all_priced_and_aged(self):
        ticks = scenarios.trading_ticks(n_ticks=50, seed=2)
        assert len(ticks) == 50
        assert all(row["price"].has_tag("age") for row in ticks)

    def test_long_tailed_ages(self):
        ticks = scenarios.trading_ticks(n_ticks=300, seed=2)
        ages = [row["price"].tag_value("age") for row in ticks]
        assert min(ages) < 0.001  # sub-minute quotes exist
        assert max(ages) > 0.5  # half-day-stale quotes exist


class TestDuplicatedCustomers:
    def test_counts(self):
        records, n_dups = scenarios.duplicated_customers(
            n_base=50, duplicate_fraction=0.2, seed=1
        )
        assert n_dups == 10
        assert len(records) == 60

    def test_entities_hidden_field(self):
        records, _ = scenarios.duplicated_customers(n_base=20, seed=1)
        entities = [r["_entity"] for r in records]
        # Duplicated entities appear more than once.
        assert any(entities.count(e) > 1 for e in set(entities))

    def test_deterministic(self):
        a, _ = scenarios.duplicated_customers(n_base=30, seed=4)
        b, _ = scenarios.duplicated_customers(n_base=30, seed=4)
        assert a == b
