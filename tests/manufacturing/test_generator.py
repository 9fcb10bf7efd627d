"""Unit tests for the synthetic population generators."""

from repro.manufacturing.generator import (
    make_address_book,
    make_clients,
    make_companies,
    make_tickers,
)


class TestCompanies:
    def test_paper_rows_first(self):
        companies = make_companies(10)
        assert companies["Fruit Co"] == {"address": "12 Jay St", "employees": 4004}
        assert companies["Nut Co"] == {"address": "62 Lois Av", "employees": 700}

    def test_exact_count(self):
        for n in (2, 50, 500):
            assert len(make_companies(n)) == n

    def test_unique_names(self):
        companies = make_companies(400)
        assert len(companies) == len(set(companies))

    def test_deterministic(self):
        assert make_companies(100, seed=5) == make_companies(100, seed=5)

    def test_seed_changes_values(self):
        a = make_companies(50, seed=1)
        b = make_companies(50, seed=2)
        differing = [
            name for name in a if name not in ("Fruit Co", "Nut Co")
            and a[name] != b.get(name)
        ]
        assert differing

    def test_small_n(self):
        assert len(make_companies(1)) == 1


class TestClients:
    def test_shape(self):
        clients = make_clients(20)
        assert len(clients) == 20
        sample = clients["ACC00001"]
        assert set(sample) == {"name", "address", "telephone"}
        assert sample["telephone"].startswith("617-")

    def test_deterministic(self):
        assert make_clients(20, seed=3) == make_clients(20, seed=3)


class TestAddressBook:
    def test_shape(self):
        book = make_address_book(15)
        assert len(book) == 15
        assert set(book["P000001"]) == {"name", "address", "city"}

    def test_deterministic(self):
        assert make_address_book(30, seed=8) == make_address_book(30, seed=8)


class TestTickers:
    def test_unique_tickers(self):
        stocks = make_tickers(30)
        assert len(stocks) == 30

    def test_prices_in_range(self):
        stocks = make_tickers(30)
        assert all(5.0 <= s["share_price"] <= 500.0 for s in stocks.values())

    def test_company_names_resolve(self):
        stocks = make_tickers(10, seed=2)
        companies = make_companies(10, seed=2)
        assert all(s["company_name"] in companies for s in stocks.values())
