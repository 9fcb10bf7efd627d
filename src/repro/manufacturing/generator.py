"""Seeded synthetic populations for the experiments.

Generates the paper's three scenario populations deterministically:

- **companies** (Tables 1-2): name, address, employee count;
- **clients** (Figure 3): account number, name, address, telephone;
- **address book** (§4's clearinghouse): individuals with addresses.

Names are composed from word lists rather than sampled from real data —
the experiments only need realistic *structure* (duplicates, typos,
variation), not real identities.
"""

from __future__ import annotations

import random

from repro.manufacturing.seeding import stable_seed
from typing import Any

_COMPANY_STEMS = (
    "Fruit", "Nut", "Grain", "Iron", "Copper", "Cedar", "Harbor", "Summit",
    "Vector", "Atlas", "Beacon", "Cobalt", "Delta", "Ember", "Falcon",
    "Granite", "Horizon", "Indigo", "Juniper", "Keystone", "Lumen",
    "Meridian", "Nimbus", "Orchard", "Pioneer", "Quartz", "Ridge", "Sterling",
    "Tundra", "Umber", "Vertex", "Willow", "Xenon", "Yarrow", "Zephyr",
)
_COMPANY_SUFFIXES = ("Co", "Corp", "Inc", "Ltd", "Group", "Partners")

_FIRST_NAMES = (
    "Alice", "Benjamin", "Carmen", "Daniel", "Elena", "Frank", "Grace",
    "Hugo", "Irene", "James", "Karen", "Liam", "Maria", "Nathan", "Olga",
    "Peter", "Quinn", "Rosa", "Samuel", "Teresa", "Ulric", "Vera", "Walter",
    "Ximena", "Yusuf", "Zoe",
)
_LAST_NAMES = (
    "Adams", "Baker", "Chen", "Diaz", "Evans", "Fischer", "Garcia", "Hansen",
    "Ito", "Jones", "Kim", "Lopez", "Martin", "Novak", "Olsen", "Park",
    "Quist", "Rivera", "Smith", "Tanaka", "Umar", "Vogel", "Weber", "Xu",
    "Young", "Zhang",
)
_STREETS = (
    "Jay St", "Lois Av", "Main St", "Oak Av", "Pine Rd", "Market St",
    "Harbor Blvd", "Mill Ln", "Elm St", "River Rd", "Summit Av", "Lake Dr",
    "Cedar Ct", "Park Pl", "Broad St", "Union Sq",
)
_CITIES = (
    "Cambridge", "Boston", "Springfield", "Worcester", "Lowell", "Newton",
    "Quincy", "Somerville", "Medford", "Arlington",
)


def _address(rng: random.Random) -> str:
    return f"{rng.randint(1, 999)} {rng.choice(_STREETS)}"


def _telephone(rng: random.Random) -> str:
    return f"617-{rng.randint(200, 999)}-{rng.randint(1000, 9999)}"


def make_companies(n: int, seed: int = 0) -> dict[str, dict[str, Any]]:
    """``n`` companies keyed by unique company name.

    Each company has ``address`` and ``employees``; the first two match
    the paper's Table 1 rows so canonical renders line up.
    """
    rng = random.Random(seed)
    companies: dict[str, dict[str, Any]] = {
        "Fruit Co": {"address": "12 Jay St", "employees": 4004},
        "Nut Co": {"address": "62 Lois Av", "employees": 700},
    }
    attempt = 0
    while len(companies) < n:
        stem = _COMPANY_STEMS[attempt % len(_COMPANY_STEMS)]
        suffix = _COMPANY_SUFFIXES[(attempt // len(_COMPANY_STEMS)) % len(_COMPANY_SUFFIXES)]
        serial = attempt // (len(_COMPANY_STEMS) * len(_COMPANY_SUFFIXES))
        name = f"{stem} {suffix}" + (f" {serial + 2}" if serial else "")
        attempt += 1
        if name in companies:
            continue
        companies[name] = {
            "address": _address(rng),
            "employees": rng.randint(5, 20000),
        }
    if n < 2:
        return dict(list(companies.items())[:n])
    return companies


def make_clients(n: int, seed: int = 0) -> dict[str, dict[str, Any]]:
    """``n`` trading clients keyed by account number."""
    rng = random.Random(stable_seed(seed, "clients"))
    clients: dict[str, dict[str, Any]] = {}
    for index in range(n):
        account = f"ACC{index + 1:05d}"
        clients[account] = {
            "name": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
            "address": _address(rng),
            "telephone": _telephone(rng),
        }
    return clients


def make_address_book(
    n: int,
    seed: int = 0,
) -> dict[str, dict[str, Any]]:
    """``n`` individuals for the §4 clearinghouse, keyed by person id."""
    rng = random.Random(stable_seed(seed, "addresses"))
    book: dict[str, dict[str, Any]] = {}
    for index in range(n):
        person = f"P{index + 1:06d}"
        book[person] = {
            "name": f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}",
            "address": _address(rng),
            "city": rng.choice(_CITIES),
        }
    return book


def make_tickers(n: int, seed: int = 0) -> dict[str, dict[str, Any]]:
    """``n`` company stocks keyed by ticker symbol, with share prices."""
    rng = random.Random(stable_seed(seed, "tickers"))
    stocks: dict[str, dict[str, Any]] = {}
    names = list(make_companies(max(n, 2), seed=seed))
    for index in range(n):
        company = names[index % len(names)]
        ticker = "".join(
            word[0] for word in company.split()[:3]
        ).upper() + f"{index:02d}"
        stocks[ticker] = {
            "company_name": company,
            "share_price": round(rng.uniform(5.0, 500.0), 2),
        }
    return stocks
