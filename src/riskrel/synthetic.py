"""Deterministic synthetic filing corpus for end-to-end runs.

Real 10-K text cannot be redistributed, so the repo ships this generator
instead: eight fake firms, three fiscal years, HTML-wrapped filings with
Item 1A/7A sections, daily price series and a sector/industry mapping.
Two firms (ACME and BOLT) share a planted supply-chain risk theme whose
paragraphs reuse the same disclosure sentences, so a correctly trained
encoder must rank that pair's risk relation highest and surface the
planted paragraphs as evidence. Same-firm paragraph pairs share an event
date and the same event description, feeding the chronological view;
quarter-end boilerplate dates appear everywhere and must never create
pairs.

Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Paragraph, write_csv

PLANTED_THEME = "supply_chain"
PLANTED_PAIR = ("ACME", "BOLT")

FIRM_THEMES: dict[str, str] = {
    "ACME": "supply_chain",
    "BOLT": "supply_chain",
    "CRUX": "cybersecurity",
    "DUNE": "regulation",
    "EMBR": "interest_rates",
    "FLUX": "energy_commodities",
    "GRID": "litigation",
    "HALE": "labor",
}

FIRM_GICS: dict[str, tuple[str, str]] = {
    "ACME": ("Industrials", "Machinery"),
    "BOLT": ("Consumer Discretionary", "Specialty Retail"),
    "CRUX": ("Information Technology", "Software"),
    "DUNE": ("Information Technology", "IT Services"),
    "EMBR": ("Financials", "Banks"),
    "FLUX": ("Energy", "Oil Gas and Consumable Fuels"),
    "GRID": ("Utilities", "Electric Utilities"),
    "HALE": ("Health Care", "Health Care Providers"),
}

DEFAULT_YEARS = (2021, 2022, 2023)
DEFAULT_SEED = 13

# Body sentences per theme. Deliberate constraints: no month names followed
# by numbers, no four-digit numbers, and never the word "item", so the only
# date mentions are the ones inserted on purpose.
_THEME_SENTENCES: dict[str, list[str]] = {
    "supply_chain": [
        "The global spread of epidemics, pandemics, outbreaks, or public health crises may adversely affect our results of operations and disrupt global supply chains on which we depend.",
        "We rely on third parties to manufacture and manage the logistics of transporting and distributing our products, which subjects us to shortages and delays that have been exacerbated by the pandemic.",
        "Shortages of semiconductors, resins, and other critical components have constrained our production volumes and could continue to limit shipments to our customers.",
        "Congestion at ports, limited freight capacity, and elevated shipping rates have increased our logistics costs and extended delivery lead times.",
        "We source key raw materials from a limited number of suppliers, and the loss of any significant supplier could interrupt manufacturing at our facilities.",
        "Prolonged disruption of our distribution network, including warehouse closures and carrier failures, could prevent us from fulfilling customer orders on schedule.",
        "Our contract manufacturers operate in regions subject to quarantine measures, labor stoppages, and export restrictions that could curtail component availability.",
        "Inventory shortfalls caused by supplier allocation programs may force us to purchase components on the spot market at substantially higher prices.",
        "Single sourced tooling and long qualification cycles for alternate suppliers limit our ability to mitigate sudden interruptions in the supply base.",
        "Increases in the cost of ocean and air freight, fuel surcharges, and demurrage fees could compress our gross margins if we cannot pass them through.",
    ],
    "cybersecurity": [
        "A breach of our information systems by malicious actors could expose confidential customer data and materially harm our reputation and operating results.",
        "Ransomware, phishing campaigns, and other intrusion techniques continue to evolve and may circumvent the security controls we have deployed.",
        "We depend on encryption, access management, and network segmentation to protect sensitive data, and any failure of these controls could be material.",
        "Third party hosting providers process significant volumes of our data, and a compromise of their environments could disrupt our platform.",
        "Undetected vulnerabilities in our software releases could be exploited before patches are developed, tested, and distributed to customers.",
        "The cost of investigating and remediating security incidents, notifying affected parties, and defending related proceedings could be substantial.",
        "Insider misuse of privileged credentials could bypass perimeter defenses and result in the unauthorized alteration of production systems.",
        "Cyberattacks attributed to state sponsored groups have targeted companies in our industry, and similar attacks could degrade our services.",
        "Failure to comply with evolving data protection and privacy requirements could subject us to enforcement actions and significant penalties.",
        "Our incident response capabilities may prove insufficient to contain a fast moving attack across our corporate and production networks.",
    ],
    "regulation": [
        "Changes in laws and regulations governing our products could require costly redesigns and delay planned launches in key markets.",
        "We are subject to antitrust and competition review in multiple jurisdictions, and adverse determinations could restrict our commercial practices.",
        "New licensing requirements could lengthen approval timelines and increase the cost of bringing our services to regulated markets.",
        "Failure to maintain required permits and registrations could result in fines, suspension of operations, or exclusion from public contracts.",
        "Legislative proposals under consideration would expand disclosure obligations and increase our ongoing compliance expenditures.",
        "Government agencies have broad discretion in interpreting the rules that apply to us, and shifting interpretations create uncertainty.",
        "Cross border data transfer restrictions could force us to localize infrastructure and fragment our operating model.",
        "Trade controls and sanctions regimes limit the countries and counterparties with which we can do business.",
        "Environmental reporting mandates could require new monitoring systems and subject us to penalties for inaccurate submissions.",
        "Our government customers may terminate contracts for convenience, and audits may result in refund claims or debarment.",
    ],
    "interest_rates": [
        "Rising interest rates increase the cost of our variable rate borrowings and could reduce demand for financed purchases of our products.",
        "Central bank tightening cycles have historically reduced liquidity in the credit markets on which our customers rely.",
        "Higher discount rates reduce the fair value of our long duration assets and may trigger impairment charges.",
        "Refinancing our outstanding notes at prevailing rates would materially increase our annual interest expense.",
        "Inflationary pressure on wages and input costs may outpace our ability to raise prices under long term contracts.",
        "A sustained inversion of the yield curve could depress net interest margins across our lending portfolio.",
        "Covenant restrictions in our credit agreements limit our flexibility if borrowing costs continue to climb.",
        "Volatility in benchmark rates complicates our hedging program and may produce mark to market losses.",
        "Deposit outflows toward higher yielding alternatives could shrink our low cost funding base.",
        "Monetary policy surprises could widen credit spreads and delay our planned capital markets transactions.",
    ],
    "energy_commodities": [
        "Volatility in crude oil and natural gas prices directly affects our realized margins and the economics of new drilling programs.",
        "A sustained decline in commodity prices could render portions of our reserves uneconomic to develop.",
        "Electricity price spikes increase the operating cost of our processing facilities and data centers.",
        "Pipeline capacity constraints could force us to sell production at discounted regional prices.",
        "Severe weather events have interrupted production at our coastal facilities and damaged gathering infrastructure.",
        "The transition toward renewable generation may reduce long term demand for our hydrocarbon products.",
        "Hedging arrangements cover only a portion of expected production and expose us to basis risk.",
        "Decommissioning obligations for end of life assets could exceed our current estimates materially.",
        "Fuel supply agreements contain take or pay provisions that could require payments for volumes we cannot use.",
        "Carbon pricing mechanisms under discussion would increase the cost of operating our thermal fleet.",
    ],
    "litigation": [
        "We are defendants in purported class actions alleging defects in our legacy metering products, and adverse outcomes could be material.",
        "Product liability claims, even when unsuccessful, divert management attention and generate significant defense costs.",
        "An unfavorable judgment in pending patent infringement suits could require royalty payments or redesign of core products.",
        "Settlement negotiations in the consolidated proceedings may result in charges that exceed our established reserves.",
        "Indemnification obligations to customers and former affiliates could amplify our exposure to third party claims.",
        "Regulatory investigations into historical billing practices could lead to restitution orders and civil penalties.",
        "Plaintiffs seek injunctive relief that, if granted, would restrict how we market and price our services.",
        "Insurance coverage for the matters described above is subject to retentions and may prove insufficient.",
        "Adverse publicity from high profile proceedings could depress demand independent of the legal outcome.",
        "Expert testimony disputes have extended the expected schedule of the utility arbitration into future periods.",
    ],
    "labor": [
        "Competition for clinicians and specialized technicians has increased wage rates across our markets and may limit capacity growth.",
        "Failure to attract and retain qualified personnel could impair our ability to staff facilities at mandated ratios.",
        "Organized labor activity at our regional centers could result in work stoppages that disrupt patient services.",
        "Rising contract labor utilization has materially increased our cost of services and may persist beyond current guidance.",
        "Key employee departures could delay strategic initiatives and increase recruiting and severance expense.",
        "Changes to immigration policy could shrink the pool of internationally trained professionals we rely upon.",
        "Workplace safety incidents could lead to citations, higher insurance premiums, and reputational harm.",
        "Minimum staffing legislation under consideration would increase our labor costs in several states.",
        "Burnout driven attrition among experienced staff raises training costs and elevates operational risk.",
        "Pension funding obligations for represented employees may increase if plan returns fall short of assumptions.",
    ],
}

# Market-risk (Item 7A) sentences per theme.
_THEME_QUANT_SENTENCES: dict[str, list[str]] = {
    "supply_chain": [
        "We use forward purchase agreements to fix the cost of a portion of our expected component and freight spending.",
        "A ten percent increase in ocean freight rates would have reduced our gross profit by an immaterial amount in the most recent period.",
        "Commodity price exposure arises primarily from steel, aluminum, and resin inputs purchased for manufacturing.",
        "Currency fluctuations affect the cost of components sourced from overseas suppliers under local currency contracts.",
        "We do not hold derivative instruments for trading purposes and designate qualifying hedges against forecasted purchases.",
    ],
    "cybersecurity": [
        "Our market risk profile is concentrated in foreign currency exposure from international subscription billings.",
        "We invest excess cash in short duration government securities to limit interest rate sensitivity.",
        "A hypothetical one percent move in rates would not materially change the fair value of our investment portfolio.",
        "We hedge a portion of forecasted international revenue with forward contracts of under one year tenor.",
        "Counterparty risk on hedging instruments is managed through diversification among rated institutions.",
    ],
    "regulation": [
        "Our treasury policy restricts investments to high grade instruments with maturities below two years.",
        "Foreign exchange exposure arises from operations invoiced in currencies other than our reporting currency.",
        "Interest rate movements primarily affect income earned on customer deposits held in trust.",
        "We monitor sovereign risk in the jurisdictions where regulated entities maintain required reserves.",
        "Sensitivity analysis indicates modest earnings exposure to simultaneous adverse currency movements.",
    ],
    "interest_rates": [
        "The fair value of our held to maturity portfolio declines as market yields rise.",
        "We model net interest income under parallel and non parallel shifts of the yield curve.",
        "Duration of the securities portfolio is managed within board approved limits.",
        "Deposit repricing betas are updated quarterly from observed competitive behavior.",
        "Derivative positions are collateralized daily to limit counterparty exposure.",
    ],
    "energy_commodities": [
        "We hedge expected production with swaps and costless collars over rolling twelve month horizons.",
        "A ten percent decline in benchmark prices would reduce the fair value of unhedged volumes materially.",
        "Basis differentials between regional hubs create residual exposure our hedges do not cover.",
        "Margin requirements on exchange cleared positions can create significant short term liquidity needs.",
        "Power purchase obligations expose us to spot electricity prices during unplanned outages.",
    ],
    "litigation": [
        "Our investment portfolio consists of money market funds and high grade municipal obligations.",
        "Interest rate changes affect the discount rates used to measure contingent liabilities and reserves.",
        "We maintain letters of credit supporting appeal bonds in connection with pending proceedings.",
        "Currency exposure is limited because substantially all revenue is denominated domestically.",
        "Changes in insurance market capacity affect the cost of renewing our liability programs.",
    ],
    "labor": [
        "Wage inflation is the dominant cost sensitivity in our operating model.",
        "We hedge interest rate exposure on the term loan with a fixed rate swap maturing alongside the facility.",
        "Pension plan assets are allocated across fixed income and equity strategies under a glide path policy.",
        "A one percent change in the assumed discount rate would change projected benefit obligations materially.",
        "Seasonal borrowing under the revolver exposes us to short term rate movements.",
    ],
}

_FILLER_SENTENCES = [
    "The occurrence of any of the foregoing could materially and adversely affect our business, financial condition, and results of operations.",
    "Although we maintain mitigation plans, there can be no assurance that such measures will be effective or timely.",
    "Management continues to monitor these developments and will adjust our strategy as circumstances evolve.",
    "Any of these factors could cause our actual results to differ materially from historical performance and current expectations.",
]

_BUSINESS_SENTENCES = [
    "We design and deliver products and services for customers across multiple end markets and geographies.",
    "Our operating segments share centralized procurement, engineering, and administrative functions.",
    "Demand for our offerings depends on capital spending cycles and broader macroeconomic conditions.",
    "We compete on quality, reliability, total cost of ownership, and the breadth of our service network.",
    "Our headquarters personnel support field operations conducted through regional offices and distribution partners.",
]

_MONTH_NAMES = ("January", "February", "March", "April", "May", "June", "July",
                "August", "September", "October", "November", "December")

# Safe event-day combos: never a quarter-end boundary.
_EVENT_DAYS = ((1, 17), (2, 9), (4, 11), (5, 23), (7, 8), (8, 14), (10, 5), (11, 19))

# Concrete happenings for the chronological view: the two paragraphs that
# share a date also share the event description, which is what makes a
# dated pair learnable once the date tokens themselves are stripped.
_EVENT_PHRASES = (
    "a ransomware intrusion at our primary fulfillment hub disrupted order processing",
    "flooding at the coastal terminal halted outbound shipments for several days",
    "a key supplier declared force majeure on contracted component volumes",
    "an unplanned outage at the northern facility curtailed production capacity",
    "a regional carrier strike delayed deliveries across the central corridor",
    "a critical software defect forced an emergency rollback of the billing platform",
    "an export license suspension interrupted shipments to overseas distributors",
    "a transformer failure at the main campus forced a temporary shutdown",
    "a recall of a legacy product line triggered unexpected warranty claims",
    "an arbitration panel issued an adverse interim ruling in the vendor dispute",
    "a data center cooling failure degraded service availability for key customers",
    "a customs inspection backlog stranded inbound components at the border",
)

PARAGRAPHS_1A = 16
PARAGRAPHS_7A = 4
# Consecutive 1A paragraphs share one event date in groups of exactly two,
# so every chronological pair has its own pair of source paragraphs and a
# paragraph-disjoint train/validation split always exists.
EVENT_DATE_GROUPS = 8
EVENT_GROUP_SIZE = 2


@dataclass
class FixtureManifest:
    """What the generator wrote and where the planted signal lives."""

    root: Path
    filings_dir: Path
    prices_dir: Path
    gics_path: Path
    firms: tuple[str, ...]
    years: tuple[int, ...]
    planted_pair: tuple[str, str] = PLANTED_PAIR
    planted_theme: str = PLANTED_THEME
    theme_by_paragraph: dict[str, str] = field(default_factory=dict)
    # ids of the planted theme's paragraphs in the planted pair's filings
    planted_ids: set[str] = field(default_factory=set)


def _date_phrase(month: int, day: int, year: int) -> str:
    return f"{_MONTH_NAMES[month - 1]} {day}, {year}"


def _paragraph_text(rng: np.random.Generator, theme: str, pool: list[str],
                    date_sentence: str | None, boilerplate: str | None,
                    min_tokens: int = 68) -> str:
    """Sample theme sentences until the paragraph is comfortably long."""
    k = min(len(pool), 4)
    picks = [pool[i] for i in sorted(rng.choice(len(pool), size=k, replace=False))]
    sentences = list(picks)
    if date_sentence:
        sentences.insert(int(rng.integers(0, len(sentences) + 1)), date_sentence)
    if boilerplate:
        sentences.append(boilerplate)
    if rng.random() < 0.5:
        sentences.append(_FILLER_SENTENCES[int(rng.integers(0, len(_FILLER_SENTENCES)))])
    text = " ".join(sentences)
    extra = 0
    while len(text.split()) < min_tokens and extra < len(pool):
        candidate = pool[int(rng.integers(0, len(pool)))]
        if candidate not in sentences:
            sentences.append(candidate)
            text = " ".join(sentences)
        extra += 1
    return text


def _section_paragraphs(rng: np.random.Generator, firm: str, year: int,
                        label: str, count: int) -> list[tuple[str, str]]:
    """Generate (text, theme) paragraphs for one section of one filing.

    Item 1A paragraphs alternate between the two halves of the theme's
    sentence pool in step with the date groups, so the two paragraphs that
    share a date also share a sub-topic (and the same event sentence), the
    way one real disclosure spreads across adjacent paragraphs.
    """
    theme = FIRM_THEMES[firm]
    full = _THEME_SENTENCES[theme] if label == "1A" else _THEME_QUANT_SENTENCES[theme]
    firm_idx = sorted(FIRM_THEMES).index(firm)

    paragraphs = []
    for k in range(count):
        if label == "1A":
            half = len(full) // 2
            pool = full[:half] if (k // EVENT_GROUP_SIZE) % 2 == 0 else full[half:]
        else:
            pool = full
        date_sentence = None
        if label == "1A" and k < EVENT_DATE_GROUPS * EVENT_GROUP_SIZE:
            group = k // EVENT_GROUP_SIZE
            month, day = _EVENT_DAYS[(firm_idx + group * 3 + (year % 2)) % len(_EVENT_DAYS)]
            event = _EVENT_PHRASES[(firm_idx * 5 + group * 3 + year) % len(_EVENT_PHRASES)]
            date_sentence = f"On {_date_phrase(month, day, year)}, {event}."
        boilerplate = None
        if rng.random() < 0.35:
            boilerplate = (f"These factors are discussed in the context of our "
                           f"fiscal year ended {_date_phrase(12, 31, year)}.")
        paragraphs.append(
            (_paragraph_text(rng, theme, list(pool), date_sentence, boilerplate), theme))
    return paragraphs


def _render_filing(firm: str, year: int, body_1a: list[str],
                   body_7a: list[str]) -> str:
    """Wrap section paragraphs in markup that ingestion must strip."""
    chunks = [
        "<html><head><title>Annual Report</title></head><body>",
        f"<p>{firm} CORP &mdash; ANNUAL REPORT FOR FISCAL {year}</p>",
        "<p>Item 1. Business</p>",
        f"<p>{' '.join(_BUSINESS_SENTENCES[:3])}</p>",
        f"<p>{' '.join(_BUSINESS_SENTENCES[2:])}</p>",
        "<table><tr><th>Segment</th><th>Revenue</th></tr>"
        "<tr><td>Products</td><td>482</td></tr>"
        "<tr><td>Services</td><td>176</td></tr></table>",
        "<p>Item 1A. Risk Factors</p>",
    ]
    chunks.extend(f"<p>{text}</p>" for text in body_1a)
    chunks.append("<table><tr><td>Exposure</td><td>Limit</td></tr>"
                  "<tr><td>Hedged</td><td>65%</td></tr></table>")
    chunks.append("<p>Item 7A. Quantitative and Qualitative Disclosures About Market Risk</p>")
    chunks.extend(f"<p>{text}</p>" for text in body_7a)
    chunks.append("<p>Item 8. Financial Statements and Supplementary Data</p>")
    chunks.append("<p>The audited statements follow the signatures page of this report.</p>")
    chunks.append("</body></html>")
    return "\n".join(chunks)


def _write_prices(prices_dir: Path, firms: list[str], seed: int,
                  n_days: int = 250) -> None:
    """Daily closes driven by a factor model with a shared planted factor.

    The planted firms load on a spiky common volatility factor, so the
    correlation of their absolute returns is visibly higher than for
    unrelated pairs.
    """
    rng = np.random.default_rng(seed + 101)
    dates = []
    day = np.datetime64("2023-01-02")
    while len(dates) < n_days:
        weekday = (day.astype("datetime64[D]").view("int64") - 4) % 7
        if weekday < 5:
            dates.append(str(day))
        day += 1

    market = rng.normal(0.0, 0.007, size=n_days)
    spikes = rng.random(n_days) < 0.12
    planted_factor = rng.normal(0.0, 0.004, size=n_days) + spikes * rng.normal(0.0, 0.03, size=n_days)
    prices_dir.mkdir(parents=True, exist_ok=True)
    for rank, firm in enumerate(firms):
        idio = rng.normal(0.0, 0.006, size=n_days)
        load = 1.0 if firm in PLANTED_PAIR else 0.0
        returns = 0.5 * market + load * planted_factor + idio
        closes = (40.0 + 6.0 * rank) * np.cumprod(1.0 + returns)
        write_csv(prices_dir / f"{firm}.csv", ["date", "close"],
                  ((date, f"{close:.4f}") for date, close in zip(dates, closes)))


def write_fixture(root: str | Path, seed: int = DEFAULT_SEED,
                  years: tuple[int, ...] = DEFAULT_YEARS) -> FixtureManifest:
    """Write the full synthetic fixture tree under ``root``.

    Layout: ``filings/<ticker>/<year>.txt``, ``prices/<ticker>.csv`` and
    ``gics.csv``. Returns a manifest mapping paragraph ids to their themes
    (ids follow the ingestion convention: firm:year:section:ordinal).
    """
    root = Path(root)
    filings_dir = root / "filings"
    prices_dir = root / "prices"
    gics_path = root / "gics.csv"
    firms = sorted(FIRM_THEMES)

    manifest = FixtureManifest(root=root, filings_dir=filings_dir,
                               prices_dir=prices_dir, gics_path=gics_path,
                               firms=tuple(firms), years=tuple(years))

    for firm in firms:
        firm_dir = filings_dir / firm
        firm_dir.mkdir(parents=True, exist_ok=True)
        for year in years:
            rng = np.random.default_rng(
                (seed, sorted(FIRM_THEMES).index(firm), year))
            body_1a = _section_paragraphs(rng, firm, year, "1A", PARAGRAPHS_1A)
            body_7a = _section_paragraphs(rng, firm, year, "7A", PARAGRAPHS_7A)
            for label, body in (("1A", body_1a), ("7A", body_7a)):
                for ordinal, (_, theme) in enumerate(body):
                    pid = Paragraph.make_id(firm, year, label, ordinal)
                    manifest.theme_by_paragraph[pid] = theme
                    if theme == manifest.planted_theme and firm in manifest.planted_pair:
                        manifest.planted_ids.add(pid)
            raw = _render_filing(firm, year, [t for t, _ in body_1a],
                                 [t for t, _ in body_7a])
            (firm_dir / f"{year}.txt").write_text(raw, encoding="utf-8")

    _write_prices(prices_dir, firms, seed)
    write_csv(gics_path, ["ticker", "sector", "industry"],
              ((firm, *FIRM_GICS[firm]) for firm in firms))
    return manifest
