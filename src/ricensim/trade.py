"""Bilateral trade: demand, export rationing, tariffs, and consumption.

Matrix convention: entry ``[i, j]`` is the flow from exporter j to importer
i, so row sums are a region's imports and column sums its exports.

Import demand allocates each importer's budget (a fraction of its gross
output) across partners in proportion to partner gross output. The budget
bound keeps aggregate demand below world output, and the partner weighting
keeps each region's exports roughly proportional to its own output, so
bilateral flows stay balanced up to heterogeneity in trade actions.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import VariantConfig

#: The balance-driven multiplier on the import budget is clamped here to
#: prevent runaway feedback through the trade channel.
BUDGET_MULTIPLIER_BOUNDS = (0.5, 1.5)

#: Positive denominators below this are raised to it before dividing.
TINY = 1e-300


class TradeFlows:
    """Rationed and tariffed import matrices, with the rationed matrix's
    column sums (``exports_scaled``) and row sums (``imports_scaled``) taken
    once, by the constructor."""

    __slots__ = ("scaled", "tariffed", "exports_scaled", "imports_scaled")

    def __init__(self, scaled: np.ndarray, tariffed: np.ndarray):  # [importer, exporter]
        self.scaled = scaled
        self.tariffed = tariffed
        self.exports_scaled = scaled.sum(axis=0)
        self.imports_scaled = scaled.sum(axis=1)


class ConsumptionBreakdown(NamedTuple):
    """Domestic/foreign consumption split and the aggregate reward basis."""

    domestic: np.ndarray
    foreign: np.ndarray
    aggregate: np.ndarray
    domestic_floored: np.ndarray  # True where domestic consumption hit the 0 floor


def build_demand(
    import_rates: np.ndarray,
    gross_output: np.ndarray,
    budget_fraction: np.ndarray | float,
) -> np.ndarray:
    """Demand matrix from import rates, budgets, and partner sizes.

    ``demand[i, j] = rate[i, j] * (budget[i] * Y[i]) * (Y[j] / P[i])``
    with partner total ``P[i] = sum(Y) - Y[i]``, evaluated in that order.

    With two regions the partner weight is 1 and the entry reduces to
    rate * budget * own output. Rows whose partner total is not positive
    are zero; a positive total is floored at ``TINY`` before dividing. The
    diagonal is zero.
    """
    y = np.asarray(gross_output, dtype=np.float64)
    n = y.shape[0]
    partner_total = y.sum() - y  # sum over k != i, per importer i
    if partner_total.min() >= TINY:
        shares = y / partner_total[:, None]
    else:
        shares = np.where(
            partner_total[:, None] > 0.0, y / np.maximum(partner_total[:, None], TINY), 0.0
        )
    demand = import_rates * (budget_fraction * y)[:, None] * shares
    demand.flat[:: n + 1] = 0.0
    return demand


def ration_exports(demanded: np.ndarray, export_capacity: np.ndarray) -> np.ndarray:
    """Scale each exporter's column so its total never exceeds capacity.

    ``scaled[i, j] = demanded[i, j] * min(1, capacity[j] / T[j])`` with
    column total ``T[j] = sum(demanded[:, j])``, and 0 where ``T[j]`` is not
    positive. Rationing is proportional in a single pass; an unconstrained
    exporter ships exactly what is demanded, and 0/0 resolves to no trade.
    """
    demanded = np.asarray(demanded, dtype=np.float64)
    capacity = np.asarray(export_capacity, dtype=np.float64)
    col_totals = demanded.sum(axis=0)
    if col_totals.min() > 0.0:
        scale = np.minimum(1.0, capacity / col_totals)
    else:
        ratio = np.divide(
            capacity, col_totals, out=np.zeros_like(col_totals), where=col_totals > 0.0
        )
        scale = np.minimum(1.0, ratio)
    return demanded * scale


def apply_tariffs(
    scaled: np.ndarray, tariff_rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tariffed imports and per-importer tariff revenue.

    ``tariffed[i, j] = scaled[i, j] * (1 - rate[i, j])``; the wedge
    ``scaled[i, j] * rate[i, j]`` accrues to the importer as revenue.
    """
    tariffed = scaled * (1.0 - tariff_rates)
    revenue = (scaled * tariff_rates).sum(axis=1)
    return tariffed, revenue


def consumption(
    net_output: np.ndarray,
    investment: np.ndarray,
    flows: TradeFlows,
    foreign_weight: float,
    variant: VariantConfig,
) -> ConsumptionBreakdown:
    """Split consumption into domestic and foreign parts.

    Domestic consumption is net output less investment and scaled exports;
    foreign consumption is the region's own tariffed imports. With the
    overproduction penalty on, the exporter also loses the part of its
    shipped output that the importers tariffed away.
    """
    domestic = net_output - investment - flows.exports_scaled
    if variant.overproduction_penalty:
        domestic = domestic - (flows.scaled - flows.tariffed).sum(axis=0)
    floored = domestic < 0.0
    domestic = np.maximum(domestic, 0.0)
    foreign = flows.tariffed.sum(axis=1)
    return ConsumptionBreakdown(
        domestic=domestic,
        foreign=foreign,
        aggregate=domestic + foreign_weight * foreign,
        domestic_floored=floored,
    )


def step_balance(
    balance: np.ndarray,
    exports_scaled: np.ndarray,
    imports_scaled: np.ndarray,
    revenue: np.ndarray,
    variant: VariantConfig,
    dt_years: float,
) -> np.ndarray:
    """Advance trade balances; tariff revenue accrues only under the variant.

    The revenue term is added separately so that, given identical flows,
    switching the variant on changes the balance by exactly dt * revenue.
    """
    out = balance + dt_years * (exports_scaled - imports_scaled)
    if variant.use_tariff_revenue:
        out = out + dt_years * revenue
    return out


def import_budget_multiplier(balance: np.ndarray, gross_output: np.ndarray) -> np.ndarray:
    """Balance feedback on the import budget, clamped to [0.5, 1.5].

    ``multiplier[i] = min(max(1 + balance[i] / (10 * Y[i]), 0.5), 1.5)``,
    and 1 where ``Y[i]`` is not positive; a positive output is floored at
    ``TINY`` before dividing.
    """
    lo, hi = BUDGET_MULTIPLIER_BOUNDS
    if gross_output.min() >= TINY:
        raw = 1.0 + balance / (10.0 * gross_output)
    else:
        raw = np.where(
            gross_output > 0.0, 1.0 + balance / (10.0 * np.maximum(gross_output, TINY)), 1.0
        )
    return np.minimum(np.maximum(raw, lo), hi)
