"""Level-1 q-series that only tests use: E_k of any even weight k >= 4, and
Delta read from `siegelcong.qexp.level1_series`."""

from siegelcong.errors import InvalidArgumentError
from siegelcong.qexp import _eisenstein, level1_series


def eisenstein_q(k, prec, ring):
    """Normalized Eisenstein series of even weight k >= 4.

    E_k = 1 - (2k/B_k) * sum sigma_{k-1}(n) q^n; the scaling is integral for
    k = 4 and 6 (240 and -504).
    """
    if k % 2 or k < 4:
        raise InvalidArgumentError(f"Eisenstein weight must be even and >= 4, got {k}")
    return _eisenstein(k, prec, ring)


def delta_q(prec, ring):
    """The discriminant cusp form Delta = (E4^3 - E6^2)/1728, leading q^1: a
    read-only view of level1_series."""
    if prec < 1:
        raise InvalidArgumentError("Delta needs precision >= 1")
    return level1_series(prec, ring)[3]
