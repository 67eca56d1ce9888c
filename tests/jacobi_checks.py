"""Structural checks of Jacobi forms kept as test oracles.

Both read one coefficient at a time through `JacobiFormSeries.c`, so they
share no code with the vector operations of `siegelcong.jacobi`.
"""


def check_transformation_law(phi):
    """c(n, r) == c(n + r + m, r + 2m) wherever both keys are stored."""
    m = phi.index
    for n in range(phi.prec + 1):
        for r in range(-phi.rb(n), phi.rb(n) + 1):
            n2, r2 = n + r + m, r + 2 * m
            if 0 <= n2 <= phi.prec and abs(r2) <= phi.rb(n2):
                if not phi.ring.is_zero(phi.ring.sub(phi.c(n, r), phi.c(n2, r2))):
                    return False
    return True


def check_holomorphic_support(phi):
    """c(n, r) == 0 wherever 4nm - r^2 < 0."""
    m = phi.index
    return all(phi.ring.is_zero(phi.c(n, r))
               for n in range(phi.prec + 1)
               for r in range(-phi.rb(n), phi.rb(n) + 1) if 4 * n * m - r * r < 0)
