"""Plain bisections, kept apart from the package as references: the guided
solves in `numerics` and `scenario` must return their bits."""


def plain_invert_increasing(f, lo, hi, target, tol=1e-12):
    """Bisection for increasing f, as `numerics.invert_increasing` was
    before it took a guess."""
    if f(lo) >= target:
        return lo
    if f(hi) <= target:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def project_by_ray_pos(cur, t, x):
    """The plain bisection over `ray_pos` that `_Curves.project` must
    reproduce, with its 80-step budget."""
    lo, hi = cur.t_a2, cur.t_b2
    if cur.ray_pos(lo, t) >= x:
        return lo
    if cur.ray_pos(hi, t) <= x:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cur.ray_pos(mid, t) < x:
            if lo == mid:
                break
            lo = mid
        else:
            if hi == mid:
                break
            hi = mid
    return 0.5 * (lo + hi)
