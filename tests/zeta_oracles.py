"""Independent test oracles for zeta zero counts, kept out of the package."""
import math

from partialzeta.lfunctions import hardy_Z


def critical_line_zero_scan(T: float, step: float = 0.05) -> list[float]:
    """Independent oracle: sign changes of the rotated zeta on Re s = 1/2."""
    zeros = []
    t = max(step, 1.0)
    prev = hardy_Z(t)
    while t < T:
        t2 = min(t + step, T)
        cur = hardy_Z(t2)
        if prev == 0.0:
            zeros.append(t)
        elif prev * cur < 0:
            a, b = t, t2
            fa = prev
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = hardy_Z(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        t, prev = t2, cur
    return zeros


def riemann_von_mangoldt(T: float) -> float:
    """Main-term estimate for the zero count of zeta below height T."""
    return T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0
