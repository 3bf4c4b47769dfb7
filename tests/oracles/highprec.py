"""Regenerate the frozen high-precision reference values used in the tests.

Evaluates the same closed forms as hingedplate.series with 50-digit mpmath
arithmetic.  Run:  python tests/oracles/highprec.py
"""

import mpmath as mp

mp.mp.dps = 50


def denominators(z, sig):
    base = (3 + sig) / 2 * mp.sinh(2 * z)
    return base - z * (1 - sig), base + z * (1 - sig)


def kernels(r, z, sig):
    cr, sr = mp.cosh(r), mp.sinh(r)
    cz, sz = mp.cosh(z), mp.sinh(z)
    a1 = 4 / (1 - sig) - z * (1 + sig)
    a2 = (1 + sig) ** 2 / (1 - sig) + 2 * z
    b1 = 2 + (1 - sig) * z
    b2 = -(1 + sig) + z * (1 - sig)
    zeta = a1 * cr * cz + a2 * cr * sz - 2 * r * sr * cz + r * (1 + sig) * sr * sz
    theta = r * (1 + sig) * cr * cz - 2 * r * cr * sz + a2 * sr * cz + a1 * sr * sz
    psi = b1 * cr * cz + b2 * cr * sz - r * (1 - sig) * sr * cz - r * (1 - sig) * sr * sz
    omega = -r * (1 - sig) * cr * cz - r * (1 - sig) * cr * sz + b2 * sr * cz + b1 * sr * sz
    return zeta, theta, psi, omega


def coefficient(y, eta, m, sig, l):
    s, r, t = m * l, m * y, m * eta
    f, fbar = denominators(s, sig)
    zeta, theta, psi, omega = kernels(r, s, sig)
    bracket = (mp.cosh(t) * (zeta / f + s * psi / f - t * omega / fbar)
               + mp.sinh(t) * (theta / fbar + s * omega / fbar - t * psi / f))
    d = abs(r - t)
    return mp.e ** (-s) * bracket + (1 + d) * mp.e ** (-d)


def threshold(sig, l, m_max):
    total = mp.mpf(0)
    for m in range(1, m_max + 1, 2):
        total += mp.sinh(m * l) ** 2 / (
            m ** 3 * (1 - sig) * ((3 + sig) * mp.sinh(2 * m * l)
                                  + 2 * m * l * (1 - sig)))
    return 4 / mp.pi * total


def closed_bound(sig, l):
    num = mp.pi * mp.cosh(l) ** 2 * (5 + 2 * sig + sig ** 2
                                     + 2 * l * (5 + 2 * sig) * (1 - sig)
                                     + 8 * l ** 2 * (1 - sig) ** 2)
    den = 6 * (1 - sig) * ((3 + sig) * mp.sinh(2 * l) - l * (1 + sig))
    return num / den + mp.pi / 12


if __name__ == "__main__":
    sig, l = mp.mpf("0.2"), mp.mpf("0.1")
    f, fbar = denominators(mp.mpf("0.5"), sig)
    print("F_AT_HALF    =", mp.nstr(f, 17))
    print("FBAR_AT_HALF =", mp.nstr(fbar, 17))
    print("PHI3_REF     =", mp.nstr(coefficient(mp.mpf("0.01"), mp.mpf("-0.02"), 3, sig, l), 17))
    print("C_REF        =", mp.nstr(closed_bound(sig, l), 17))
    print("M_REF        =", mp.nstr(threshold(sig, l, 200_000), 17))
