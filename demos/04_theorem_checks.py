"""Mechanical verification of the proven dijoin identities, with witnesses.

Run:  python demos/04_theorem_checks.py
"""

from invlab import (
    check_trichotomy,
    compose_dijoin_family,
    decode,
    dijoin,
    extend_to_tournament,
    encode,
    family_to_matrix,
    is_decycling_family,
    is_decycling_matrix,
    rank,
    solve_inv,
    solve_tmr,
    verify_dijoin_theorems,
)

c3 = decode("3:101")

# A decycling family for D1 plus a certificate for D2 compose into a
# decycling family for the dijoin with inv(D1) + tmr(D2) sets.
fam1 = solve_inv(c3).certificate.payload
cert2 = solve_inv(c3).certificate
fam = compose_dijoin_family(c3, fam1, c3, cert2)
j = dijoin(c3, c3)
print("composed family:", fam.to_lists())
print("decycles the dijoin:", is_decycling_family(j, fam), "| solver agrees:", solve_inv(j).value == fam.m)

# The composed family's gram matrix is block diagonal, one minimum-rank
# block per operand, so it witnesses tmr(D1 -> D2) <= tmr(D1) + tmr(D2).
M = family_to_matrix(fam)
print("its gram matrix: rank", rank(M), "== 2 * tmr(C3) =", 2 * solve_tmr(c3).value,
      "| decycles:", is_decycling_matrix(j, M))

# With D2 a gap class (inv = tmr + 1, here 3 = 2 + 1), D2's family merges
# into a set of D1's and the dijoin needs one inversion fewer than
# inv(D1) + inv(D2): inv(D1 -> D2) = inv(D1) + tmr(D2) when inv(D1) = 2.
d1, gap = decode("5:0001000010"), decode("8:0000011000100010010010101000")
rep = check_trichotomy(gap)
fam = compose_dijoin_family(d1, solve_inv(d1).certificate.payload, gap, rep.inv_certificate)
j = dijoin(d1, gap)
print("gap operand: inv", rep.inv, "tmr", rep.tmr, "| composed family has", fam.m, "sets,",
      "decycles:", is_decycling_family(j, fam), "| inv of the dijoin:", solve_inv(j).value)

# Any oriented graph extends to a tournament with the same inversion number.
four_cycle = decode("4;0>1,1>2,2>3,3>0")
value, cert = solve_inv(four_cycle)
star = extend_to_tournament(four_cycle, cert.payload)
print("4-cycle extends to", encode(star), "with inv", solve_inv(star).value, "== inv of the 4-cycle", value)

# The scanner grinds the proven identities over every pair of small
# tournament classes; zero violations expected.
report = verify_dijoin_theorems(max_each=3)
print()
print(report.table())
