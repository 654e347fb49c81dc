"""Admissible partition sets and the search for a generic central weight.

A partition of the dimension vector is admissible for a central weight when
each of its parts e passes an integrality test on its own: E(e, d - e)/2
plus the central pairing with e is an integer, with E(a, b) = a^T Q b - a.b.
The set of admissible partitions controls the block decomposition downstream;
the most useful central weights are the ones whose set is the single full
partition.
"""

from quasibps import (
    CentralWeight,
    admissible_partitions,
    find_central_weight,
    loop_quiver,
)

q = loop_quiver(3)

print("three loops, one vertex: admissible sets as v moves")
for d in (3, 4):
    for v in range(d + 1):
        sets = admissible_partitions(q, (d,), CentralWeight.spread((d,), v))
        names = ", ".join(str(a) for a in sets)
        print(f"  d = {d}, v = {v}: {{{names}}}")
    print()

print("everything survives when gcd(v, d) = d, only the full partition when "
      "gcd(v, d) = 1\n")

print("search for the smallest weight parameter with a singleton set:")
for loops in (3, 2):
    ql = loop_quiver(loops)
    for d in (2, 4, 6):
        delta = find_central_weight(ql, (d,))
        if delta is None:
            print(f"  {loops} loops, d = {d}: none within the search bounds")
        else:
            v = delta.total_pairing((d,))
            print(f"  {loops} loops, d = {d}: delta = {delta.values[0]} (v = {v})")
print()
print("even loop counts misbehave at d = 2 mod 4: the parameter v = 1 fails "
      "there and the search moves on")
