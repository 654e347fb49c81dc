"""The score-sequence route to the one-vertex window counts.

For 2g+1 loops the window count has a second life: it equals the number of
integer tuples (c_1 <= ... constraints below) generalizing tournament score
sequences.  The two computations share no code beyond the quiver itself, so
their agreement is a strong end-to-end check.  ``loop_count`` gives the same
number a third way, in closed form from the DT invariants of the loop quiver.

  c_i - c_{i-1} + 2g >= 0,   sum of last k entries <= v k / d,   total = v.
"""

from quasibps import loop_count, loop_quiver, magic_dimension_v, score_sequence_count

print("window count = score-sequence count = closed form")
for g in (0, 1, 2):
    q = loop_quiver(2 * g + 1)
    print(f"\n  {2 * g + 1} loops:")
    for d in (2, 3, 4):
        pairs = []
        for v in range(0, d + 2):
            a = magic_dimension_v(q, (d,), v)
            b = score_sequence_count(g, d, v)
            c = loop_count(g, d, v)
            marker = "" if a == b == c else "  <-- MISMATCH"
            pairs.append(f"{a}={b}={c}{marker}")
        print(f"    d = {d}: " + "  ".join(pairs))

print("\ng = 2, d = 2: the three sequences at v = 0 are "
      "(0,0), (-1,1), (-2,2) read back to front")
print("count:", score_sequence_count(2, 2, 0))
