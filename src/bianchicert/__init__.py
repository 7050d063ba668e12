"""Exact arithmetic in imaginary quadratic orders, Bianchi-group matrix
computation, circle-stabilizer and quadratic-residue tests, congruence
subgroups, and certified construction of normal-closure elements in
co-compact circle stabilizers.
"""
