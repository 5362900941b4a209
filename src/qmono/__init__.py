"""Monodromy of generic hyperplanes with respect to the standard quadric.

Word problem in G = <a, b, k | k a = b k, k^2 = 1>, its rank-2 integer
monodromy representation, lattice orbits, hyperplane/quadric incidence
predicates, numeric classification of sampled hyperplane loops, and the
relative homology rank table.
"""
