"""Tensor-power supports and word lengths by walking label by label.

One walk from the trivial label steps the frozenset support through the
label rules of ``fuse_oracle``, so one pass serves every step up to its
length: the supports S_k of the k-fold products over a generating set S, and
the first step reaching each label, which is its word length over S.  This is
the oracle of the closed-form reach tables, balls and word-length rules, and
it reads no fusion table.
"""

import itertools

import fuse_oracle


def step(dual, supp, S):
    """The labels of a (x) s over a in supp and s in S: one tensor-power step,
    as :meth:`bfw.duals.GroupDual.support_step` takes it."""
    return frozenset(sigma for a in supp for s in S for sigma, _ in fuse_oracle.fuse(dual, a, s))


def supports(dual, S):
    """S_0, S_1, S_2, ... without end: S_k holds the labels in some k-fold
    tensor product of members of S (S_0 is the trivial label alone)."""
    supp = frozenset([dual.trivial])
    while True:
        yield supp
        supp = step(dual, supp, S)


def first_steps(dual, S, n: int) -> dict:
    """Each label of word length <= n over S, mapped to its word length: the
    first k <= n whose S_k holds it."""
    first: dict = {}
    for k, supp in enumerate(itertools.islice(supports(dual, S), n + 1)):
        for a in supp:
            first.setdefault(a, k)
    return first
