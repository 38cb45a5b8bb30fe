"""Show that both pivot samplers draw from the volume-sampling
distribution, by comparing empirical subset frequencies against exhaustive
enumeration on a problem small enough to enumerate.
"""

from collections import Counter

import numpy as np

import rowpick as rp

rng = np.random.default_rng(42)
Q = rp.orth(rng.standard_normal((6, 2)))

dist = rp.enumerate_volume_probs(Q, 2)
draws = 50000

# one sampler object per basis: the set-up runs once, and the draws read
# the states that earlier draws stored after the same pivots. draws()
# makes them as many draw() calls would, with the uniforms drawn in blocks
rejection = rp.RejectionSampler(Q)
sequential = rp.SequentialSampler(Q.T, 2)
rej = Counter(pivots.as_tuple() for pivots, _ in rejection.draws(rng, draws))
seq = Counter(pivots.as_tuple() for pivots in sequential.draws(rng, draws))

print(f"{'subset':>10} {'exact':>9} {'rejection':>10} {'sequential':>11}")
for subset in dist.support():
    print(
        f"{str(subset):>10} {dist.prob(subset):9.4f} "
        f"{rej[subset] / draws:10.4f} {seq[subset] / draws:11.4f}"
    )

emp_rej = {t: c / draws for t, c in rej.items()}
emp_seq = {t: c / draws for t, c in seq.items()}
print(f"\nTV(rejection, exact)  = {dist.total_variation(emp_rej):.4f}")
print(f"TV(sequential, exact) = {dist.total_variation(emp_seq):.4f}")

# the same distribution also arises as a determinantal point process on
# the projection kernel Q Q^T:
dpp = rp.enumerate_kdpp_probs(Q @ Q.T, 2)
gap = max(abs(dist.prob(t) - dpp.prob(t)) for t in dist.support())
print(f"max |volume-sampling - projection-DPP| = {gap:.2e}")
