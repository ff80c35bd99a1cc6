"""The fixed loop against which the benchmark scales its times."""

# The host's speed changes by up to 1.7x from one second to the next (a
# child's CPU time changes with its wall time), and the share of slow
# seconds differs from run to run, so raw times of separate runs disagree
# by far more than a regression bound.  The drift is common to every
# process, so after every call the harness also runs this fixed loop,
# which does not touch deltapoe, in a child process of its own.  Each
# round's times are scaled by the mean time of that round's loops, to a
# host on which one loop takes REFERENCE_S, and a metric is the median of
# its scaled times over the run's rounds.  The traced run times the same
# loop in its own process after each traced round.
REFERENCE_LOOP = (
    "d = {}\n"
    "for i in range(300000):\n"
    "    d[i % 977] = (i, str(i))\n"
    "sorted(d.items(), key=lambda kv: kv[1][1])\n"
)
REFERENCE_S = 0.2
