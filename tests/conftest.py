"""The one hypothesis profile of the suite: each property draws the same examples on every
run, keeps no example database and has no deadline.  A test that draws another number of
examples than 200 says so with @settings(max_examples=N), and nothing else."""

from hypothesis import settings

settings.register_profile("qmono", deadline=None, derandomize=True, database=None,
                          max_examples=200)
settings.load_profile("qmono")
