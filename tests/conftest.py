from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; pass --hypothesis-profile=default for fresh random draws.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
