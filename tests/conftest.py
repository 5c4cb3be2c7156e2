from hypothesis import settings

# Property tests draw a fixed example stream, like every other seeded test
# in the suite, and keep no example database between runs.
settings.register_profile("qfix", deadline=None, derandomize=True, database=None)
settings.load_profile("qfix")
