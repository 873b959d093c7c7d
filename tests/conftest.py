from hypothesis import settings

# Property tests run a fixed, seed-independent example sequence so the
# suite stays deterministic.
settings.register_profile("ricciflow", max_examples=30, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("ricciflow")
