from hypothesis import settings

# Reruns draw the same examples, and a loaded machine does not trip deadlines.
settings.register_profile("csilink", derandomize=True, deadline=None)
settings.load_profile("csilink")
