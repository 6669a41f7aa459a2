from hypothesis import settings

pytest_plugins = ["pytester"]

# property tests draw the same examples on every run and machine: a fixed
# seed (derandomize, which also turns off the example database), so the
# suite's verdict never depends on a local .hypothesis directory
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
