pytest_plugins = ["pytester"]
