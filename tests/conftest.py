import sys

import hypothesis
import pytest

# The whole suite must be reproducible run to run; derandomize pins the
# hypothesis example stream to the test function itself.
hypothesis.settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=60,
    deadline=None,
)
hypothesis.settings.load_profile("deterministic")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function module.name in every
    orthokit module that binds it, the imports by name included, and returns
    the list that receives the arguments of each call.  count_calls(cls,
    name) wraps the method cls.name the same way."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        if isinstance(module, type):
            monkeypatch.setattr(module, name, counted)
            return calls
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "orthokit" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
