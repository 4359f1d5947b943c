import pytest

from minent.entropy import Clique


@pytest.fixture
def built_cliques(monkeypatch):
    """The members of every ``Clique`` constructed while the test runs."""
    built = []
    check = Clique.__post_init__

    def counted(self):
        built.append(self.members)
        check(self)

    monkeypatch.setattr(Clique, "__post_init__", counted)
    return built
