"""The small list of ``identity.py`` has the digests recorded in
``identity.json``; ``python tests/identity.py --full`` checks the rest."""

import pytest

import identity

RECORDED = identity.recorded()


def test_record_covers_the_full_list():
    assert set(RECORDED) == set(identity.FULL)


@pytest.mark.filterwarnings("ignore:constructing access tables")
@pytest.mark.parametrize("name", list(identity.SMALL))
def test_small_input_has_its_recorded_digests(name):
    assert identity.SMALL[name]() == RECORDED[name]
