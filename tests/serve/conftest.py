"""Shared fixtures for the control-plane test suite."""

from pathlib import Path

import pytest

from repro.manifest import video_manifest_text

PROPERTIES_SECTION = """
[properties]
encoder specified : historically({one_of(E1, E2)})
no_e2 : historically(!E2)
"""

#: two components, no actions: every pair of distinct safe configs is
#: unreachable — the golden no-safe-path workload
STUCK_MANIFEST = """\
[components]
A @ host
B @ host

[invariants]
: A | B

[configurations]
only_a = 10
only_b = 01
"""

#: two independent components whose add actions are declared racing: the
#: conflict pulls them into one collaborative set, which reorders the plan
CONFLICTED_MANIFEST = """\
[components]
A @ p
B @ q

[actions]
add_b : +B @ 1
add_a : +A @ 1

[configurations]
empty =
both = A, B
"""
CONFLICTS_SECTION = """
[conflicts]
add_a add_b
"""


@pytest.fixture
def video_text():
    return video_manifest_text()


@pytest.fixture
def property_text():
    return video_manifest_text() + PROPERTIES_SECTION


@pytest.fixture
def property_path(tmp_path, property_text):
    path = tmp_path / "props.manifest"
    path.write_text(property_text, encoding="utf-8")
    return str(path)


@pytest.fixture
def video_path(tmp_path, video_text):
    path = tmp_path / "video.manifest"
    path.write_text(video_text, encoding="utf-8")
    return str(path)


@pytest.fixture
def fleet_path():
    return str(
        Path(__file__).parent.parent.parent / "examples" / "fleet30.manifest"
    )


@pytest.fixture
def fleet_text(fleet_path):
    return Path(fleet_path).read_text(encoding="utf-8")
