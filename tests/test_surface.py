"""The public surface: README §Library lists exactly ``lrdistill.__all__``."""

import os
import re

import lrdistill

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_library_section_lists_the_public_names():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(lrdistill.__all__)
    assert all(hasattr(lrdistill, name) for name in lrdistill.__all__)
