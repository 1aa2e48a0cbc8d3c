"""The suite tests the package of this checkout, not an installed copy."""

from pathlib import Path

import rstcnn

SRC = Path(__file__).resolve().parents[1] / "src"


def test_the_package_is_imported_from_the_checkouts_src():
    assert Path(rstcnn.__file__).resolve().parent.parent == SRC
