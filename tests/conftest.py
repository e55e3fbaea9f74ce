"""Suite-wide pytest options."""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/rows.json from this tree's rows and "
             "print every field that moved")
