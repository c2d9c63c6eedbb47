import pytest

from ropscope import disasm


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(text): acceptance criterion summarized on one report line",
    )
    config._criterion_results = []


@pytest.fixture(autouse=True)
def fresh_decode_memo():
    """Give each test an empty decoder memo, so what one test decodes is
    never a memo hit in another. Its own MonkeyPatch keeps it in place
    when a test undoes the `monkeypatch` fixture."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disasm, "_ENCODINGS", {})
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    # A setup crash must surface as a failed criterion, not a silent gap.
    if report.when == "call" or (report.when == "setup" and not report.passed):
        item.config._criterion_results.append(
            (marker.args[0], report.passed, report.duration)
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = getattr(config, "_criterion_results", [])
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for text, ok, duration in results:
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{word}  [{duration:7.2f}s]  {text}")
