import pytest

from freewreath import config


@pytest.mark.parametrize("name, raw, message", [
    ("FREEWREATH_ENUM_CAP", "abc",
     "FREEWREATH_ENUM_CAP must be an integer, got 'abc'"),
    ("FREEWREATH_ENUM_CAP", "0", "FREEWREATH_ENUM_CAP must be positive, got 0"),
    ("FREEWREATH_ENTRY_CAP", "1e7",
     "FREEWREATH_ENTRY_CAP must be an integer, got '1e7'"),
    ("FREEWREATH_ENTRY_CAP", "-5",
     "FREEWREATH_ENTRY_CAP must be positive, got -5"),
])
def test_caps_refuse_a_bad_variable(monkeypatch, name, raw, message):
    monkeypatch.setenv(name, raw)
    config.caps.cache_clear()
    try:
        with pytest.raises(ValueError) as info:
            config.caps()
        assert str(info.value) == message
    finally:
        config.caps.cache_clear()


@pytest.mark.parametrize("check, message", [
    # a count of more than 2,000 bits is shown by its size, not its digits
    (lambda: config.check_work_cap(10 ** 5000, "{} steps"),
     "2^16609 or more steps exceeds the cap of 10000000"),
    (lambda: config.check_work_cap(2 ** 2000 - 1, "{} steps"),
     f"{2 ** 2000 - 1} steps exceeds the cap of 10000000"),
    # a power refused by its bit length, and one small enough to be taken
    (lambda: config.check_power_cap(10 ** 30, 10 ** 6, "{} entries"),
     "2^99000000 or more entries exceeds the cap of 10000000"),
    (lambda: config.check_power_cap(2, 80, "{} entries"),
     f"{2 ** 80} entries exceeds the cap of 10000000"),
])
def test_refusals_show_huge_counts_by_size(check, message):
    with pytest.raises(config.CapExceededError) as info:
        check()
    assert str(info.value) == message


def test_caps_pass_what_fits():
    config.check_power_cap(10, 7, "{} entries")
    config.check_power_cap(1, 10 ** 30, "{} entries")
    config.check_power_cap(10 ** 30, 0, "{} entries")
