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
