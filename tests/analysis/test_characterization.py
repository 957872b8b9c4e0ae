"""Suite characterization rows."""

from repro.analysis import characterization, characterize_app, characterize_suite
from repro.cmp.spec_suite import app_by_name
from repro.workloads import classification


class TestCharacterizeApp:
    def test_mcf_row(self):
        row = characterize_app(app_by_name("mcf"))
        assert row.cls == "C"
        assert row.suite == "spec2000"
        # mcf's 90%-resolution footprint sits near its 1.5 MB working set.
        assert 1.3 <= row.footprint_mb <= 1.9
        assert row.cache_sensitivity > 0.4
        assert row.alone_gips > 0.0

    def test_povray_row(self):
        row = characterize_app(app_by_name("povray"))
        assert row.cls == "P"
        assert row.footprint_mb < 0.5
        assert row.power_sensitivity > 0.6

    def test_flat_app_has_no_footprint(self):
        row = characterize_app(app_by_name("libquantum"))
        # A flat MRC has no cache-sensitive misses to resolve.
        assert row.footprint_mb == 0.0


class TestCharacterizeSuite:
    def test_24_rows_six_per_class(self):
        rows = characterize_suite()
        assert len(rows) == 24
        for cls in "CPBN":
            assert sum(r.cls == cls for r in rows) == 6

    def test_pooled_rows_match_serial(self):
        assert characterize_suite(workers=2) == characterize_suite()

    def test_profiles_each_app_once(self, monkeypatch):
        # The class letter comes from the sensitivities the row already
        # has, so no application is profiled a second time to classify it.
        profiled = []
        real = classification.profile_application

        def spy(app, config=None):
            profiled.append(app.name)
            return real(app, config)

        monkeypatch.setattr(classification, "profile_application", spy)
        monkeypatch.setattr(characterization, "profile_application", spy)
        rows = characterize_suite()
        assert sorted(profiled) == sorted(row.name for row in rows)
