import math
import re

import numpy as np
import pytest

from loopexp.channel import (P_MIN, ChannelRealization,
                             conditional_entropy_per_node,
                             half_llr_magnitude, read_channel_csv,
                             sample_bsc, write_channel_csv)


class TestHalfLLR:
    def test_known_value(self):
        assert half_llr_magnitude(0.48) == pytest.approx(
            0.5 * math.log(0.52 / 0.48), abs=1e-15)

    def test_symmetric_point(self):
        assert half_llr_magnitude(0.5) == 0.0

    @pytest.mark.parametrize("p", [0.0, -0.1, 0.6])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            half_llr_magnitude(p)


class TestSampleBSC:
    def test_magnitudes_exact(self, prism):
        real = sample_bsc(prism, 0.45, 3)
        want = 0.5 * math.log(0.55 / 0.45)
        assert np.all(np.abs(real.h) == want)
        assert real.p == 0.45
        assert real.magnitude == pytest.approx(want, abs=0)

    def test_p_half_gives_zero_fields(self, prism):
        real = sample_bsc(prism, 0.5, 0)
        assert np.all(real.h == 0.0)

    def test_seed_determinism(self, prism):
        r1 = sample_bsc(prism, 0.45, 9)
        r2 = sample_bsc(prism, 0.45, 9)
        assert np.array_equal(r1.signs, r2.signs)
        assert r1.seed == 9

    def test_rejects_degenerate_p(self, prism):
        for p in (0.0, P_MIN / 10, 0.51, -0.2):
            with pytest.raises(ValueError):
                sample_bsc(prism, p, 0)

    def test_sign_flip_fraction_lln(self):
        # empirical flip fraction over many edges within 3 sigma of p
        from loopexp.graphs import sample_regular_graph
        p = 0.45
        flips = 0
        total = 0
        for t in range(60):
            g = sample_regular_graph(20, 3, [7, t, 0])
            real = sample_bsc(g, p, [7, t, 1])
            flips += int(np.sum(real.signs < 0))
            total += g.num_edges
        sigma = math.sqrt(p * (1 - p) / total)
        assert abs(flips / total - p) <= 3 * sigma


class TestEntropyConversion:
    def test_identity_at_half(self):
        assert conditional_entropy_per_node(0.37, 0.5) == 0.37

    def test_known_value(self):
        want = 0.5 - 0.2 * math.log(7.0 / 3.0)
        assert conditional_entropy_per_node(0.5, 0.3) == pytest.approx(
            want, abs=1e-15)

    def test_affine_in_free_energy(self):
        p = 0.41
        base = conditional_entropy_per_node(0.0, p)
        assert conditional_entropy_per_node(1.7, p) == pytest.approx(
            base + 1.7, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-6, 0.1, 0.3, 0.41, 0.45, 0.4999, 0.5])
    def test_equals_the_closed_form(self, p):
        # f - (1 - 2p)|h| differs from f - ((1 - 2p)/2) ln((1-p)/p) only by
        # where an exact 1/2 is applied
        f = 0.37
        assert conditional_entropy_per_node(f, p) == (
            f - ((1.0 - 2.0 * p) / 2.0) * math.log((1.0 - p) / p))

    @pytest.mark.parametrize("p", [0.0, 0.6])
    def test_domain(self, p):
        with pytest.raises(ValueError, match=rf"^flip probability {p} "
                           r"outside \(0, 1/2\]$"):
            conditional_entropy_per_node(0.1, p)


class TestChannelCSV:
    def test_round_trip(self, tmp_path, prism):
        path = tmp_path / "chan.csv"
        for p in (0.45, 1e-6, 0.01, 0.1, 0.3, 0.5):
            real = sample_bsc(prism, p, 123)
            write_channel_csv(real, path)
            back = read_channel_csv(path)
            assert back.p == real.p
            assert back.seed == real.seed
            assert back.signs.tobytes() == real.signs.tobytes()
            assert back.h.tobytes() == real.h.tobytes()

    @pytest.mark.parametrize("p", ["1e-09", "0.7", "nan"])
    def test_p_outside_the_sampler_range_refused(self, tmp_path, p):
        path = tmp_path / "chan.csv"
        path.write_text(f"# p={p}\nedge,sign,h\n")
        with pytest.raises(ValueError, match=rf"^flip probability {p} "
                           r"outside \[1e-06, 0.5\]$"):
            read_channel_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1,3,nan", "edge 1 has sign 3, expected 1 or -1"),
        ("1,0,0.0", "edge 1 has sign 0, expected 1 or -1"),
        ("1,1,-1.0986122886681098", "edge 1 has h=-1.0986122886681098, "
         "expected 1.0986122886681098 at p=0.1"),
        ("1,1,nan", "edge 1 has h=nan"),
        ("1,-1,-1.0986122886681096", "edge 1 has h=-1.0986122886681096"),
    ], ids=["sign-3", "sign-0", "h-wrong-sign", "h-nan", "h-last-bit"])
    def test_row_must_match_p(self, tmp_path, row, message):
        # edge 0 is as sample_bsc writes it at p = 0.1; edge 1 is not
        path = tmp_path / "chan.csv"
        path.write_text("# p=0.1\nedge,sign,h\n0,-1,-1.0986122886681098\n"
                        f"{row}\n2,1,1.0986122886681098\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            read_channel_csv(path)

    def test_no_header_row_rejected(self, tmp_path):
        path = tmp_path / "chan.csv"
        path.write_text("# p=0.1\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_channel_csv(path)
