"""The closed form and the first-passage bound on every preset, to the bit.

The values were captured with float.hex from the formulas as first written,
each quantity spelled out from sigma_a, sigma_b and rho, before they were
rebuilt on joint_mgf_exponent. A change to the price model that should
leave zero-drift GBM alone (drift, jumps, interest noise) must leave every
one of these bits alone.
"""

import pytest

from ammhedge import analytics as an, liquidation_fpt as fpt
from ammhedge.experiments import PRESETS, TABLE4_GRID, TABLE5_GRID, get_preset

ALPHAS = (0.01, 0.02, 0.05, 0.10)

# per preset, in order: phi, v_gg, v_aa, v_ga, mu0, c, h_star; sharpe on
# TABLE4_GRID; sigma_tilde, then liquidation_probability on TABLE5_GRID;
# h_bar at each of ALPHAS
PINNED = {
    "baseline": """
        0x1.2bffa8165f124p-4 0x1.d646836d79760p-3 0x1.ea47fab528538p-3 0x1.df58640bc9d88p-3
        0x1.146ff6014a68ap-3 0x1.6b971337b0530p-6 0x1.f43f70a380f05p-1
        0x1.2070a67534355p-2 0x1.5e581b320b20dp-2 0x1.c6988320c905ep-2 0x1.0d6e89bfe6b30p-1
        0x1.4d3d0dd625cbap-1 0x1.7b2c329717a01p-1 0x1.b8bf730b5d6a5p-1 0x1.486454c3c539dp+0
        0x1.de450761fe85bp+1
        0x1.ddad236c1b5d7p-1 0x1.0c093d16aa231p-13 0x1.62a7a21303a36p-10 0x1.aff36d3a6b6b7p-8
        0x1.50a2f36466b08p-6 0x1.8b44928103d72p-5 0x1.7f0c24a865a8ep-4 0x1.ef5f9d895a168p-3
        0x1.10fff00000000p-1 0x1.31ca700000000p-1 0x1.68dbd00000000p-1 0x1.9f87f00000000p-1
    """,
    "eth_arb": """
        0x1.6f1886df82b1cp-5 0x1.81ffde373b278p-3 0x1.8db8d9c1e25d0p-3 0x1.877f65c4d976cp-3
        0x1.52c7c33932b1ep-4 0x1.4330f4a347664p-7 0x1.f7e0b2c96b385p-1
        0x1.862ce1c85d1e3p-3 0x1.ddc36de27555dp-3 0x1.387c90c30084dp-2 0x1.73e46755e5c63p-2
        0x1.cdccc954d7c55p-2 0x1.07470273b0c5fp-1 0x1.32c0f97984b60p-1 0x1.ccf052b9d7202p-1
        0x1.ef27332b45b29p+1
        0x1.b26040b2c6246p-1 0x1.f83a6a356770ap-16 0x1.01027e8c1f140p-11 0x1.9e8620ed38097p-9
        0x1.886931e0fb318p-7 0x1.090e7364e39abp-5 0x1.1cf757fca706ap-4 0x1.a71146a1a4306p-3
        0x1.2b47f00000000p-1 0x1.4bdd700000000p-1 0x1.81f0900000000p-1 0x1.b6f5f00000000p-1
    """,
    "jumps": """
        0x1.2bffa8165f124p-4 0x1.d646836d79760p-3 0x1.ea47fab528538p-3 0x1.df58640bc9d88p-3
        0x1.146ff6014a68ap-3 0x1.6b971337b0530p-6 0x1.f43f70a380f05p-1
        0x1.2070a67534355p-2 0x1.5e581b320b20dp-2 0x1.c6988320c905ep-2 0x1.0d6e89bfe6b30p-1
        0x1.4d3d0dd625cbap-1 0x1.7b2c329717a01p-1 0x1.b8bf730b5d6a5p-1 0x1.486454c3c539dp+0
        0x1.de450761fe85bp+1
        0x1.ddad236c1b5d7p-1 0x1.0c093d16aa231p-13 0x1.62a7a21303a36p-10 0x1.aff36d3a6b6b7p-8
        0x1.50a2f36466b08p-6 0x1.8b44928103d72p-5 0x1.7f0c24a865a8ep-4 0x1.ef5f9d895a168p-3
        0x1.10fff00000000p-1 0x1.31ca700000000p-1 0x1.68dbd00000000p-1 0x1.9f87f00000000p-1
    """,
    "sec46": """
        0x1.2bffa8165f124p-4 0x1.dd4cf0b6d3e6cp-3 0x1.f1e5c733500b0p-3 0x1.e6a2bcf788348p-3
        0x1.184809ed4bcdfp-3 0x1.70a3d70a3d70ap-6 0x1.f41515237cfc2p-1
        0x1.224a72d6e57bbp-2 0x1.609da44bf4a17p-2 0x1.c9974faccbaa9p-2 0x1.0f3a4f8ded00bp-1
        0x1.4f7e771b7f076p-1 0x1.7dc35a0133710p-1 0x1.bbca47eecbfd8p-1 0x1.4ab21ccf74438p+0
        0x1.dd39f05956615p+1
        0x1.ddb16b9f17cc9p-1 0x1.26f5733e3c917p-13 0x1.7b5286847ce02p-10 0x1.c585c17607464p-8
        0x1.5cf14c2a2111cp-6 0x1.95f0afa6dbbe4p-5 0x1.86b2611b0e0cap-4 0x1.f4a8cab7c8598p-3
        0x1.0f19100000000p-1 0x1.2fe5300000000p-1 0x1.6705f00000000p-1 0x1.9dced00000000p-1
    """,
    "sol_jup": """
        0x1.0e5604189374cp-5 0x1.9bb302ce25d08p-3 0x1.a403f6353ffc0p-3 0x1.9faa54c25fbd4p-3
        0x1.911827ada77bep-4 0x1.bc635060822c9p-7 0x1.faa1812cc23ebp-1
        0x1.bf4ad88abf984p-3 0x1.1076a379ee039p-2 0x1.624dbde013347p-2 0x1.a43055d8f884dp-2
        0x1.03d559ba26aa6p-1 0x1.27961524a2c83p-1 0x1.578701eaf1837p-1 0x1.00b02648321c2p+0
        0x1.8a490e829bc5bp+2
        0x1.bd5785dc50aa9p-1 0x1.7a2e61ed87ac4p-15 0x1.5571b21eb803cp-11 0x1.fcf4d55faf478p-9
        0x1.c838b2ec0a4d9p-7 0x1.28479d177239ep-5 0x1.3567f003d1e05p-4 0x1.b9f8a4423adbep-3
        0x1.245a700000000p-1 0x1.4503500000000p-1 0x1.7b60b00000000p-1 0x1.b0da300000000p-1
    """,
    "sol_ray": """
        0x1.8e8a71de69ad8p-5 0x1.c4b184fed0accp-3 0x1.d3960dc693a90p-3 0x1.cbb0515cbebf0p-3
        0x1.b3f1f9c329776p-4 0x1.0697c6c4aa031p-6 0x1.f7342400f084ap-1
        0x1.cf9f70cc398eep-3 0x1.1a1c8f4538108p-2 0x1.6eb6b52aed86cp-2 0x1.b30cd187433dfp-2
        0x1.0d480ec91060ap-1 0x1.3296f97294933p-1 0x1.64b9da89ae6bdp-1 0x1.0b6ad154f454bp+0
        0x1.13ae7d1e9f5eap+2
        0x1.d3932c54fcce8p-1 0x1.8bde98aac3e11p-14 0x1.1ea5b5dbabf8ep-10 0x1.7238b075c527fp-8
        0x1.2c80ce55379aap-6 0x1.6b594d3db43c2p-5 0x1.67dc102c922acp-4 0x1.df1247c6e050ap-3
        0x1.16e0f00000000p-1 0x1.37a4b00000000p-1 0x1.6e83b00000000p-1 0x1.a4d5900000000p-1
    """,
    "table5": """
        0x1.2bffa8165f124p-4 0x1.d646836d79760p-3 0x1.ea47fab528538p-3 0x1.df58640bc9d88p-3
        0x1.146ff6014a68ap-3 0x1.6b971337b0530p-6 0x1.f43f70a380f05p-1
        0x1.2070a67534355p-2 0x1.5e581b320b20dp-2 0x1.c6988320c905ep-2 0x1.0d6e89bfe6b30p-1
        0x1.4d3d0dd625cbap-1 0x1.7b2c329717a01p-1 0x1.b8bf730b5d6a5p-1 0x1.486454c3c539dp+0
        0x1.de450761fe85bp+1
        0x1.ddad236c1b5d7p-1 0x1.0c093d16aa231p-13 0x1.62a7a21303a36p-10 0x1.aff36d3a6b6b7p-8
        0x1.50a2f36466b08p-6 0x1.8b44928103d72p-5 0x1.7f0c24a865a8ep-4 0x1.ef5f9d895a168p-3
        0x1.10fff00000000p-1 0x1.31ca700000000p-1 0x1.68dbd00000000p-1 0x1.9f87f00000000p-1
    """,
}


def _outputs(name):
    s = get_preset(name)
    m, r, p = s.market, s.rates, s.position
    t = p.horizon_years
    mom = an.variance_components(m, t)
    d = an.pnl_decomposition(m, r, p)
    out = [("phi", mom.phi), ("v_gg", mom.v_gg), ("v_aa", mom.v_aa), ("v_ga", mom.v_ga),
           ("mu0", d.mu0), ("c", d.c), ("h_star", an.h_star(m, r, p))]
    out += [("sharpe(%g)" % h, an.sharpe(h, m, r, p)) for h in TABLE4_GRID]
    out += [("sigma_tilde", fpt.sigma_tilde(m, t))]
    out += [("P_liq(%g)" % h, fpt.liquidation_probability(h, m, p)) for h in TABLE5_GRID]
    out += [("h_bar(%g)" % a, fpt.h_bar(a, m, p)) for a in ALPHAS]
    return out


def test_every_preset_is_pinned():
    assert sorted(PINNED) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_closed_form_bits(name):
    got = _outputs(name)
    want = PINNED[name].split()
    assert len(got) == len(want)
    wrong = [(label, x.hex(), w) for (label, x), w in zip(got, want) if x.hex() != w]
    assert not wrong, wrong
