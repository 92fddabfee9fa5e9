"""Figure 13 and the section 7.2 summary statistics: GBP LA vs LI.

Paper rows (Lilac / RV = ready-valid, per convolution parallelism N)::

    Design (N)      LUTs         Registers    Freq. (MHz)
    Lilac / RV (1)  1824 / 2093  2532 / 3254  258 / 236
    Lilac / RV (2)  1762 / 2062  2464 / 3165  284 / 219
    Lilac / RV (4)  1627 / 1983  2373 / 3129  270 / 306
    Lilac / RV (8)  1227 / 2146  1733 / 3058  223 / 231
    Lilac / RV (16) 1311 / 2099  1688 / 3244  211 / 183

Headline statistics: LI designs achieve 6.8% worse frequency (geomean),
use 26.2% more LUTs and 33.0% more registers.  The LA register count
*decreases* as N grows (less serialization logic), while the LI cost
stays roughly constant.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional

from ..designs.gbp_la import GBP_SOURCE, gbp_registry
from ..designs.gbp_li import build_li_gbp
from ..driver import CompileSession, EvalGrid
from ..synth import SynthReport, format_table, geomean

PARALLELISMS = (1, 2, 4, 8, 16)


class Figure13Row(NamedTuple):
    parallelism: int
    lilac: SynthReport
    rv: SynthReport


def _build_point(
    session: CompileSession, parallelism: int, width: int = 16
) -> Figure13Row:
    lilac = session.synthesize(
        GBP_SOURCE, "GBP", {"#W": width}, gbp_registry(parallelism)
    ).value
    rv = session.synthesize_baseline(build_li_gbp, parallelism, width).value
    return Figure13Row(parallelism, lilac, rv)


def build_rows(
    parallelisms=PARALLELISMS,
    width: int = 16,
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> List[Figure13Row]:
    grid = EvalGrid(session, max_workers=workers, executor=executor)
    # partial over the module-level builder (not a lambda) so the grid's
    # process mode can pickle the worker function.
    return grid.map(
        functools.partial(_build_point, width=width), parallelisms
    )


def render(rows: List[Figure13Row]) -> str:
    body = []
    for row in rows:
        body.append(
            [
                f"Lilac / RV ({row.parallelism})",
                f"{row.lilac.luts} / {row.rv.luts}",
                f"{row.lilac.registers} / {row.rv.registers}",
                f"{row.lilac.fmax_mhz:.0f} / {row.rv.fmax_mhz:.0f}",
            ]
        )
    return format_table(["Design (N)", "LUTs", "Registers", "Freq. (MHz)"], body)


def summary(rows: List[Figure13Row]) -> Dict[str, float]:
    """Geomean overheads in the paper's section 7.2 framing."""
    lut_ratio = geomean([row.rv.luts / row.lilac.luts for row in rows])
    reg_ratio = geomean(
        [row.rv.registers / row.lilac.registers for row in rows]
    )
    freq_ratio = geomean(
        [row.rv.fmax_mhz / row.lilac.fmax_mhz for row in rows]
    )
    return {
        "li_extra_luts_pct": (lut_ratio - 1) * 100,
        "li_extra_registers_pct": (reg_ratio - 1) * 100,
        "li_frequency_loss_pct": (1 - freq_ratio) * 100,
    }


def run(
    session: Optional[CompileSession] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> str:
    rows = build_rows(session=session, workers=workers, executor=executor)
    stats = check_shape(rows)
    lines = [render(rows), "", "section 7.2 headline statistics:"]
    for key, value in stats.items():
        lines.append(f"  {key}: {value:+.1f}%")
    return "\n".join(lines)


def check_shape(rows: List[Figure13Row]) -> Dict[str, float]:
    """The relative claims that must hold in any faithful reproduction."""
    stats = summary(rows)
    assert stats["li_extra_luts_pct"] > 0, "LI should use more LUTs overall"
    assert stats["li_extra_registers_pct"] > 0, (
        "LI should use more registers overall"
    )
    # LA serialization cost falls with parallelism: registers at N=16
    # must undercut N=1 (paper: 1688 vs 2532).
    by_n = {row.parallelism: row for row in rows}
    if 1 in by_n and 16 in by_n:
        assert by_n[16].lilac.registers < by_n[1].lilac.registers, (
            "LA register count should fall as parallelism rises"
        )
        # The paper: Lilac-16 uses ~48% fewer registers than RV-16 while
        # Lilac-1 only ~22% fewer — the gap should widen with N.
        gap_1 = by_n[1].rv.registers / by_n[1].lilac.registers
        gap_16 = by_n[16].rv.registers / by_n[16].lilac.registers
        assert gap_16 > gap_1, "register advantage should grow with N"
    return stats
