"""edgesim: deterministic tick-grid trading simulation with exact
accounting and a machine-verified delayed-execution overlay strategy."""

from .accounting import (FIFO, LIFO, LotMatch, PnLBreakdown, UnmatchedLot,
                         match_lots, pnl_decomposed, pnl_direct,
                         pnl_via_position, position_value,
                         signed_open_position)
from .dominance import (DelayedOrderRecord, DelayQueueEntry, DominanceEngine,
                        DominanceParams, InvariantViolation, PhaseReport,
                        SimulationError, StrandedOrderError, pair_extreme,
                        phase_pnl_diff_check, release_level)
from .harness import (RunConfig, RunReport, RunSettings, SweepRow, TickSeries,
                      default_config, run_simulation, sweep)
from .market import (BUY, SELL, Instrument, Money, Order, OrderLog,
                     fill_price, quanta_to_currency)
from .prices import (HittingTimeSummary, PriceProcessConfig,
                     estimate_hitting_time, next_price, substream, walk_block)
from .runio import (load_config, read_summary, save_config, summary_dict,
                    write_run_artifacts, write_sweep_csv)
from .strategies import (BaselineConfig, BaselineStreams, baseline_on_tick,
                         baseline_streams)
from .verify import Verdict, all_passed, verify_run

__version__ = "0.1.0"
