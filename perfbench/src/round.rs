//! One round of a workload, the simulated counts it yields, and the
//! end-to-end metrics computed from a run's rounds.

use tracefill_sim::CpiStack;
use tracefill_util::fnv1a64;

/// Instruction counts and repetition settings of every workload.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// suite-steady: warm-up instructions per kernel (set-up).
    pub suite_warm: u64,
    /// suite-steady: measured-window instructions per kernel.
    pub suite_window: u64,
    /// gen-thrash: generated programs per round, one cell each.
    pub gen_programs: usize,
    /// gen-thrash: pattern blocks per generated program.
    pub gen_blocks: usize,
    /// gen-thrash: warm-up instructions per cell (set-up).
    pub gen_warm: u64,
    /// gen-thrash: measured-window instructions per cell.
    pub gen_window: u64,
    /// campaign-fig8: warm-up instructions per grid cell.
    pub camp_warm: u64,
    /// campaign-fig8: measured-window instructions per grid cell.
    pub camp_window: u64,
    /// Retired instructions captured per program for the layer replays.
    pub replay_instrs: usize,
    /// Repetitions of each layer replay (the median is reported).
    pub replay_reps: usize,
    /// Rounds a run makes even when `--seconds` has already passed.
    pub min_rounds: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Sizes {
        Sizes {
            suite_warm: 30_000,
            suite_window: 30_000,
            gen_programs: 8,
            gen_blocks: 2_000,
            gen_warm: 12_000,
            gen_window: 12_000,
            camp_warm: 10_000,
            camp_window: 10_000,
            replay_instrs: 20_000,
            replay_reps: 5,
            min_rounds: 3,
        }
    }

    /// Tiny windows with every check on, for the benchmark's own tests.
    pub fn quick() -> Sizes {
        Sizes {
            suite_warm: 1_000,
            suite_window: 1_000,
            gen_programs: 4,
            gen_blocks: 2_000,
            gen_warm: 500,
            gen_window: 1_000,
            camp_warm: 300,
            camp_window: 300,
            replay_instrs: 1_000,
            replay_reps: 1,
            min_rounds: 2,
        }
    }
}

/// Simulated counts of the measured windows of one round. Deterministic:
/// a change to host speed must leave every field identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub cycles: u64,
    pub retired: u64,
    pub from_tc: u64,
    pub squashed: u64,
    pub transformed: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub tc_hits: u64,
    pub tc_misses: u64,
    pub tc_evictions: u64,
    pub fill_segments: u64,
    pub l1i: (u64, u64),
    pub l1d: (u64, u64),
    pub cpi: CpiStack,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.retired += o.retired;
        self.from_tc += o.from_tc;
        self.squashed += o.squashed;
        self.transformed += o.transformed;
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.tc_hits += o.tc_hits;
        self.tc_misses += o.tc_misses;
        self.tc_evictions += o.tc_evictions;
        self.fill_segments += o.fill_segments;
        self.l1i.0 += o.l1i.0;
        self.l1i.1 += o.l1i.1;
        self.l1d.0 += o.l1d.0;
        self.l1d.1 += o.l1d.1;
        if self.cpi.width == 0 {
            self.cpi = o.cpi;
        } else {
            self.cpi.merge(&o.cpi);
        }
    }

    /// A fingerprint of every field, compared across rounds and runs.
    pub fn digest(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }

    /// The per-layer simulated-count metrics.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let pct = |a: u64, b: u64| 100.0 * a as f64 / b.max(1) as f64;
        let per_k = |a: u64| 1000.0 * a as f64 / self.retired.max(1) as f64;
        let mut m = vec![
            ("sim.cycles".to_string(), self.cycles as f64, "cycles"),
            ("sim.retired".to_string(), self.retired as f64, "instr"),
            (
                "sim.from_tc_pct".to_string(),
                pct(self.from_tc, self.retired),
                "%",
            ),
            (
                "sim.squashed_per_kinstr".to_string(),
                per_k(self.squashed),
                "1/kinstr",
            ),
        ];
        let c = &self.cpi;
        for (name, slots) in [
            ("base", c.base),
            ("icache_miss", c.icache_miss),
            ("tc_miss", c.tc_miss),
            ("fetch_redirect", c.fetch_redirect),
            ("window_full", c.window_full),
            ("fu_contention", c.fu_contention),
            ("bypass_delay", c.bypass_delay),
            ("branch_recovery", c.branch_recovery),
            ("serialize", c.serialize),
        ] {
            m.push((format!("sim.cpi.{name}"), c.cpi_of(slots), "cycles/instr"));
        }
        m.extend([
            (
                "core.tcache.hit_pct".to_string(),
                pct(self.tc_hits, self.tc_hits + self.tc_misses),
                "%",
            ),
            (
                "core.tcache.evictions_per_kinstr".to_string(),
                per_k(self.tc_evictions),
                "1/kinstr",
            ),
            (
                "core.fill.segments_per_kinstr".to_string(),
                per_k(self.fill_segments),
                "1/kinstr",
            ),
            (
                "core.fill.transformed_pct".to_string(),
                pct(self.transformed, self.retired),
                "%",
            ),
            (
                "uarch.branch_mispredict_pct".to_string(),
                pct(self.mispredicts, self.branches),
                "%",
            ),
            (
                "uarch.l1i.miss_pct".to_string(),
                pct(self.l1i.1, self.l1i.0 + self.l1i.1),
                "%",
            ),
            (
                "uarch.l1d.miss_pct".to_string(),
                pct(self.l1d.1, self.l1d.0 + self.l1d.1),
                "%",
            ),
        ]);
        m
    }
}

/// Host time spent simulating one program, for `sim.us_per_cycle.<name>`.
#[derive(Debug, Clone)]
pub struct ProgramTime {
    /// Kernel name, or `gen`.
    pub program: String,
    /// Host seconds of simulation.
    pub secs: f64,
    /// Simulated cycles in those seconds.
    pub cycles: u64,
}

/// Everything one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Host seconds of set-up (see the README per workload).
    pub setup_s: f64,
    /// Share of the round's host time × workers that simulation kept
    /// busy, in percent (`harness.pool.busy_pct`).
    pub busy_pct: f64,
    /// Host seconds of the phase `cells_per_s` divides by.
    pub cells_wall_s: f64,
    /// Instructions simulated in the measured phase.
    pub retired: u64,
    /// Cycles simulated in the measured phase.
    pub cycles: u64,
    /// Retired and cycles of the measured windows only (for `sim_ipc`).
    pub window_retired: u64,
    /// See [`window_retired`](Self::window_retired).
    pub window_cycles: u64,
    /// Host seconds of each cell.
    pub cell_s: Vec<f64>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed (simulator error or a failed output check).
    pub failed: u64,
    /// Descriptions of failed output checks.
    pub mismatches: Vec<String>,
    /// Simulated counts (per-layer).
    pub counts: Counts,
    /// Per-program simulation host time.
    pub programs: Vec<ProgramTime>,
    /// Model-accuracy figures against the paper (name, value in pp).
    pub reference: Vec<(&'static str, f64)>,
}

/// Median of a slice (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The end-to-end metrics: medians over the run's rounds.
pub fn end_to_end(rounds: &[Round]) -> Vec<(String, f64, &'static str)> {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let cell_s: Vec<f64> = rounds.iter().flat_map(|r| r.cell_s.clone()).collect();
    let r0 = &rounds[0];
    vec![
        ("wall_s".to_string(), med(&|r| r.wall_s), "s"),
        ("setup_s".to_string(), med(&|r| r.setup_s), "s"),
        (
            "sim_kips".to_string(),
            med(&|r| r.retired as f64 / r.wall_s / 1e3),
            "kinstr/s",
        ),
        (
            "sim_kcps".to_string(),
            med(&|r| r.cycles as f64 / r.wall_s / 1e3),
            "kcycles/s",
        ),
        (
            "cells_per_s".to_string(),
            med(&|r| r.attempted as f64 / r.cells_wall_s),
            "cells/s",
        ),
        ("cell_p50_s".to_string(), median(&cell_s), "s"),
        (
            "peak_heap_mib".to_string(),
            crate::host::peak_heap_mib(),
            "MiB",
        ),
        (
            "sim_ipc".to_string(),
            r0.window_retired as f64 / r0.window_cycles.max(1) as f64,
            "IPC",
        ),
    ]
}

/// The highest cell-time percentile with at least ten cells beyond it,
/// over every cell of the run: `(seconds, samples, percentile)`. `None`
/// below forty samples, where that percentile would be no tail.
pub fn cell_tail(rounds: &[Round]) -> Option<(f64, usize, f64)> {
    let mut s: Vec<f64> = rounds.iter().flat_map(|r| r.cell_s.clone()).collect();
    let n = s.len();
    if n < 40 {
        return None;
    }
    s.sort_by(f64::total_cmp);
    Some((s[n - 11], n, 100.0 * (n - 10) as f64 / n as f64))
}
