//! The single-simulation workloads, suite-steady and gen-thrash: one cell
//! is one program under one configuration, set up (assemble,
//! `Simulator::new`, warm-up window) and then measured over a window.

use crate::checks;
use crate::round::{Counts, ProgramTime, Round, Sizes};
use crate::trace::Tracer;
use std::time::Instant;
use tracefill_core::OptConfig;
use tracefill_isa::Program;
use tracefill_policy::{ControllerConfig, ControllerMode, ReplacementKind};
use tracefill_sim::{CpiStack, RunExit, SimConfig, Simulator};
use tracefill_workloads::gen::{generate, PatternMix};

/// Where a cell's program comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A suite kernel at a scale.
    Kernel(&'static str, u32),
    /// A `workloads::gen` pattern-mix program.
    Gen {
        /// Pattern blocks.
        blocks: usize,
        /// Loop iterations.
        scale: u32,
        /// Generator seed.
        seed: u64,
    },
}

impl Source {
    /// Assembles the program.
    pub fn build(&self) -> Result<Program, String> {
        match *self {
            Source::Kernel(name, scale) => tracefill_workloads::by_name(name)
                .ok_or_else(|| format!("unknown kernel {name}"))?
                .program(scale)
                .map_err(|e| format!("{name}: {e}")),
            Source::Gen {
                blocks,
                scale,
                seed,
            } => generate(&PatternMix::default(), blocks, scale, seed)
                .map_err(|e| format!("gen:{blocks} seed {seed}: {e}")),
        }
    }

    /// A suite kernel at a scale that runs `instrs` instructions with room
    /// to spare.
    pub fn kernel(b: &tracefill_workloads::Benchmark, instrs: u64) -> Source {
        Source::Kernel(b.name, b.scale_for(instrs * 2))
    }

    /// The same program at the smallest scale whose run to exit retires
    /// at least `instrs` instructions, counted with the interpreter, and
    /// the count it retires.
    pub fn sized(&self, instrs: u64) -> Result<(Source, u64), String> {
        let at = |scale: u32| -> Result<(Source, u64), String> {
            let mut s = self.clone();
            match &mut s {
                Source::Kernel(_, x) | Source::Gen { scale: x, .. } => *x = scale,
            }
            let n = dynamic_count(&s.build()?, instrs * 64)?;
            Ok((s, n))
        };
        let (_, one) = at(1)?;
        let (_, two) = at(2)?;
        let per = two.saturating_sub(one).max(1);
        let mut scale = u32::try_from(instrs.saturating_sub(one).div_ceil(per) + 1)
            .map_err(|_| "scale overflows u32".to_string())?;
        loop {
            let (s, n) = at(scale)?;
            if n >= instrs {
                return Ok((s, n));
            }
            scale += 1;
        }
    }

    /// The program's name in `sim.us_per_cycle.<name>`.
    pub fn program_name(&self) -> &'static str {
        match self {
            Source::Kernel(name, _) => name,
            Source::Gen { .. } => "gen",
        }
    }
}

/// Instructions the program retires up to and including its exit.
fn dynamic_count(prog: &Program, limit: u64) -> Result<u64, String> {
    let mut it = tracefill_isa::interp::Interp::new(prog);
    it.run(limit).map_err(|e| format!("interpreter: {e}"))?;
    Ok(it.icount())
}

/// One program under one configuration.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Names the cell in failure messages.
    pub label: String,
    /// The program.
    pub source: Source,
    /// The machine (the defaults users run, plus the cell's own axis).
    pub cfg: SimConfig,
    /// Warm-up instructions (set-up).
    pub warm: u64,
    /// Fewest instructions the measured window, which runs from the end
    /// of the warm-up to the program's exit, retires.
    pub window: u64,
}

impl CellSpec {
    /// A cell whose program exits `window` instructions (plus at most one
    /// retire cycle) after a warm-up of at least `warm` instructions. The
    /// warm-up absorbs the program's length quantum, so the measured
    /// window is the same length whatever the seed or kernel.
    fn new(
        label: String,
        source: &Source,
        cfg: SimConfig,
        warm: u64,
        window: u64,
    ) -> Result<CellSpec, String> {
        let (source, total) = source.sized(warm + window + cfg.fetch_width as u64)?;
        Ok(CellSpec {
            label,
            source,
            warm: total - window - cfg.fetch_width as u64,
            cfg,
            window,
        })
    }
}

/// The machine users run: defaults (lockstep oracle and strict fill
/// verify on) with every fill-unit pass.
fn all_passes() -> SimConfig {
    SimConfig::with_opts(OptConfig::all())
}

/// suite-steady: the 15 kernels with all passes and LRU. The seed only
/// rotates the order the kernels run in.
pub fn suite_cells(seed: u64, sizes: &Sizes) -> Result<Vec<CellSpec>, String> {
    let mut kernels = tracefill_workloads::suite();
    let n = kernels.len();
    kernels.rotate_left((seed % n as u64) as usize);
    let (warm, window) = (sizes.suite_warm, sizes.suite_window);
    kernels
        .iter()
        .map(|b| {
            let source = Source::kernel(b, warm + window);
            CellSpec::new(b.name.to_string(), &source, all_passes(), warm, window)
        })
        .collect()
}

/// The gen-thrash program for a seed, sized to run `instrs` instructions
/// with room to spare.
pub fn gen_source(seed: u64, blocks: usize, instrs: u64) -> Source {
    // ~4 dynamic instructions per block plus the loop overhead.
    let per_iter = blocks as u64 * 4 + 4;
    Source::Gen {
        blocks,
        scale: u32::try_from(instrs * 2 / per_iter + 2).expect("gen scale fits u32"),
        seed,
    }
}

/// The generator seed of gen-thrash program `i` in the run seeded `seed`:
/// each run draws programs of its own.
pub fn gen_program_seed(seed: u64, i: usize, sizes: &Sizes) -> u64 {
    seed * sizes.gen_programs as u64 + i as u64
}

/// gen-thrash: `sizes.gen_programs` generated programs, each under one of
/// lru, srrip, trrip and the `ucb` pass controller in turn. A round
/// averages over several programs because the host cost per instruction
/// differs from one program to the next: with one program per run, ten
/// seeds gave `sim_kips` a quartile spread of 0.15.
pub fn gen_cells(seed: u64, sizes: &Sizes) -> Result<Vec<CellSpec>, String> {
    let (warm, window) = (sizes.gen_warm, sizes.gen_window);
    (0..sizes.gen_programs)
        .map(|i| {
            let pseed = gen_program_seed(seed, i, sizes);
            let mut cfg = all_passes();
            let label = match [
                Some(ReplacementKind::Lru),
                Some(ReplacementKind::Srrip),
                Some(ReplacementKind::Trrip),
                None,
            ][i % 4]
            {
                Some(policy) => {
                    cfg.tcache.policy = policy;
                    policy.name()
                }
                None => {
                    // The epoch length the campaign grid, the CLI and
                    // `adapt` use.
                    cfg.fill.controller = ControllerConfig {
                        mode: ControllerMode::parse("ucb").expect("builtin controller spec"),
                        epoch_fills: tracefill_harness::CampaignSpec::fig8().epoch_fills,
                        seed: pseed,
                    };
                    "ucb"
                }
            };
            CellSpec::new(
                format!("gen:{}#{pseed}/{label}", sizes.gen_blocks),
                &gen_source(pseed, sizes.gen_blocks, warm + window),
                cfg,
                warm,
                window,
            )
        })
        .collect()
}

/// The window's simulated counts and Table 2 numerators.
#[derive(Debug, Clone, Default)]
pub struct CellCounts {
    /// Simulated counts of the window.
    pub counts: Counts,
    /// Retired register moves, reassociated and scaled-add instructions.
    pub moves_reassoc_scadd: [u64; 3],
}

#[derive(Clone, Copy)]
struct Snap {
    stats: tracefill_sim::Stats,
    cpi: CpiStack,
    tc: tracefill_core::tcache::TraceCacheStats,
    fill_segments: u64,
    caches: (
        tracefill_uarch::cache::CacheStats,
        tracefill_uarch::cache::CacheStats,
    ),
}

impl Snap {
    fn of(sim: &Simulator) -> Snap {
        let caches = sim.report().caches;
        Snap {
            stats: sim.stats(),
            cpi: sim.cpi(),
            tc: sim.tcache_stats(),
            fill_segments: sim.fill_stats().segments,
            caches: (caches.0, caches.1),
        }
    }

    fn since(&self, b: &Snap) -> CellCounts {
        let (s, t) = (&self.stats, &b.stats);
        CellCounts {
            counts: Counts {
                cycles: s.cycles - t.cycles,
                retired: s.retired - t.retired,
                from_tc: s.retired_from_tc - t.retired_from_tc,
                squashed: s.squashed_uops - t.squashed_uops,
                transformed: (s.retired_moves + s.retired_reassoc + s.retired_scadd)
                    - (t.retired_moves + t.retired_reassoc + t.retired_scadd),
                branches: s.branches - t.branches,
                mispredicts: s.branch_mispredicts - t.branch_mispredicts,
                tc_hits: self.tc.hits - b.tc.hits,
                tc_misses: self.tc.misses - b.tc.misses,
                tc_evictions: self.tc.evictions - b.tc.evictions,
                fill_segments: self.fill_segments - b.fill_segments,
                l1i: (
                    self.caches.0.hits - b.caches.0.hits,
                    self.caches.0.misses - b.caches.0.misses,
                ),
                l1d: (
                    self.caches.1.hits - b.caches.1.hits,
                    self.caches.1.misses - b.caches.1.misses,
                ),
                cpi: self.cpi.delta_since(&b.cpi),
            },
            moves_reassoc_scadd: [
                s.retired_moves - t.retired_moves,
                s.retired_reassoc - t.retired_reassoc,
                s.retired_scadd - t.retired_scadd,
            ],
        }
    }
}

/// What one cell measured.
#[derive(Debug, Clone, Default)]
pub struct CellOutcome {
    /// Assemble + `Simulator::new` + warm-up, in host seconds.
    pub setup_s: f64,
    /// The measured window, in host seconds.
    pub window_s: f64,
    /// Simulated counts of the window.
    pub counts: CellCounts,
    /// The simulator returned an error.
    pub error: Option<String>,
    /// Output checks that failed.
    pub mismatches: Vec<String>,
}

/// Sets up, measures and checks one cell.
pub fn run_cell(spec: &CellSpec, tr: &mut Tracer) -> CellOutcome {
    let mut out = CellOutcome::default();
    let t0 = Instant::now();
    let prog = match tr.span("isa.asm", |_| spec.source.build()) {
        Ok(p) => p,
        Err(e) => {
            out.error = Some(e);
            return out;
        }
    };
    let mut sim = tr.span("sim.new", |_| Simulator::new(&prog, spec.cfg.clone()));
    let warm = tr.span("sim.warmup", |_| sim.run_instrs(spec.warm));
    out.setup_s = t0.elapsed().as_secs_f64();
    if let Err(e) = warm {
        out.error = Some(format!("{}: warm-up: {e}", spec.label));
        return out;
    }
    let before = Snap::of(&sim);
    let t1 = Instant::now();
    // The window runs to the program's exit, where the committed state
    // can be compared with the interpreter's; the cycle cap only guards
    // against a machine that stops retiring.
    let cap = (spec.window + spec.warm) * 64;
    let window = tr.span("sim.window", |_| sim.run(cap));
    out.window_s = t1.elapsed().as_secs_f64();
    match window {
        Ok(RunExit::Exited(_) | RunExit::Break) => {}
        Ok(other) => {
            out.error = Some(format!(
                "{}: window ended {other:?}, not at exit",
                spec.label
            ));
            return out;
        }
        Err(e) => {
            out.error = Some(format!("{}: window: {e}", spec.label));
            return out;
        }
    }
    out.counts = Snap::of(&sim).since(&before);
    out.mismatches = tr
        .span("check", |tr| {
            checks::check_cell(&prog, &sim, spec, &out.counts.counts, tr)
        })
        .into_iter()
        .map(|m| format!("{}: {m}", spec.label))
        .collect();
    out
}

/// Runs every cell once: one round of suite-steady or gen-thrash.
pub fn run_round(cells: &[CellSpec], tr: &mut Tracer) -> Round {
    let t0 = Instant::now();
    let mut r = Round::default();
    let mut busy_s = 0.0;
    let mut table2_rows = Vec::new();
    for spec in cells {
        let o = tr.span("cell", |tr| run_cell(spec, tr));
        r.attempted += 1;
        r.setup_s += o.setup_s;
        r.wall_s += o.window_s;
        busy_s += o.setup_s + o.window_s;
        if o.error.is_some() || !o.mismatches.is_empty() {
            r.failed += 1;
        }
        if let Some(e) = o.error {
            // A simulator error (an oracle divergence, a warm-up error, a
            // window that stops short of the exit) is a failed output check.
            r.mismatches.push(e);
            continue;
        }
        r.mismatches.extend(o.mismatches);
        let c = &o.counts.counts;
        r.cell_s.push(o.window_s);
        r.retired += c.retired;
        r.cycles += c.cycles;
        r.counts.add(c);
        r.programs.push(ProgramTime {
            program: spec.source.program_name().to_string(),
            secs: o.window_s,
            cycles: c.cycles,
        });
        if let Source::Kernel(name, _) = spec.source {
            table2_rows.push((name, o.counts.moves_reassoc_scadd, c.retired));
        }
    }
    r.window_retired = r.retired;
    r.window_cycles = r.cycles;
    r.cells_wall_s = r.wall_s;
    r.busy_pct = 100.0 * busy_s / t0.elapsed().as_secs_f64();
    if !table2_rows.is_empty() {
        r.reference
            .push(("table2_mae_pp", table2_mae_pp(&table2_rows)));
    }
    r
}

/// Mean absolute error, in percentage points, of the transformed
/// instruction shares (moves, reassoc, scadd, total) against each
/// kernel's Table 2 row.
pub fn table2_mae_pp(rows: &[(&str, [u64; 3], u64)]) -> f64 {
    let mut err = 0.0;
    let mut n = 0;
    for (name, [m, ra, sc], retired) in rows {
        let Some(b) = tracefill_workloads::by_name(name) else {
            continue;
        };
        let pct = |x: u64| 100.0 * x as f64 / (*retired).max(1) as f64;
        let ours = [pct(*m), pct(*ra), pct(*sc), pct(m + ra + sc)];
        let paper = [
            b.table2.moves,
            b.table2.reassoc,
            b.table2.scadd,
            b.table2.total,
        ];
        for (o, p) in ours.iter().zip(paper) {
            err += (o - p).abs();
            n += 1;
        }
    }
    err / f64::from(n.max(1))
}
