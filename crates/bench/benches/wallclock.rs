//! Simulator wall-clock benchmark — how fast the simulator itself runs,
//! not what it simulates.
//!
//! Runs the three reference scenarios (Figure 4 migration, live pre-copy,
//! fleet soak under the proactive policy). For each it records wall
//! seconds, dispatched events and events/sec from the kernel self-profile,
//! and the OS thread and context-switch counts around it, then writes
//! `BENCH_wallclock.json` with a machine block.
//!
//! Gates:
//!
//! 1. **Exact counts** — every scenario dispatches exactly the events,
//!    and makes exactly the timer pushes and stale pops, that the
//!    committed `wallclock_baseline.json` records (events 64,470 /
//!    74,634 / 2,000,108). Counts are hardware-independent: any change
//!    means the event stream or the timer traffic behind it changed. The
//!    fleet soak must also make fewer than [`MAX_PUSHES_PER_EVENT`] timer
//!    pushes per event, and pop fewer than [`MAX_STALE_FRAC`] of its
//!    pushes as stale: FlowNet arms one timer per net, not one per flow.
//! 2. **No OS threads** — simulated processes are coroutines on the
//!    driving thread. The process's `Threads:` count (`/proc/self/status`)
//!    must not grow: it is sampled before each scenario, when the
//!    scenario's simulation is created, and after the scenario. The main
//!    thread's voluntary context switches must stay under one per 1,000
//!    events; a kernel that hands events between OS threads blocks the
//!    driving thread at least once per handoff.
//! 3. **Telemetry zero-cost** — an `instant_with` call site with tracing
//!    disabled (the default) must cost < 1% of a mean event dispatch: the
//!    disabled path is one relaxed atomic load and the argument closure is
//!    never evaluated.
//! 4. **Peak RSS ceiling** — the process's high-water mark (`VmHWM:`)
//!    over all scenarios must stay under [`PEAK_RSS_CEILING_KB`]. The
//!    bench peaks near 55 MB; FTB subscriptions that outlived their
//!    subscribers once took it past 300 MB, and the ceiling sits between.
//! 5. **Absolute regression** (opt-in: `BENCH_WALLCLOCK_ENFORCE_ABS=1`) —
//!    per-scenario events/sec must stay within 10% of the baseline. Only
//!    meaningful on the machine recorded in the baseline's `machine`
//!    block, so CI leaves it off.
//!
//! The baseline also records the fleet soak's speedup over the
//! thread-per-process kernel this one replaced, measured once on the
//! baseline's machine. The bench prints it; it cannot re-measure it, since
//! the old kernel is gone.

use fleetsched::{FleetConfig, PolicyKind};
use jobmig_bench::{fig_migration_observed, fig_migration_tuned_observed, write_bench_json, SEED};
use jobmig_core::prelude::{MigrationTuning, PoolConfig};
use npbsim::NpbApp;
use simkit::{SimHandle, Simulation};
use std::time::Instant;
use telemetry::Json;

/// Gate 4: ceiling on the bench process's peak RSS, in kB.
const PEAK_RSS_CEILING_KB: u64 = 160_000;

/// Gate 1: fleet soak ceilings on timer pushes per event and on the share
/// of pushes popped as stale.
const MAX_PUSHES_PER_EVENT: f64 = 1.5;
const MAX_STALE_FRAC: f64 = 0.10;

struct Scenario {
    name: &'static str,
    wall_secs: f64,
    events: u64,
    timer_pushes: u64,
    stale_pops: u64,
    /// `Threads:` before, at simulation creation, and after.
    threads: [u64; 3],
    /// Voluntary context switches of the main thread over the scenario.
    vol_switches: u64,
}

impl Scenario {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .set("wall_secs", self.wall_secs)
            .set("events", self.events)
            .set("timer_pushes", self.timer_pushes)
            .set("stale_pops", self.stale_pops)
            .set("events_per_sec", self.events_per_sec())
            .set("threads_before", self.threads[0])
            .set("threads_in_sim", self.threads[1])
            .set("threads_after", self.threads[2])
            .set("voluntary_ctxt_switches", self.vol_switches)
    }
}

/// What a scenario's observe hook captures when its simulation is created.
#[derive(Default)]
struct Observed {
    handle: Option<SimHandle>,
    threads: u64,
}

impl Observed {
    fn observe(&mut self, h: &SimHandle) {
        self.handle = Some(h.clone());
        self.threads = proc_status("Threads:");
    }
}

/// Time `run`, which must call [`Observed::observe`] from its observe
/// hook so the kernel self-profile can be read back after the run.
fn measure(name: &'static str, run: impl FnOnce(&mut Observed)) -> Scenario {
    let mut seen = Observed::default();
    let threads_before = proc_status("Threads:");
    let switches_before = proc_status("voluntary_ctxt_switches:");
    let t0 = Instant::now();
    run(&mut seen);
    let wall_secs = t0.elapsed().as_secs_f64();
    let vol_switches = proc_status("voluntary_ctxt_switches:") - switches_before;
    let stats = seen
        .handle
        .expect("observe hook must stash the handle")
        .hot_stats();
    let s = Scenario {
        name,
        wall_secs,
        events: stats.events_dispatched,
        timer_pushes: stats.timer_pushes,
        stale_pops: stats.stale_timers_skipped,
        threads: [threads_before, seen.threads, proc_status("Threads:")],
        vol_switches,
    };
    println!(
        "{:<10} {:>8.2}s {:>10} events {:>10} pushes {:>9} stale {:>9.0} ev/s  \
         threads {:?}  vol. switches {}",
        s.name,
        s.wall_secs,
        s.events,
        s.timer_pushes,
        s.stale_pops,
        s.events_per_sec(),
        s.threads,
        s.vol_switches
    );
    s
}

/// Run a measurement twice and keep the faster sample.
fn min_wall(mut run: impl FnMut() -> Scenario) -> Scenario {
    let a = run();
    let b = run();
    if a.wall_secs <= b.wall_secs {
        a
    } else {
        b
    }
}

/// The number after `key` in `/proc/self/status` (`VmHWM:` in kB,
/// `Threads:`, `voluntary_ctxt_switches:`); 0 where procfs is unavailable.
fn proc_status(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Where this run happened: core count, compiler and CPU model.
fn machine() -> Json {
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    Json::obj()
        .set("nproc", nproc as u64)
        .set("rustc", rustc)
        .set("cpu_model", cpu)
}

/// Pull the number following `"key":` from `doc`, searching from the
/// first occurrence of `anchor` (pass `""` to search the whole doc).
/// Enough of a JSON reader for the baseline file we write ourselves.
fn num_after(doc: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = if anchor.is_empty() {
        0
    } else {
        doc.find(anchor)?
    };
    let tail = &doc[start..];
    let pos = tail.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = tail[pos..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load_baseline() -> Option<String> {
    // cargo bench runs with the package root as cwd; accept the
    // workspace root too for by-hand runs of the binary.
    [
        "wallclock_baseline.json",
        "crates/bench/wallclock_baseline.json",
    ]
    .iter()
    .find_map(|p| std::fs::read_to_string(p).ok())
}

/// Cost of a trace call site when tracing is disabled, in ns/call. The
/// calls run inside a simulation process so the measurement exercises
/// the real `Ctx::instant_with` path, argument closure included.
fn disabled_trace_ns_per_call() -> f64 {
    const CALLS: u64 = 4_000_000;
    let mut sim = Simulation::new(SEED);
    sim.spawn("telemetry", |ctx| {
        for i in 0..CALLS {
            ctx.instant_with("bench", "tick", || vec![("i", i.into())]);
        }
    });
    let t0 = Instant::now();
    sim.run().unwrap();
    t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64
}

fn main() {
    println!("Simulator wall-clock bench (fig4 / livemig / fleet soak)");

    let fig4 = measure("fig4", |seen| {
        fig_migration_observed(NpbApp::Lu, 64, 8, PoolConfig::default(), |h| {
            seen.observe(h)
        });
    });

    let livemig = measure("livemig", |seen| {
        fig_migration_tuned_observed(NpbApp::Lu, 64, 8, MigrationTuning::live(), |h| {
            seen.observe(h)
        });
    });

    let cfg = FleetConfig::soak(SEED);
    let plan = cfg.doom_plan();

    // The soak runs twice and keeps the faster wall clock: on a loaded
    // machine noise only ever adds time, so min-of-N is the closest
    // observable to the true cost.
    let fleet = min_wall(|| {
        measure("fleet", |seen| {
            fleetsched::run_policy_observed(&cfg, PolicyKind::Proactive, &plan, |h| {
                seen.observe(h)
            });
        })
    });

    let per_event_ns = fleet.wall_secs * 1e9 / fleet.events.max(1) as f64;
    let disabled_ns = disabled_trace_ns_per_call();
    let overhead_pct = 100.0 * disabled_ns / per_event_ns;
    println!(
        "disabled trace call: {disabled_ns:.1} ns vs {per_event_ns:.0} ns/event \
         ({overhead_pct:.3}% of an event dispatch)"
    );

    let peak_rss_kb = proc_status("VmHWM:");
    let scenarios = [&fig4, &livemig, &fleet];
    let mut doc = Json::obj().set("machine", machine());
    for s in scenarios {
        doc = doc.set(s.name, s.to_json());
    }
    let doc = doc
        .set(
            "telemetry",
            Json::obj()
                .set("disabled_ns_per_call", disabled_ns)
                .set("per_event_ns", per_event_ns)
                .set("overhead_pct", overhead_pct),
        )
        .set("peak_rss_kb", peak_rss_kb);
    let path = write_bench_json("wallclock", &doc, true).expect("always written");
    println!("wrote {}", path.display());

    // Gate 2: no OS thread is created or handed an event.
    for s in scenarios {
        assert!(
            s.threads[1] <= s.threads[0] && s.threads[2] <= s.threads[0],
            "{}: OS thread count grew: before/in-sim/after {:?}",
            s.name,
            s.threads
        );
        assert!(
            s.vol_switches * 1000 < s.events,
            "{}: {} voluntary context switches over {} events",
            s.name,
            s.vol_switches,
            s.events
        );
    }

    // Gate 3: telemetry zero-cost — a disabled call site is one relaxed
    // atomic load, far under 1% of a mean event dispatch.
    assert!(
        overhead_pct < 1.0,
        "disabled tracing must cost < 1% of an event dispatch, got {overhead_pct:.3}%"
    );

    // Gate 4: memory that outlives its use (an event no one can pop, a
    // queue no one holds) shows up here first.
    println!("peak RSS {peak_rss_kb} kB (ceiling {PEAK_RSS_CEILING_KB} kB)");
    assert!(
        peak_rss_kb < PEAK_RSS_CEILING_KB,
        "peak RSS {peak_rss_kb} kB is over the {PEAK_RSS_CEILING_KB} kB ceiling"
    );

    // Gates 1 and 5: against the committed baseline.
    let base = load_baseline().expect("crates/bench/wallclock_baseline.json must be committed");
    for s in scenarios {
        for (key, got) in [
            ("events", s.events),
            ("timer_pushes", s.timer_pushes),
            ("stale_pops", s.stale_pops),
        ] {
            let want = num_after(&base, &format!("\"{}\"", s.name), key)
                .unwrap_or_else(|| panic!("baseline must record per-scenario {key}"));
            assert_eq!(
                got, want as u64,
                "{}: {key} moved from the committed baseline",
                s.name
            );
        }
    }
    let pushes_per_event = fleet.timer_pushes as f64 / fleet.events.max(1) as f64;
    let stale_frac = fleet.stale_pops as f64 / fleet.timer_pushes.max(1) as f64;
    assert!(
        pushes_per_event < MAX_PUSHES_PER_EVENT,
        "fleet: {pushes_per_event:.3} timer pushes per event (ceiling {MAX_PUSHES_PER_EVENT})"
    );
    assert!(
        stale_frac < MAX_STALE_FRAC,
        "fleet: {:.1}% of timer pushes popped stale (ceiling {:.0}%)",
        100.0 * stale_frac,
        100.0 * MAX_STALE_FRAC
    );
    println!(
        "count gates ok: events, timer pushes and stale pops match the baseline exactly; \
         fleet {pushes_per_event:.3} pushes/event, {:.1}% stale",
        100.0 * stale_frac
    );
    if let Some(x) = num_after(&base, "", "fleet_speedup_vs_thread_kernel") {
        println!("recorded fleet speedup over the thread-per-process kernel: {x:.2}x");
    }
    if std::env::var_os("BENCH_WALLCLOCK_ENFORCE_ABS").is_some() {
        for s in scenarios {
            let b = num_after(&base, &format!("\"{}\"", s.name), "events_per_sec")
                .expect("baseline must record per-scenario events_per_sec");
            let got = s.events_per_sec();
            assert!(
                got >= b * 0.9,
                "{}: events/sec regressed > 10%: {got:.0} vs baseline {b:.0}",
                s.name
            );
        }
        println!("absolute events/sec gate ok (-10% tolerance)");
    }
    println!("wallclock gates passed");
}
