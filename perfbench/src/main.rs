//! `perfbench` — one run of one benchmark workload, on both clocks.
//!
//! ```text
//! perfbench --workload <migrate|cr_restart|fleet_soak> --seed <n>
//!           --seconds <s> --trace <0|1> [--part own|virtual]
//! ```
//!
//! * `--trace 0 --part own` repeats the workload's operations untraced
//!   for `--seconds` host seconds and prints its end-to-end metrics: host
//!   medians over the passes (`wall_s`, `setup_s`), the first pass's peak
//!   RSS, and the exact virtual-clock results.
//! * `--trace 0 --part virtual` runs the operations once and prints only
//!   their workload-specific virtual-clock results (`run.py` uses it to
//!   fill in the metrics that belong to the other workloads).
//! * `--trace 1` alternates an untraced and a traced pass (tracer plus
//!   kernel wall profile on) for `--seconds` and prints the per-layer
//!   ledger derived from the traced pass.
//!
//! The last line of standard output is one JSON object:
//! `{"attempted": n, "failed": n, "metrics": {"name": value, ...}}`.
//! Check failures go to standard error, one line each.

mod ledger;
mod workloads;

use ledger::{ratio, Metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{SimRun, Trace, STORES, TUNINGS};

/// The default workload seed (the repository's experiment seed).
const DEFAULT_SEED: u64 = 2010;
/// Standalone fleet set-ups measured per run (their median is `setup_s`).
const FLEET_SETUPS: usize = 20;
/// Fewest timed passes per run: a soak outlasts most `--seconds`, and a
/// median of three shrugs off one disturbed pass.
const MIN_PASSES: usize = 3;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    virtual_only: bool,
}

fn parse() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        virtual_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => o.trace = val.parse::<u8>().map_err(|_| bad())? == 1,
            "--part" => {
                o.virtual_only = match val.as_str() {
                    "own" => false,
                    "virtual" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["migrate", "cr_restart", "fleet_soak"].contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    Ok(o)
}

/// Checked operations and the metrics a run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    /// Count one operation; a failed check is reported and counted.
    fn check(&mut self, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = res {
            self.failed += 1;
            eprintln!("check failed: {why}");
        }
    }

    fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        format!(
            "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Repeat `pass` until `seconds` of host time have gone and it has run at
/// least `min` times.
fn repeat<T>(seconds: f64, min: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// One pass over the workload's operations: a migration per engine, a CR
/// cycle per store, or one soak.
enum Pass {
    Migrate(Vec<SimRun<jobmig_core::report::MigrationReport>>),
    Cr(Vec<SimRun<jobmig_core::report::CrReport>>),
    Fleet(Box<SimRun<fleetsched::PolicyStats>>),
}

impl Pass {
    fn run(workload: &str, seed: u64, traced: bool) -> Pass {
        match workload {
            "migrate" => Pass::Migrate(
                TUNINGS
                    .iter()
                    .map(|e| workloads::migrate(seed, e, traced))
                    .collect(),
            ),
            "cr_restart" => Pass::Cr(
                STORES
                    .iter()
                    .map(|s| workloads::cr_restart(seed, s, traced))
                    .collect(),
            ),
            _ => Pass::Fleet(Box::new(workloads::fleet(seed, traced))),
        }
    }

    fn setup(&self) -> Duration {
        match self {
            Pass::Migrate(rs) => rs.iter().map(|r| r.setup).sum(),
            Pass::Cr(rs) => rs.iter().map(|r| r.setup).sum(),
            Pass::Fleet(r) => r.setup,
        }
    }

    fn wall(&self) -> Duration {
        match self {
            Pass::Migrate(rs) => rs.iter().map(|r| r.wall).sum(),
            Pass::Cr(rs) => rs.iter().map(|r| r.wall).sum(),
            Pass::Fleet(r) => r.wall,
        }
    }

    fn hot(&self) -> Vec<&simkit::HotStats> {
        match self {
            Pass::Migrate(rs) => rs.iter().map(|r| &r.hot).collect(),
            Pass::Cr(rs) => rs.iter().map(|r| &r.hot).collect(),
            Pass::Fleet(r) => vec![&r.hot],
        }
    }

    fn traces(&self) -> Vec<&Trace> {
        match self {
            Pass::Migrate(rs) => rs.iter().filter_map(|r| r.trace.as_ref()).collect(),
            Pass::Cr(rs) => rs.iter().filter_map(|r| r.trace.as_ref()).collect(),
            Pass::Fleet(r) => r.trace.iter().collect(),
        }
    }

    /// Check every operation and return the pass's virtual-clock results.
    /// The results of the first pass are the reference: every later pass
    /// of the same seed must reproduce them exactly.
    fn check(&self, rep: &mut Report, reference: &mut Option<String>) -> Metrics {
        let mut virt = Metrics::new();
        let mut moved = 0u64;
        match self {
            Pass::Migrate(rs) => {
                for (engine, run) in TUNINGS.iter().zip(rs) {
                    let Some(r) = &run.out else {
                        rep.check(Err(format!("{engine}: migration never reported")));
                        continue;
                    };
                    rep.check(workloads::check_migration(engine, r));
                    moved += r.bytes_moved;
                    let key = match *engine {
                        "barrier" => "fig4_total_s",
                        "pipelined" => "pipelined_downtime_s",
                        _ => "live_downtime_s",
                    };
                    virt.insert(key.into(), secs(r.downtime()));
                    if *engine == "live" {
                        virt.insert("live_precopy_s".into(), secs(r.precopy));
                    }
                }
            }
            Pass::Cr(rs) => {
                for (store, run) in STORES.iter().zip(rs) {
                    let Some(r) = &run.out else {
                        rep.check(Err(format!("{store}: CR cycle never restarted")));
                        continue;
                    };
                    rep.check(workloads::check_cr(store, r));
                    moved += r.bytes_written;
                    let total = r.total_with_restart().unwrap_or_default();
                    virt.insert(format!("cr_{store}_total_s"), secs(total));
                }
            }
            Pass::Fleet(run) => {
                let s = run.out.as_ref().expect("soak returns stats");
                let (attempted, failed, why) = workloads::check_fleet(s);
                rep.attempted += attempted;
                rep.failed += failed.min(attempted);
                for w in why {
                    eprintln!("check failed: fleet: {w}");
                }
                moved = workloads::fleet_moved_bytes(s);
                virt.insert("work_lost_s".into(), secs(s.work_lost));
                virt.insert("jobs_per_hour".into(), s.throughput_per_hour);
            }
        }
        virt.insert("moved_mb".into(), moved as f64 / 1e6);
        let digest = format!("{virt:?}");
        match reference {
            Some(first) if *first != digest => rep.check(Err(format!(
                "virtual-clock results differ between passes of one seed: {first} vs {digest}"
            ))),
            Some(_) => {}
            None => *reference = Some(digest),
        }
        virt
    }
}

/// `--trace 0`: the end-to-end metrics of the workload's own operations.
fn end_to_end(o: &Opts) -> Report {
    let mut rep = Report::default();
    let mut reference = None;
    if o.virtual_only {
        rep.metrics = Pass::run(&o.workload, o.seed, false).check(&mut rep, &mut reference);
        rep.metrics.remove("moved_mb");
        return rep;
    }
    // The first pass runs in a fresh process; later ones inherit the
    // allocator's retained memory, which moves their peak by up to 30 %.
    let mut first_peak = None;
    let passes = repeat(o.seconds, MIN_PASSES, || {
        let pass = Pass::run(&o.workload, o.seed, false);
        first_peak.get_or_insert_with(peak_rss_mb);
        pass
    });
    for p in &passes {
        let virt = p.check(&mut rep, &mut reference);
        rep.metrics.extend(virt);
    }
    let setups = if o.workload == "fleet_soak" {
        (0..FLEET_SETUPS)
            .map(|_| secs(workloads::fleet_setup(o.seed)))
            .collect()
    } else {
        passes.iter().map(|p| secs(p.setup())).collect()
    };
    rep.set("setup_s", median(setups));
    rep.set(
        "wall_s",
        median(passes.iter().map(|p| secs(p.wall())).collect()),
    );
    rep.set("peak_rss_mb", first_peak.unwrap_or_default());
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", secs(p.wall())))
        .collect();
    eprintln!(
        "{}: {} passes, {} operations, {} failed; pass walls (s): {}",
        o.workload,
        passes.len(),
        rep.attempted,
        rep.failed,
        walls.join(" ")
    );
    rep
}

/// `--trace 1`: the per-layer ledger.
fn per_layer(o: &Opts) -> Report {
    let mut rep = Report::default();
    let mut reference = None;
    let pairs = repeat(o.seconds, 1, || {
        let plain = Pass::run(&o.workload, o.seed, false);
        let traced = Pass::run(&o.workload, o.seed, true);
        (plain, traced)
    });
    for (plain, traced) in &pairs {
        plain.check(&mut rep, &mut reference);
        traced.check(&mut rep, &mut reference);
        cross_check(traced, &mut rep);
    }
    // Exact counts from the first traced pass; host times are medians.
    let (plain, traced) = &pairs[0];
    let m = &mut rep.metrics;
    ledger::kernel_layers(m, &traced.hot(), &traced.traces());
    ledger::trace_layers(m, &traced.traces());
    let prof_ms = |ns: fn(&simkit::HotStats) -> u64| {
        let per_pass = pairs
            .iter()
            .map(|(_, t)| t.hot().into_iter().map(ns).sum::<u64>());
        median(per_pass.map(|n| n as f64 / 1e6).collect())
    };
    m.insert("simkit.sched_ms".into(), prof_ms(|h| h.sched_ns));
    m.insert("simkit.run_ms".into(), prof_ms(|h| h.run_ns));
    m.insert("simkit.spawn_ms".into(), prof_ms(|h| h.spawn_ns));
    let plain_wall = median(pairs.iter().map(|(p, _)| secs(p.wall())).collect());
    let traced_wall = median(pairs.iter().map(|(_, t)| secs(t.wall())).collect());
    m.insert(
        "telemetry.trace_overhead".into(),
        ratio(traced_wall, plain_wall),
    );
    let events = plain.hot().iter().map(|h| h.events_dispatched).sum::<u64>() as f64;
    m.insert(
        "simkit.host_us_per_event".into(),
        ratio(plain_wall * 1e6, events),
    );
    let t0 = Instant::now();
    for t in traced.traces() {
        std::hint::black_box(telemetry::Timeline::from_events(&t.events));
    }
    m.insert("telemetry.timeline_ms".into(), secs(t0.elapsed()) * 1e3);
    workload_layers(traced, m);
    rep
}

/// Per-layer metrics only one workload produces; the others report 0.
fn workload_layers(traced: &Pass, m: &mut Metrics) {
    let zero = |m: &mut Metrics, keys: &[String]| {
        for k in keys {
            m.insert(k.clone(), 0.0);
        }
    };
    let mig_keys: Vec<String> = TUNINGS
        .iter()
        .flat_map(|e| {
            ["stall", "migrate", "restart", "resume"]
                .iter()
                .map(move |p| format!("core.{e}.{p}_s"))
        })
        .chain(["livemig.rounds", "livemig.round0_mb", "livemig.residual_mb"].map(String::from))
        .collect();
    let cr_keys: Vec<String> = STORES
        .iter()
        .flat_map(|s| {
            ["stall", "checkpoint", "resume", "restart"]
                .iter()
                .map(move |p| format!("core.cr.{s}.{p}_s"))
        })
        .collect();
    let fleet_keys: Vec<String> = [
        "fleetsched.migrations",
        "fleetsched.live_migrations",
        "fleetsched.crashes",
        "fleetsched.checkpoints",
        "fleetsched.scratch_restarts",
        "fleetsched.spare_denials",
        "healthmon.alerts",
    ]
    .map(String::from)
    .to_vec();
    zero(m, &mig_keys);
    zero(m, &cr_keys);
    zero(m, &fleet_keys);
    match traced {
        Pass::Migrate(rs) => {
            for (engine, run) in TUNINGS.iter().zip(rs) {
                let Some(r) = &run.out else { continue };
                for (p, d) in [
                    ("stall", r.stall),
                    ("migrate", r.migrate),
                    ("restart", r.restart),
                    ("resume", r.resume),
                ] {
                    m.insert(format!("core.{engine}.{p}_s"), secs(d));
                }
                if *engine == "live" {
                    let rounds = round_bytes(run.trace.as_ref());
                    let sum: u64 = rounds.iter().sum();
                    m.insert("livemig.rounds".into(), rounds.len() as f64);
                    m.insert(
                        "livemig.round0_mb".into(),
                        rounds.first().copied().unwrap_or(0) as f64 / 1e6,
                    );
                    m.insert(
                        "livemig.residual_mb".into(),
                        r.bytes_moved.saturating_sub(sum) as f64 / 1e6,
                    );
                }
            }
        }
        Pass::Cr(rs) => {
            for (store, run) in STORES.iter().zip(rs) {
                let Some(r) = &run.out else { continue };
                for (p, d) in [
                    ("stall", r.stall),
                    ("checkpoint", r.checkpoint),
                    ("resume", r.resume),
                    ("restart", r.restart.unwrap_or_default()),
                ] {
                    m.insert(format!("core.cr.{store}.{p}_s"), secs(d));
                }
            }
        }
        Pass::Fleet(run) => {
            let s = run.out.as_ref().expect("soak returns stats");
            for (k, v) in [
                ("fleetsched.migrations", s.outcomes.total()),
                ("fleetsched.live_migrations", s.live_migrations),
                ("fleetsched.crashes", s.crashes),
                ("fleetsched.checkpoints", s.checkpoints),
                ("fleetsched.scratch_restarts", s.scratch_restarts),
                ("fleetsched.spare_denials", s.pool.denials),
                ("healthmon.alerts", s.alerts),
            ] {
                m.insert(k.into(), v as f64);
            }
        }
    }
}

/// Wire bytes of each completed pre-copy round, from `round_verdict`.
fn round_bytes(trace: Option<&Trace>) -> Vec<u64> {
    trace
        .map(|t| {
            t.events
                .iter()
                .filter(|e| e.cat == "live" && e.name == "round_verdict")
                .filter_map(|e| {
                    e.args.iter().find_map(|(k, v)| match (*k, v) {
                        ("bytes", simkit::ArgValue::U64(b)) => Some(*b),
                        _ => None,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The trace must tell the same story as the reports: `Timeline`'s
/// downtime equals `MigrationReport::downtime()` to the nanosecond for
/// every migration, and its CR phase spans equal the `CrReport` phases.
fn cross_check(traced: &Pass, rep: &mut Report) {
    match traced {
        Pass::Migrate(rs) => {
            for (engine, run) in TUNINGS.iter().zip(rs) {
                let (Some(r), Some(t)) = (&run.out, &run.trace) else {
                    continue;
                };
                let tl = telemetry::Timeline::from_events(&t.events);
                let got = tl.cycle(r.cycle).map(|s| s.downtime());
                let rounds = round_bytes(Some(t));
                rep.check(if got != Some(r.downtime()) {
                    Err(format!(
                        "{engine}: Timeline downtime {got:?} != report {:?}",
                        r.downtime()
                    ))
                } else if *engine == "live"
                    && rounds.first() != Some(&workloads::TABLE1_MIGRATION_BYTES)
                {
                    Err(format!("live: pre-copy rounds moved {rounds:?} bytes"))
                } else {
                    Ok(())
                });
            }
        }
        Pass::Cr(rs) => {
            for (store, run) in STORES.iter().zip(rs) {
                let (Some(r), Some(t)) = (&run.out, &run.trace) else {
                    continue;
                };
                let tl = telemetry::Timeline::from_events(&t.events);
                let stack = tl.cycle(r.cycle);
                let phase = |n: &str| stack.and_then(|s| s.phase(n));
                let want = [
                    ("cr_stall", Some(r.stall)),
                    ("cr_checkpoint", Some(r.checkpoint)),
                    ("cr_resume", Some(r.resume)),
                    ("cr_restart", r.restart),
                ];
                let bad: Vec<_> = want.iter().filter(|(n, d)| phase(n) != *d).collect();
                rep.check(if bad.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "{store}: Timeline phases disagree with report: {bad:?}"
                    ))
                });
            }
        }
        Pass::Fleet(_) => {}
    }
}

fn main() -> ExitCode {
    let o = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = if o.trace {
        per_layer(&o)
    } else {
        end_to_end(&o)
    };
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
