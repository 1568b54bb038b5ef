//! Scheduler semantics: ordering, determinism, kill, join, deadlock,
//! bounded runs.

use simkit::dur::*;
use simkit::{Event, Queue, SimError, SimTime, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn clock_starts_at_zero_and_advances_with_sleep() {
    let mut sim = Simulation::new(0);
    assert_eq!(sim.now(), SimTime::ZERO);
    let log = Arc::new(AtomicU64::new(0));
    let l2 = log.clone();
    sim.spawn("sleeper", move |ctx| {
        ctx.sleep(ms(3));
        l2.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(log.load(Ordering::SeqCst), 3_000_000);
    assert_eq!(sim.now().as_millis(), 3);
}

#[test]
fn same_time_events_run_in_spawn_order() {
    let mut sim = Simulation::new(0);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..5 {
        let order = order.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(ms(10)); // all wake at exactly t=10ms
            order.lock().push(i);
        });
    }
    sim.run().unwrap();
    assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn nested_spawn_runs_at_current_instant() {
    let mut sim = Simulation::new(0);
    let seen = Arc::new(AtomicU64::new(0));
    let s2 = seen.clone();
    sim.spawn("parent", move |ctx| {
        ctx.sleep(ms(5));
        let s3 = s2.clone();
        let child = ctx.spawn("child", move |cctx| {
            s3.store(cctx.now().as_millis(), Ordering::SeqCst);
        });
        ctx.join(&child);
        assert!(child.is_dead());
    });
    sim.run().unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 5);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run_once(seed: u64) -> Vec<(u64, u32)> {
        let mut sim = Simulation::new(seed);
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..8u32 {
            let log = log.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..5 {
                    let jitter = ctx.with_rng(|r| rand::Rng::gen_range(r, 1..1000u64));
                    ctx.sleep(us(jitter));
                    log.lock().push((ctx.now().as_nanos(), i));
                }
            });
        }
        sim.run().unwrap();
        let v = log.lock().clone();
        v
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must give identical schedules");
    assert_ne!(a, c, "different seed should perturb the schedule");
}

#[test]
fn kill_unwinds_at_next_block_and_join_sees_death() {
    let mut sim = Simulation::new(0);
    let progressed = Arc::new(AtomicU64::new(0));
    let p2 = progressed.clone();
    let victim = sim.spawn("victim", move |ctx| {
        ctx.sleep(ms(1));
        p2.fetch_add(1, Ordering::SeqCst);
        ctx.sleep(secs(100)); // killed during this sleep
        p2.fetch_add(100, Ordering::SeqCst); // never reached
    });
    let v2 = victim.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(2));
        v2.kill();
        ctx.join(&v2);
        assert_eq!(ctx.now().as_millis(), 2, "kill takes effect immediately");
    });
    sim.run().unwrap();
    assert_eq!(progressed.load(Ordering::SeqCst), 1);
    assert!(victim.is_dead());
}

#[test]
fn exit_terminates_cleanly() {
    let mut sim = Simulation::new(0);
    let after = Arc::new(AtomicU64::new(0));
    let a2 = after.clone();
    sim.spawn("quitter", move |ctx| {
        ctx.sleep(ms(1));
        if ctx.now().as_millis() == 1 {
            ctx.exit();
        }
        a2.store(1, Ordering::SeqCst);
    });
    sim.run().unwrap();
    assert_eq!(after.load(Ordering::SeqCst), 0);
}

#[test]
fn proc_panic_surfaces_as_error() {
    let mut sim = Simulation::new(0);
    sim.spawn("bad", |ctx| {
        ctx.sleep(ms(1));
        panic!("intentional test panic");
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "bad");
            assert!(message.contains("intentional test panic"));
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
}

#[test]
fn deadlock_is_detected_and_named() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let never = Event::new(&h, "never");
    let n2 = never.clone();
    sim.spawn("stuck-a", move |ctx| n2.wait(ctx));
    let n3 = never.clone();
    sim.spawn("stuck-b", move |ctx| n3.wait(ctx));
    match sim.run() {
        Err(SimError::Deadlock { blocked, .. }) => {
            let names: Vec<_> = blocked.iter().map(|(_, n)| n.as_str()).collect();
            assert_eq!(names, vec!["stuck-a", "stuck-b"]);
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn daemons_do_not_count_as_deadlock() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<u32> = Queue::new(&h);
    let q2 = q.clone();
    sim.spawn_daemon("service", move |ctx| loop {
        let _ = q2.pop(ctx);
    });
    sim.spawn("client", move |ctx| {
        ctx.sleep(ms(1));
        q.push(1);
        ctx.sleep(ms(1));
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_millis(), 2);
}

#[test]
fn run_until_stops_at_limit_and_resumes() {
    let mut sim = Simulation::new(0);
    let hits = Arc::new(AtomicU64::new(0));
    let h2 = hits.clone();
    sim.spawn("ticker", move |ctx| {
        for _ in 0..10 {
            ctx.sleep(ms(10));
            h2.fetch_add(1, Ordering::SeqCst);
        }
    });
    sim.run_until(SimTime::from_nanos(35_000_000)).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 3);
    assert_eq!(sim.now().as_millis(), 35, "clock parks exactly at limit");
    sim.run().unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 10);
    assert_eq!(sim.now().as_millis(), 100);
}

#[test]
fn run_for_advances_relative() {
    let mut sim = Simulation::new(0);
    sim.spawn("s", |ctx| ctx.sleep(secs(10)));
    sim.run_for(secs(1)).unwrap();
    assert_eq!(sim.now().as_millis(), 1000);
    sim.run_for(secs(1)).unwrap();
    assert_eq!(sim.now().as_millis(), 2000);
}

#[test]
fn join_on_already_dead_returns_immediately() {
    let mut sim = Simulation::new(0);
    let quick = sim.spawn("quick", |_| {});
    sim.spawn("joiner", move |ctx| {
        ctx.sleep(ms(5));
        ctx.join(&quick);
        assert_eq!(ctx.now().as_millis(), 5);
    });
    sim.run().unwrap();
}

#[test]
fn many_processes_scale() {
    let mut sim = Simulation::new(0);
    let count = Arc::new(AtomicU64::new(0));
    for i in 0..300 {
        let c = count.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(us(i));
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 300);
}

#[test]
fn kill_before_first_run_never_executes_body() {
    let mut sim = Simulation::new(0);
    let ran = Arc::new(AtomicU64::new(0));
    let r2 = ran.clone();
    let p = sim.spawn("unborn", move |_| {
        r2.store(1, Ordering::SeqCst);
    });
    p.kill();
    sim.run().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    assert!(p.is_dead());
}

#[test]
fn tracer_records_lifecycle() {
    let mut sim = Simulation::new(0);
    sim.handle().tracer().set_enabled(true);
    sim.spawn("a", |ctx| ctx.sleep(ms(1)));
    sim.run().unwrap();
    let recs = sim.handle().tracer().drain();
    assert!(recs.iter().any(|r| r.msg.contains("spawned 'a'")));
    assert!(recs.iter().any(|r| r.msg == "finished"));
}

#[test]
fn kill_mid_transfer_releases_link_share_at_dispatch() {
    use simkit::{FlowNet, Sharing};
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let link = net.add_link("l", 100e6, Sharing::Fair);
    let (n1, n2, n3) = (net.clone(), net.clone(), net.clone());
    let victim = sim.spawn("victim", move |ctx| n1.transfer(ctx, &[link], 100_000_000));
    let bg_done = Arc::new(AtomicU64::new(0));
    let b2 = bg_done.clone();
    sim.spawn("bg", move |ctx| {
        n2.transfer(ctx, &[link], 100_000_000);
        b2.store(ctx.now().as_nanos(), Ordering::SeqCst);
    });
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(300));
        victim.kill();
        // The kill only flags the victim; it unwinds when dispatched.
        assert_eq!(n3.active_on(link), 2);
        ctx.join(&victim);
        assert_eq!(
            ctx.now().as_millis(),
            300,
            "unwound at its dispatch instant"
        );
        assert_eq!(n3.active_on(link), 1, "the killed flow left the link");
    });
    sim.run().unwrap();
    assert_eq!(net.active_on(link), 0);
    assert_eq!(
        net.bytes_completed_on(link),
        100_000_000,
        "only bg completed"
    );
    // 15 MB moved at 50 MB/s until the kill, then 85 MB alone at 100 MB/s.
    let done = bg_done.load(Ordering::SeqCst) as f64 / 1e9;
    assert!((done - 1.15).abs() < 1e-6, "bg finished at {done}");
}

/// Pushes its tag onto a shared log when dropped.
struct DropLog(u32, Arc<parking_lot::Mutex<Vec<u32>>>);

impl Drop for DropLog {
    fn drop(&mut self) {
        self.1.lock().push(self.0);
    }
}

#[test]
fn dropping_a_simulation_unwinds_each_proc_once_in_pid_order() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let never = Event::new(&h, "never");
    let l = log.clone();
    sim.spawn("blocked", move |ctx| {
        let _g = DropLog(0, l);
        ctx.sleep(secs(100));
    });
    let l = log.clone();
    sim.spawn("finished", move |ctx| {
        let _g = DropLog(1, l);
        ctx.sleep(us(1));
    });
    let l = log.clone();
    let killed = sim.spawn("killed", move |ctx| {
        let _g = DropLog(2, l);
        ctx.sleep(secs(100));
    });
    let (l, n2) = (log.clone(), never.clone());
    sim.spawn("waiting", move |ctx| {
        let _g = DropLog(3, l);
        n2.wait(ctx);
    });
    sim.run_until(SimTime::ZERO + ms(1)).unwrap();
    killed.kill(); // flagged, but never dispatched again before the drop
    let g = DropLog(4, log.clone());
    sim.spawn("unborn", move |_| drop(g));
    assert_eq!(*log.lock(), vec![1]);
    drop(sim);
    assert_eq!(*log.lock(), vec![1, 0, 2, 3, 4]);
}

/// Re-run this test binary on one `isolated_*` test, alone, with `envs`
/// set (and `SIMKIT_ISOLATED=1`, which those tests require to run).
fn run_isolated(test: &str, envs: &[(&str, &str)]) -> std::process::Output {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--include-ignored", "--test-threads=1"])
        .arg("--nocapture")
        .env("SIMKIT_ISOLATED", "1")
        .envs(envs.iter().copied())
        .output()
        .expect("re-running the test binary");
    assert!(
        out.status.success(),
        "{test} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn isolated() -> bool {
    std::env::var_os("SIMKIT_ISOLATED").is_some()
}

/// `Threads:` from `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
#[ignore = "run alone in a child process by a_thousand_procs_create_no_threads"]
fn isolated_thread_count() {
    if !isolated() {
        return;
    }
    let before = os_threads();
    let mut sim = Simulation::new(0);
    let peak = Arc::new(AtomicU64::new(0));
    for i in 0..1000 {
        let peak = peak.clone();
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(us(i));
            peak.fetch_max(os_threads(), Ordering::SeqCst);
            ctx.sleep(us(1000 - i));
        });
    }
    sim.run().unwrap();
    assert_eq!(
        peak.load(Ordering::SeqCst),
        before,
        "threads during the run"
    );
    drop(sim);
    assert_eq!(os_threads(), before, "threads after teardown");
}

#[test]
fn a_thousand_procs_create_no_threads() {
    run_isolated("isolated_thread_count", &[]);
}

#[test]
#[ignore = "run alone in a child process by proc_panic_with_backtrace_is_reported"]
fn isolated_panic_with_backtrace() {
    if !isolated() {
        return;
    }
    let mut sim = Simulation::new(0);
    sim.spawn("doomed-proc", |ctx| {
        ctx.sleep(ms(1));
        panic!("deliberate panic with a backtrace");
    });
    match sim.run() {
        Err(SimError::ProcPanic { name, message, .. }) => {
            assert_eq!(name, "doomed-proc");
            assert_eq!(message, "deliberate panic with a backtrace");
        }
        other => panic!("expected ProcPanic, got {other:?}"),
    }
}

#[test]
fn proc_panic_with_backtrace_is_reported() {
    // The panic hook walks the coroutine stack; the walk must end cleanly
    // at the coroutine base and the run must still report the panic.
    let out = run_isolated("isolated_panic_with_backtrace", &[("RUST_BACKTRACE", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deliberate panic with a backtrace"),
        "{stderr}"
    );
    assert!(stderr.contains("stack backtrace"), "{stderr}");
}

/// Recurse until at least `bytes` of stack lie between `top` and the
/// deepest frame; returns the stack depth reached, in bytes.
fn recurse_until(top: usize, bytes: usize) -> usize {
    let buf = std::hint::black_box([1u8; 2048]);
    let here = &buf as *const _ as usize;
    if top - here >= bytes {
        return top - here;
    }
    recurse_until(top, bytes) + usize::from(std::hint::black_box(buf)[7] - 1)
}

#[test]
fn proc_stack_holds_400_kib_of_frames() {
    let mut sim = Simulation::new(0);
    let reached = Arc::new(AtomicU64::new(0));
    let r2 = reached.clone();
    sim.spawn("deep", move |ctx| {
        ctx.sleep(ms(1));
        let top = 0u8;
        let top = &top as *const u8 as usize;
        r2.store(recurse_until(top, 400 * 1024) as u64, Ordering::SeqCst);
        ctx.sleep(ms(1)); // switches out and back with the deep stack unwound
    });
    sim.run().unwrap();
    assert!(reached.load(Ordering::SeqCst) >= 400 * 1024);
}

/// N flows on disjoint links: every recompute evaluates every flow but
/// pushes one timer, for the earliest completion, and each flow still
/// ends at its analytic instant.
#[test]
fn disjoint_flows_cost_one_timer_push_per_recompute() {
    use simkit::{FlowNet, Sharing};
    const N: u64 = 16;
    let mut sim = Simulation::new(0);
    let net = FlowNet::new(&sim.handle());
    let done = Arc::new(parking_lot::Mutex::new(Vec::new()));
    // 2^27 B/s and multiples of 2^24 B: every instant is an exact
    // multiple of 1/8 s, so completions are exact in nanoseconds.
    for i in 0..N {
        let link = net.add_link(&format!("l{i}"), (1u64 << 27) as f64, Sharing::Fair);
        let (net, done) = (net.clone(), done.clone());
        sim.spawn(&format!("f{i}"), move |ctx| {
            net.transfer(ctx, &[link], (i + 1) << 24);
            done.lock().push((i, ctx.now().as_nanos()));
        });
    }
    let before = sim.hot_stats();
    sim.run().unwrap();
    let d = sim.hot_stats().since(&before);
    assert_eq!(d.flow_recomputes, 2 * N, "one per start, one per finish");
    // The last finish leaves the net empty, so it arms nothing.
    assert_eq!(d.timer_pushes, d.flow_recomputes - 1);
    // Rate and completion are still evaluated for every flow present:
    // N starts see 1..=N flows, N finishes see N-1..=0.
    assert_eq!(d.flow_retimes, N * N);
    let want: Vec<(u64, u64)> = (0..N).map(|i| (i, (i + 1) * 125_000_000)).collect();
    assert_eq!(*done.lock(), want);
}
