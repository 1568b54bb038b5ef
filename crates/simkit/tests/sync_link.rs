//! Primitive semantics: Event, Gate, Queue, Semaphore, Link fluid model.

use simkit::dur::*;
use simkit::{Event, Gate, Link, Queue, Semaphore, Sharing, Simulation};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn event_releases_all_waiters_at_set_instant() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let ev = Event::new(&h, "go");
    let woke = Arc::new(AtomicU64::new(0));
    for i in 0..4 {
        let ev = ev.clone();
        let woke = woke.clone();
        sim.spawn(&format!("w{i}"), move |ctx| {
            ev.wait(ctx);
            assert_eq!(ctx.now().as_millis(), 7);
            woke.fetch_add(1, Ordering::SeqCst);
        });
    }
    let ev2 = ev.clone();
    sim.spawn("setter", move |ctx| {
        ctx.sleep(ms(7));
        ev2.set();
    });
    sim.run().unwrap();
    assert_eq!(woke.load(Ordering::SeqCst), 4);
    assert!(ev.is_set());
}

#[test]
fn event_wait_after_set_is_instant() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let ev = Event::new(&h, "pre");
    ev.set();
    sim.spawn("late", move |ctx| {
        ev.wait(ctx);
        assert_eq!(ctx.now().as_nanos(), 0);
    });
    sim.run().unwrap();
}

#[test]
fn gate_close_blocks_and_reopen_releases() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let gate = Gate::new(&h, true);
    let passed = Arc::new(AtomicU64::new(0));

    let g2 = gate.clone();
    let p2 = passed.clone();
    sim.spawn("worker", move |ctx| {
        g2.wait(ctx); // open: passes at t=0
        p2.fetch_add(1, Ordering::SeqCst);
        ctx.sleep(ms(10));
        g2.wait(ctx); // closed at t=5, reopened at t=20
        assert_eq!(ctx.now().as_millis(), 20);
        p2.fetch_add(1, Ordering::SeqCst);
    });
    sim.spawn("controller", move |ctx| {
        ctx.sleep(ms(5));
        gate.close();
        ctx.sleep(ms(15));
        gate.open();
    });
    sim.run().unwrap();
    assert_eq!(passed.load(Ordering::SeqCst), 2);
}

#[test]
fn queue_is_fifo_across_waiters() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<u32> = Queue::new(&h);
    let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..3 {
        let q = q.clone();
        let got = got.clone();
        sim.spawn(&format!("consumer{i}"), move |ctx| {
            ctx.sleep(us(i)); // deterministic queueing order of consumers
            let v = q.pop(ctx);
            got.lock().push((i, v));
        });
    }
    sim.spawn("producer", move |ctx| {
        ctx.sleep(ms(1));
        for v in 10..13 {
            q.push(v);
        }
    });
    sim.run().unwrap();
    let got = got.lock();
    // consumers were queued in order 0,1,2 and items arrive 10,11,12
    assert_eq!(*got, vec![(0, 10), (1, 11), (2, 12)]);
}

#[test]
fn queue_push_before_pop_needs_no_waiter() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<&'static str> = Queue::new(&h);
    q.push("early");
    sim.spawn("c", move |ctx| {
        assert_eq!(q.pop(ctx), "early");
        assert_eq!(ctx.now().as_nanos(), 0);
    });
    sim.run().unwrap();
}

#[test]
fn queue_killed_waiter_does_not_swallow_item() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<u32> = Queue::new(&h);
    let q1 = q.clone();
    let doomed = sim.spawn("doomed", move |ctx| {
        let _ = q1.pop(ctx); // parked, then killed
        unreachable!();
    });
    let q2 = q.clone();
    let got = Arc::new(AtomicU64::new(0));
    let g2 = got.clone();
    sim.spawn("survivor", move |ctx| {
        ctx.sleep(us(1));
        let v = q2.pop(ctx);
        g2.store(v as u64, Ordering::SeqCst);
    });
    sim.spawn("driver", move |ctx| {
        ctx.sleep(ms(1));
        doomed.kill();
        ctx.sleep(ms(1));
        q.push(99); // must reach the live waiter, not the corpse
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::SeqCst), 99);
}

#[test]
fn queue_is_shared_tracks_live_handles() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let q: Queue<u32> = Queue::new(&h);
    assert!(!q.is_shared(), "a fresh queue has one handle");
    let c = q.clone();
    assert!(q.is_shared() && c.is_shared(), "a clone is a holder");
    drop(c);
    assert!(!q.is_shared(), "dropping the clone releases it");

    // A process's captured clone counts until the process is gone, whether
    // it returns or is killed while parked in `pop`.
    let q1 = q.clone();
    sim.spawn("returns", move |_ctx| drop(q1));
    let q2 = q.clone();
    let parked = sim.spawn("parked", move |ctx| {
        let _ = q2.pop(ctx);
        unreachable!();
    });
    assert!(q.is_shared(), "unstarted processes hold their clones");
    sim.run_for(ms(1)).unwrap();
    assert!(q.is_shared(), "the parked process still holds its clone");
    parked.kill();
    sim.run_for(ms(1)).unwrap();
    assert!(
        !q.is_shared(),
        "a killed process's clone is dropped on unwind"
    );
}

#[test]
fn semaphore_fifo_no_barging() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let sem = Semaphore::new(&h, 4);
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

    // holder takes all 4 permits until t=10ms
    let s1 = sem.clone();
    sim.spawn("holder", move |ctx| {
        s1.acquire(ctx, 4);
        ctx.sleep(ms(10));
        s1.release(4);
    });
    // big requester queues first (t=1ms), small second (t=2ms)
    let s2 = sem.clone();
    let o2 = order.clone();
    sim.spawn("big", move |ctx| {
        ctx.sleep(ms(1));
        s2.acquire(ctx, 3);
        o2.lock().push("big");
        s2.release(3);
    });
    let s3 = sem.clone();
    let o3 = order.clone();
    sim.spawn("small", move |ctx| {
        ctx.sleep(ms(2));
        s3.acquire(ctx, 1);
        o3.lock().push("small");
        s3.release(1);
    });
    sim.run().unwrap();
    // FIFO: small must NOT barge past big even though 1 permit would be
    // free sooner under a non-FIFO policy.
    assert_eq!(*order.lock(), vec!["big", "small"]);
}

#[test]
fn semaphore_killed_head_does_not_wedge_queue() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let sem = Semaphore::new(&h, 0);
    let s1 = sem.clone();
    let doomed = sim.spawn("doomed", move |ctx| {
        s1.acquire(ctx, 5);
        unreachable!();
    });
    let s2 = sem.clone();
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    sim.spawn("live", move |ctx| {
        ctx.sleep(us(1));
        s2.acquire(ctx, 1);
        g.store(ctx.now().as_millis(), Ordering::SeqCst);
    });
    sim.spawn("driver", move |ctx| {
        ctx.sleep(ms(1));
        doomed.kill();
        ctx.sleep(ms(1));
        sem.release(1);
    });
    sim.run().unwrap();
    assert_eq!(got.load(Ordering::SeqCst), 2);
}

// ---------------------------------------------------------------------------
// Link fluid model
// ---------------------------------------------------------------------------

#[test]
fn link_solo_transfer_takes_bytes_over_capacity() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    // 100 MB/s; 50 MB should take exactly 0.5 s.
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let l2 = link.clone();
    sim.spawn("tx", move |ctx| {
        l2.transfer(ctx, 50_000_000);
        let t = ctx.now().as_secs_f64();
        assert!((t - 0.5).abs() < 1e-6, "took {t}");
    });
    sim.run().unwrap();
    let st = link.stats();
    assert_eq!(st.bytes_completed, 50_000_000);
    assert_eq!(st.flows_completed, 1);
    assert_eq!(st.peak_flows, 1);
}

#[test]
fn link_two_equal_flows_share_fairly() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let done = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..2 {
        let l = link.clone();
        let d = done.clone();
        sim.spawn(&format!("tx{i}"), move |ctx| {
            l.transfer(ctx, 50_000_000);
            d.lock().push(ctx.now().as_secs_f64());
        });
    }
    sim.run().unwrap();
    // Two concurrent 50 MB flows on 100 MB/s: both finish at t = 1.0 s.
    for t in done.lock().iter() {
        assert!((t - 1.0).abs() < 1e-6, "finished at {t}");
    }
    assert_eq!(link.stats().peak_flows, 2);
}

#[test]
fn link_late_arrival_slows_first_flow() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let l1 = link.clone();
    sim.spawn("first", move |ctx| {
        l1.transfer(ctx, 100_000_000);
        // Alone 0–0.5s moves 50 MB; then shares 50 MB/s for remaining 50 MB
        // → finishes at 0.5 + 1.0 = 1.5 s.
        let t = ctx.now().as_secs_f64();
        assert!((t - 1.5).abs() < 1e-6, "first finished at {t}");
    });
    let l2 = link.clone();
    sim.spawn("second", move |ctx| {
        ctx.sleep(ms(500));
        l2.transfer(ctx, 100_000_000);
        // 0.5–1.5s at 50 MB/s moves 50 MB; then alone 50 MB at 100 MB/s
        // → finishes at 1.5 + 0.5 = 2.0 s.
        let t = ctx.now().as_secs_f64();
        assert!((t - 2.0).abs() < 1e-6, "second finished at {t}");
    });
    sim.run().unwrap();
}

#[test]
fn link_departure_speeds_up_survivor() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let l1 = link.clone();
    sim.spawn("short", move |ctx| {
        l1.transfer(ctx, 25_000_000); // shares 50 MB/s → done at 0.5 s
        assert!((ctx.now().as_secs_f64() - 0.5).abs() < 1e-6);
    });
    let l2 = link.clone();
    sim.spawn("long", move |ctx| {
        l2.transfer(ctx, 75_000_000);
        // 0–0.5 s at 50 MB/s → 25 MB done; remaining 50 MB alone at
        // 100 MB/s → done at 1.0 s.
        let t = ctx.now().as_secs_f64();
        assert!((t - 1.0).abs() < 1e-6, "long finished at {t}");
    });
    sim.run().unwrap();
}

#[test]
fn degraded_link_loses_aggregate_with_streams() {
    // alpha=0.25, 8 streams: aggregate = cap / (1 + 0.25*7) = cap/2.75.
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "disk", 110e6, Sharing::Degraded { alpha: 0.25 });
    let done = Arc::new(AtomicU64::new(0));
    for i in 0..8 {
        let l = link.clone();
        let d = done.clone();
        sim.spawn(&format!("s{i}"), move |ctx| {
            l.transfer(ctx, 10_000_000);
            d.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
    }
    sim.run().unwrap();
    // 80 MB total at 110/2.75 = 40 MB/s → 2.0 s.
    let t = done.load(Ordering::SeqCst) as f64 / 1e9;
    assert!((t - 2.0).abs() < 1e-3, "finished at {t}");
}

#[test]
fn killed_transfer_releases_bandwidth() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let l1 = link.clone();
    let doomed = sim.spawn("doomed", move |ctx| {
        l1.transfer(ctx, 1_000_000_000); // would take 10 s alone
        unreachable!();
    });
    let l2 = link.clone();
    sim.spawn("winner", move |ctx| {
        l2.transfer(ctx, 100_000_000);
        // shares until doomed dies at t=0.1s, then alone:
        // 0–0.1 s: 5 MB at 50 MB/s; remaining 95 MB at 100 MB/s → 1.05 s.
        let t = ctx.now().as_secs_f64();
        assert!((t - 1.05).abs() < 1e-6, "winner finished at {t}");
    });
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(100));
        doomed.kill();
    });
    sim.run().unwrap();
    assert_eq!(link.active_flows(), 0);
    assert_eq!(link.stats().flows_completed, 1);
}

#[test]
fn link_zero_bytes_is_instant() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 1.0, Sharing::Fair);
    sim.spawn("z", move |ctx| {
        link.transfer(ctx, 0);
        assert_eq!(ctx.now().as_nanos(), 0);
    });
    sim.run().unwrap();
}

#[test]
fn link_busy_time_accounting() {
    let mut sim = Simulation::new(0);
    let h = sim.handle();
    let link = Link::new(&h, "l", 100e6, Sharing::Fair);
    let l2 = link.clone();
    sim.spawn("tx", move |ctx| {
        l2.transfer(ctx, 10_000_000); // 0.1 s busy
        ctx.sleep(secs(1)); // idle
        l2.transfer(ctx, 10_000_000); // 0.1 s busy
    });
    sim.run().unwrap();
    let busy = link.stats().busy.as_secs_f64();
    assert!((busy - 0.2).abs() < 1e-6, "busy was {busy}");
}

#[test]
fn link_solo_duration_estimate() {
    let sim = Simulation::new(0);
    let link = Link::new(&sim.handle(), "l", 200e6, Sharing::Fair);
    assert!((link.solo_duration(100_000_000).as_secs_f64() - 0.5).abs() < 1e-9);
    assert_eq!(link.capacity_bps(), 200e6);
}
