//! End-to-end FTB behaviour: tree delivery, filtering, payloads,
//! self-healing after agent death.

use ftb::{EventFilter, FtbBackplane, FtbClient, FtbEvent, Severity};
use ibfabric::{Net, NetConfig, NodeId};
use simkit::dur::*;
use simkit::Simulation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// login(0) ── n1, n2 ── n3 (chain under n2) — a small asymmetric tree.
fn deploy(sim: &Simulation) -> FtbBackplane {
    let h = sim.handle();
    let net = Net::new(&h, NetConfig::gige());
    let bp = FtbBackplane::new(&h, net, ftb::FtbConfig::default());
    bp.add_agent(NodeId(0), None);
    bp.add_agent(NodeId(1), Some(NodeId(0)));
    bp.add_agent(NodeId(2), Some(NodeId(0)));
    bp.add_agent(NodeId(3), Some(NodeId(2)));
    bp
}

#[test]
fn publish_reaches_every_node_once() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let hits = Arc::new(AtomicU64::new(0));
    for n in 0..4u32 {
        let c = FtbClient::connect(&bp, NodeId(n), &format!("sub{n}"));
        let q = c.subscribe(&h, EventFilter::space("FTB.TEST"));
        let hits = hits.clone();
        sim.spawn(&format!("listener{n}"), move |ctx| {
            let ev = q.pop(ctx);
            assert_eq!(ev.name, "GO");
            assert_eq!(ev.origin, NodeId(3));
            hits.fetch_add(1, Ordering::SeqCst);
        });
    }
    let publisher = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("publisher", move |ctx| {
        ctx.sleep(ms(1));
        publisher.publish(
            ctx,
            FtbEvent::simple("FTB.TEST", "GO", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 4, "event must reach all nodes");
}

#[test]
fn delivery_latency_is_milliseconds() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    // deepest path: leaf n3 → n2 → root n0 → n1
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let got = Arc::new(AtomicU64::new(0));
    let g = got.clone();
    sim.spawn("listener", move |ctx| {
        let _ = q.pop(ctx);
        g.store(ctx.now().as_micros(), Ordering::SeqCst);
    });
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(ctx, FtbEvent::simple("S", "N", Severity::Info, NodeId(3)));
    });
    sim.run_for(secs(1)).unwrap();
    let us = got.load(Ordering::SeqCst);
    assert!(us > 0, "delivered");
    assert!(
        us < 5_000,
        "FTB control latency should be sub-5ms, was {us}us"
    );
}

#[test]
fn filters_select_events() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q_mig = c.subscribe(&h, EventFilter::named("FTB.MPI", "FTB_MIGRATE"));
    let q_all = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(0), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("FTB.MPI", "FTB_RESTART", Severity::Info, NodeId(0)),
        );
        p.publish(
            ctx,
            FtbEvent::simple("FTB.MPI", "FTB_MIGRATE", Severity::Error, NodeId(0)),
        );
        p.publish(
            ctx,
            FtbEvent::simple("FTB.HEALTH", "TEMP", Severity::Warning, NodeId(0)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q_mig.len(), 1);
    assert_eq!(q_all.len(), 3);
}

#[test]
fn typed_payload_crosses_the_tree() {
    #[derive(Debug, PartialEq)]
    struct MigratePayload {
        source: NodeId,
        target: NodeId,
    }
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(3), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(0), "jm");
    sim.spawn("jm", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::with_payload(
                "FTB.MPI",
                "FTB_MIGRATE",
                Severity::Error,
                NodeId(0),
                MigratePayload {
                    source: NodeId(1),
                    target: NodeId(2),
                },
            ),
        );
    });
    let checked = Arc::new(AtomicU64::new(0));
    let c2 = checked.clone();
    sim.spawn("sub", move |ctx| {
        let ev = q.pop(ctx);
        let pl = ev.payload_as::<MigratePayload>().expect("payload type");
        assert_eq!(pl.source, NodeId(1));
        assert_eq!(pl.target, NodeId(2));
        c2.store(1, Ordering::SeqCst);
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
}

#[test]
fn agent_death_triggers_reattach_to_grandparent() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();

    // n3's parent is n2; kill n2 → n3 should re-attach under root n0.
    let bp2 = bp.clone();
    sim.spawn("killer", move |ctx| {
        ctx.sleep(ms(200)); // let attach/acks settle (heartbeat at 500 ms)
        bp2.kill_agent(NodeId(2));
    });
    sim.run_for(secs(2)).unwrap();
    assert_eq!(bp.parent_of(NodeId(3)), Some(NodeId(0)));

    // and events still flow end-to-end
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("S", "AFTER", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1, "event must route around the dead agent");
}

#[test]
fn publisher_receives_own_event_if_subscribed() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(1), "both");
    let q = c.subscribe(&h, EventFilter::all());
    let c2 = c.clone();
    sim.spawn("pub", move |ctx| {
        c2.publish(
            ctx,
            FtbEvent::simple("S", "SELF", Severity::Info, NodeId(1)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1);
}

#[test]
fn concurrent_publishers_all_delivered() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    let c = FtbClient::connect(&bp, NodeId(0), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    for n in 1..4u32 {
        let p = FtbClient::connect(&bp, NodeId(n), &format!("pub{n}"));
        sim.spawn(&format!("pub{n}"), move |ctx| {
            for k in 0..5 {
                p.publish(
                    ctx,
                    FtbEvent::simple("S", &format!("E{n}-{k}"), Severity::Info, NodeId(n)),
                );
                ctx.sleep(us(100));
            }
        });
    }
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 15);
}

/// A visible-error window on every link. All sends fail while the window
/// is open; the tree must heal afterwards instead of orphaning agents.
struct FlapWindow {
    from: simkit::SimTime,
    until: simkit::SimTime,
}

impl ibfabric::FaultHook for FlapWindow {
    fn on_send(
        &self,
        now: simkit::SimTime,
        _net: &str,
        _from: NodeId,
        _to: NodeId,
        _port: u16,
        _wire: u64,
    ) -> ibfabric::SendVerdict {
        if now >= self.from && now < self.until {
            ibfabric::SendVerdict::Error
        } else {
            ibfabric::SendVerdict::Deliver
        }
    }
}

#[test]
fn transient_link_flap_does_not_orphan_agents() {
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let h = sim.handle();
    // The window covers at least one heartbeat (period 500 ms) for every
    // agent, so each one sees a failed ping and goes through reattach.
    bp.net().set_fault_hook(Arc::new(FlapWindow {
        from: simkit::SimTime::ZERO + ms(200),
        until: simkit::SimTime::ZERO + ms(1400),
    }));
    sim.run_for(secs(3)).unwrap();

    // Depth-1 agents have no grandparent to fail over to; a transient
    // error must leave them attached to the root, not orphaned.
    assert_eq!(bp.parent_of(NodeId(1)), Some(NodeId(0)));
    assert_eq!(bp.parent_of(NodeId(2)), Some(NodeId(0)));
    // n3 may have failed over to its grandparent — either parent works,
    // as long as it still has one.
    assert!(bp.parent_of(NodeId(3)).is_some(), "n3 orphaned");

    // And events still traverse the healed tree end-to-end.
    let c = FtbClient::connect(&bp, NodeId(1), "sub");
    let q = c.subscribe(&h, EventFilter::all());
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        p.publish(
            ctx,
            FtbEvent::simple("S", "HEALED", Severity::Info, NodeId(3)),
        );
    });
    sim.run_for(secs(1)).unwrap();
    assert_eq!(q.len(), 1, "event must flow after the flap heals");
}

/// Subscriptions whose queues nobody can pop any more must not keep
/// receiving events: a subscriber that returned and one killed while parked
/// in `pop` leave no queue behind that holds a copy of a later event.
#[test]
fn departed_subscribers_keep_no_copy_of_later_events() {
    const N: u32 = 8;
    let mut sim = Simulation::new(0);
    let bp = deploy(&sim);
    let sub = FtbClient::connect(&bp, NodeId(1), "sub");

    let s = sub.clone();
    sim.spawn("returns", move |ctx| {
        let _q = s.subscribe(&ctx.handle(), EventFilter::all());
    });
    let s = sub.clone();
    let parked = sim.spawn("parked", move |ctx| {
        let q = s.subscribe(&ctx.handle(), EventFilter::all());
        let _ = q.pop(ctx);
        unreachable!("killed before any event is published");
    });
    let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let g = got.clone();
    sim.spawn("live", move |ctx| {
        let q = sub.subscribe(&ctx.handle(), EventFilter::all());
        for _ in 0..N {
            let ev = q.pop(ctx);
            g.lock().push(ev.payload_as::<(u32, Arc<()>)>().unwrap().0);
        }
    });

    let token = Arc::new(());
    let t = token.clone();
    let p = FtbClient::connect(&bp, NodeId(3), "pub");
    sim.spawn("pub", move |ctx| {
        ctx.sleep(ms(1));
        parked.kill();
        ctx.sleep(ms(1));
        for k in 0..N {
            p.publish(
                ctx,
                FtbEvent::with_payload("S", "TOKEN", Severity::Info, NodeId(3), (k, t.clone())),
            );
            ctx.sleep(us(100));
        }
    });
    sim.run_for(secs(1)).unwrap();

    assert_eq!(
        *got.lock(),
        (0..N).collect::<Vec<_>>(),
        "live subscriber sees every event in order"
    );
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "an unreachable subscription queue kept a copy of an event"
    );
}
