//! End-to-end failover tests of the staq-shard subsystem: a router over
//! four in-process backends, one backend killed under live load. The
//! contract under test: only the categories owned by the dead shard
//! answer `Unavailable` (as error frames — the client connection never
//! breaks), the other shards are unaffected, the supervisor respawns the
//! victim, and a post-respawn sweep is bit-identical to a single-process
//! server over the same city.

use staq_repro::gtfs::model::{RouteId, TripId};
use staq_repro::gtfs::Delta;
use staq_repro::prelude::*;
use staq_serve::codec::ErrorCode;
use staq_serve::presets::CityPreset;
use staq_serve::{ClientError, MuxClient, ServerConfig};
use staq_shard::{
    route, shard_for, Backend, RouterConfig, RouterHandle, ShardSupervisor, SupervisorConfig,
    ThreadBackend,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const SEED: u64 = 42;

fn start_fleet() -> RouterHandle {
    let backends: Vec<Box<dyn Backend>> = (0..SHARDS)
        .map(|_| {
            Box::new(ThreadBackend::new(2, || Arc::new(CityPreset::Test.engine(0.05, SEED))))
                as Box<dyn Backend>
        })
        .collect();
    let cfg = SupervisorConfig {
        respawn_backoff: Duration::from_millis(100),
        poll_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let sup = ShardSupervisor::start(backends, cfg).expect("fleet start");
    route(sup, &RouterConfig::default()).expect("router bind")
}

fn wait_until_up(router: &RouterHandle, shard: usize) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !router.supervisor().is_up(shard) {
        assert!(Instant::now() < deadline, "shard {shard} never respawned");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn killing_one_shard_mid_burst_fails_only_its_categories_until_respawn() {
    let mut router = start_fleet();
    let addr = router.addr();
    let victim = shard_for(PoiCategory::School, SHARDS);

    // Warm every category so the burst measures the steady state, not
    // four concurrent pipeline runs.
    let warm = MuxClient::connect(addr).expect("connect");
    for cat in PoiCategory::ALL {
        warm.measures(cat).expect("warm sweep");
    }

    // One hammer thread per category, counting (successes before the
    // kill, Unavailable frames, successes after respawn).
    let stop = Arc::new(AtomicBool::new(false));
    let respawned = Arc::new(AtomicBool::new(false));
    let counts: Vec<(u64, u64, u64)> = crossbeam::scope(|scope| {
        let handles: Vec<_> = PoiCategory::ALL
            .iter()
            .map(|&cat| {
                let stop = Arc::clone(&stop);
                let respawned = Arc::clone(&respawned);
                scope.spawn(move |_| {
                    let c = MuxClient::connect(addr).expect("connect");
                    let (mut ok, mut unavailable, mut ok_after) = (0u64, 0u64, 0u64);
                    while !stop.load(Ordering::SeqCst) {
                        match c.measures(cat) {
                            Ok(_) if respawned.load(Ordering::SeqCst) => ok_after += 1,
                            Ok(_) => ok += 1,
                            Err(ClientError::Server { code: ErrorCode::Unavailable, .. }) => {
                                unavailable += 1
                            }
                            Err(e) => panic!("{cat:?}: unexpected error {e}"),
                        }
                    }
                    (ok, unavailable, ok_after)
                })
            })
            .collect();

        // Let the burst run, kill the victim mid-flight, wait for the
        // monitor to respawn it, then let the burst observe the recovery.
        std::thread::sleep(Duration::from_millis(150));
        router.supervisor().kill_backend(victim);
        assert!(!router.supervisor().is_up(victim));
        wait_until_up(&router, victim);
        respawned.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(150));
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().expect("hammer panicked")).collect()
    })
    .expect("burst scope");

    for (&cat, &(ok, unavailable, ok_after)) in PoiCategory::ALL.iter().zip(&counts) {
        assert!(ok > 0, "{cat:?} must have succeeded before the kill");
        assert!(ok_after > 0, "{cat:?} must succeed after the respawn");
        if shard_for(cat, SHARDS) == victim {
            assert!(
                unavailable > 0,
                "{cat:?} lives on the killed shard and must have seen Unavailable"
            );
        } else {
            assert_eq!(unavailable, 0, "{cat:?} lives on a healthy shard and must be unaffected");
        }
    }

    // Post-respawn sweep, byte-for-byte against a single-process server
    // over the same deterministic city.
    let sharded = MuxClient::connect(addr).expect("connect");
    let mut single_server = staq_serve::serve(
        CityPreset::Test.engine(0.05, SEED),
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
    )
    .expect("single server");
    let single = MuxClient::connect(single_server.addr()).expect("connect single");
    for cat in PoiCategory::ALL {
        assert_eq!(
            sharded.measures(cat).expect("sharded measures"),
            single.measures(cat).expect("single measures"),
            "{cat:?}: sharded answers must match a single-process run"
        );
    }

    single_server.shutdown();
    router.shutdown();
}

#[test]
fn stats_scatter_gathers_and_bus_routes_broadcast() {
    let mut router = start_fleet();
    let c = MuxClient::connect(router.addr()).expect("connect");

    // Workers sum across the fleet; warming all categories unions the
    // per-shard cache listings back into the full set.
    for cat in PoiCategory::ALL {
        c.measures(cat).expect("warm");
    }
    let stats = c.stats().expect("stats");
    assert_eq!(usize::from(stats.workers), 2 * SHARDS);
    assert_eq!(stats.cached, PoiCategory::ALL.to_vec(), "every category cached somewhere");
    assert_eq!(stats.pipeline_runs, 4, "one pipeline run per category across the fleet");

    // A schedule edit lands on every shard: afterwards no shard has any
    // category cached.
    let stops = vec![Point::new(1000.0, 1000.0), Point::new(4000.0, 4000.0)];
    c.apply_delta(0, &Delta::AddRoute { stops, headway_s: 600 }).expect("broadcast acked");
    assert!(c.stats().unwrap().cached.is_empty(), "broadcast invalidated every shard");

    // A semantic rejection (one-stop route) is relayed, not wrapped, and
    // the front connection stays usable.
    let one_stop = Delta::AddRoute { stops: vec![Point::new(0.0, 0.0)], headway_s: 600 };
    match c.apply_delta(0, &one_stop) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("two stops"), "{message}");
        }
        other => panic!("expected relayed rejection, got {other:?}"),
    }
    c.stats().expect("connection survives the rejection");

    router.shutdown();
}

#[test]
fn delta_broadcasts_carry_fleet_sequence_numbers_and_gate_on_all_acks() {
    let mut router = start_fleet();
    let c = MuxClient::connect(router.addr()).expect("connect");
    let sup = router.supervisor();

    // The router is the sequencing authority: whatever seq the client
    // claims, the fleet log assigns the next one, and OK means every
    // shard acked it.
    let d1 = Delta::TripDelay { trip: TripId(0), delay_secs: 240 };
    let d2 = Delta::TripCancel { trip: TripId(2) };
    let ack = c.apply_delta(77, &d1).expect("first fleet delta");
    assert_eq!(ack.seq, 1, "client seq is advisory; the fleet log assigns");
    let ack = c.apply_delta(0, &d2).expect("second fleet delta");
    assert_eq!(ack.seq, 2);
    assert_eq!(sup.edit_seq(), 2);
    for shard in 0..SHARDS {
        assert_eq!(sup.edit_acked(shard), 2, "shard {shard} must have acked the whole log");
    }

    // A rejected delta is unanimous across identical replicas: it is
    // un-sequenced from the log and the rejection relayed verbatim.
    match c.apply_delta(0, &Delta::RouteRemove { route: RouteId(9999) }) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("unknown route"), "{message}");
        }
        other => panic!("expected relayed rejection, got {other:?}"),
    }
    assert_eq!(sup.edit_seq(), 2, "a rejected delta must not consume a sequence number");

    // Kill one backend, then edit: the broadcast gates on all acks, so
    // the reply is Unavailable naming the partial application — but the
    // delta stays sequenced and the live shards keep it.
    let victim = 1;
    sup.kill_backend(victim);
    let d3 = Delta::RouteRemove { route: RouteId(1) };
    match c.apply_delta(0, &d3) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Unavailable);
            assert!(message.contains("3/4 shards"), "{message}");
        }
        other => panic!("expected partial-application error, got {other:?}"),
    }
    assert_eq!(sup.edit_seq(), 3, "a partially-applied delta stays in the fleet log");
    for shard in 0..SHARDS {
        // The victim acked seqs 1-2 before dying and keeps that credit;
        // the respawn sync is what resets and replays it.
        let want = if shard == victim { 2 } else { 3 };
        assert_eq!(sup.edit_acked(shard), want, "shard {shard} ack after partial broadcast");
    }

    // The monitor respawns the victim into a fresh city and replays the
    // fleet log onto it before it serves: convergence without any client
    // action.
    wait_until_up(&router, victim);
    let deadline = Instant::now() + Duration::from_secs(120);
    while sup.edit_acked(victim) < 3 {
        assert!(Instant::now() < deadline, "respawned shard never synced the fleet log");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Every replica — the three that applied incrementally and the one
    // that replayed from scratch — now answers bit-identically to a
    // single-process server fed the same sequenced history.
    let mut single_server = staq_serve::serve(
        CityPreset::Test.engine(0.05, SEED),
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
    )
    .expect("single server");
    let single = MuxClient::connect(single_server.addr()).expect("connect single");
    let last = single.delta_batch(1, &[d1, d2, d3]).expect("replay history");
    assert_eq!(last, 3);
    for cat in PoiCategory::ALL {
        assert_eq!(
            c.measures(cat).expect("sharded measures"),
            single.measures(cat).expect("single measures"),
            "{cat:?}: post-failover fleet must match the replayed history"
        );
    }

    // An explicitly-sequenced batch the fleet already has is acked
    // idempotently without growing the log.
    let replay = c
        .delta_batch(1, &[Delta::TripDelay { trip: TripId(0), delay_secs: 240 }])
        .expect("idempotent batch");
    assert_eq!(replay, 3);
    assert_eq!(sup.edit_seq(), 3);

    single_server.shutdown();
    router.shutdown();
}
