//! Determinism of the sharded fleet: the merged aggregate is a pure
//! function of the fleet seed — independent of worker count, chunk
//! grain, and scheduling — plus the algebraic properties of
//! [`FleetStats::merge`] that make that true.

use artemis_core::app::AppGraphBuilder;
use artemis_core::time::SimDuration;
use artemis_core::trace::TraceEvent;
use artemis_fleet::{run_fleet, run_shards, DeviceSample, FleetConfig, FleetDevice, FleetStats};
use artemis_runtime::ArtemisRuntimeBuilder;
use intermittent_sim::capacitor::Capacitor;
use intermittent_sim::device::DeviceBuilder;
use intermittent_sim::energy::Energy;
use intermittent_sim::harvester::Harvester;
use intermittent_sim::simulator::RunLimit;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A small two-task workload whose shape, supply and costs all come
/// from the device's derived seed stream — continuous and stochastic
/// supplies mixed so the fleet exercises reboots and violations.
fn tiny_fleet_device(_index: u64, seed: u64) -> FleetDevice {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let send = b.task("send");
    b.path(&[sense, send]);
    let app = b.build().expect("graph is valid");
    let suite = artemis_ir::compile(
        "sense: { maxTries: 3 onFail: skipPath; }\n\
         send: { maxDuration: 500ms onFail: skipTask; }",
        &app,
    )
    .expect("spec compiles");

    let mut rb = ArtemisRuntimeBuilder::new(app);
    // At 360 pJ/cycle a heavy draw can exceed the smaller capacitors in
    // one task attempt, so a slice of the fleet is guaranteed to deplete
    // and reboot mid-task.
    let bursts = rng.random_range(2..=6u32);
    let cycles = rng.random_range(10_000..=60_000u64);
    rb.body("sense", move |ctx| {
        for _ in 0..bursts {
            ctx.compute(cycles)?;
        }
        Ok(())
    });
    rb.body("send", |ctx| {
        ctx.compute(2_000)?;
        ctx.transmit(16)
    });

    let harvester = if rng.random_bool(0.5) {
        Harvester::Continuous
    } else {
        Harvester::stochastic(
            SimDuration::from_millis(50),
            SimDuration::from_secs(5),
            rng.next_u64(),
        )
    };
    let mut dev = DeviceBuilder::msp430fr5994()
        .capacitor(Capacitor::with_budget(Energy::from_micro_joules(
            rng.random_range(25..=90),
        )))
        .harvester(harvester)
        .trace_bounded(128)
        .build();
    let rt = rb.install(&mut dev, suite).expect("workload installs");
    FleetDevice {
        dev,
        rt,
        limit: RunLimit::sim_time(SimDuration::from_mins(30)),
    }
}

#[test]
fn merged_stats_are_identical_for_every_worker_count() {
    const DEVICES: u64 = 192;
    let mut baseline: Option<FleetStats> = None;
    for workers in [1usize, 2, 4, 8] {
        // A small chunk forces many cursor claims, so higher worker
        // counts genuinely interleave instead of one worker draining
        // everything before the others start.
        let cfg = FleetConfig {
            chunk: 8,
            ..FleetConfig::new(DEVICES, workers, 0xF1EE7)
        };
        let stats = run_fleet(&cfg, tiny_fleet_device);
        assert_eq!(stats.devices, DEVICES);
        assert!(stats.events > 0, "fleet delivered no events");
        match &baseline {
            None => baseline = Some(stats),
            Some(b) => assert_eq!(
                &stats, b,
                "{workers} workers diverged from the 1-worker aggregate"
            ),
        }
    }
    let b = baseline.expect("at least one sweep ran");
    assert!(b.reboots > 0, "stochastic supplies produced no reboots");
}

/// A device whose `send` always overruns its 1 ms `maxDuration`, so
/// every attempt ends in a violation and a `restartTask` — hundreds of
/// violations in one second of simulated time. `trace_cap` bounds the
/// trace (`None`: unbounded).
fn overrunning_device(trace_cap: Option<usize>) -> FleetDevice {
    let mut b = AppGraphBuilder::new();
    let sense = b.task("sense");
    let send = b.task("send");
    b.path(&[sense, send]);
    let app = b.build().expect("graph is valid");
    let suite = artemis_ir::compile("send: { maxDuration: 1ms onFail: restartTask; }", &app)
        .expect("spec compiles");
    let mut rb = ArtemisRuntimeBuilder::new(app);
    rb.body("sense", |ctx| ctx.compute(1_000));
    rb.body("send", |ctx| ctx.compute(2_000));
    let builder = DeviceBuilder::msp430fr5994();
    let mut dev = match trace_cap {
        Some(cap) => builder.trace_bounded(cap),
        None => builder,
    }
    .build();
    let rt = rb.install(&mut dev, suite).expect("workload installs");
    FleetDevice {
        dev,
        rt,
        limit: RunLimit::sim_time(SimDuration::from_secs(1)),
    }
}

/// Per-monitor violation counts come from the runtime's own counter:
/// equal to the `Violation` records of an unbounded trace, and
/// unchanged when the trace is bounded to 8 records and wraps.
#[test]
fn violation_counts_survive_a_wrapping_trace() {
    let traced = |fd: &FleetDevice| {
        let mut counts = vec![0u64; fd.rt.engine().machine_count()];
        for r in fd.dev.trace().records() {
            if let TraceEvent::Violation { monitor, .. } = r.event {
                counts[monitor as usize] += 1;
            }
        }
        counts
    };

    let mut full = overrunning_device(None);
    full.rt.run_once(&mut full.dev, full.limit);
    let counts = full.rt.violations().to_vec();
    assert!(counts[0] > 100, "too few violations: {counts:?}");
    assert_eq!(counts, traced(&full));

    let mut bounded = overrunning_device(Some(8));
    bounded.rt.run_once(&mut bounded.dev, bounded.limit);
    assert_eq!(bounded.rt.violations(), counts);
    assert!(
        traced(&bounded)[0] < counts[0],
        "the bounded trace must have dropped violation records"
    );
    assert_eq!(overrunning_device(Some(8)).run().violations, counts);
}

#[test]
fn consecutive_runs_are_identical() {
    let cfg = FleetConfig::new(96, 4, 7);
    let first = run_fleet(&cfg, tiny_fleet_device);
    let second = run_fleet(&cfg, tiny_fleet_device);
    assert_eq!(first, second);
}

#[test]
fn different_fleet_seeds_differ() {
    let a = run_fleet(&FleetConfig::new(64, 2, 1), tiny_fleet_device);
    let b = run_fleet(&FleetConfig::new(64, 2, 2), tiny_fleet_device);
    assert_ne!(a, b, "distinct fleet seeds produced identical aggregates");
}

#[test]
fn shards_partition_the_fleet() {
    let cfg = FleetConfig {
        chunk: 8,
        ..FleetConfig::new(100, 4, 3)
    };
    let shards = run_shards(&cfg, &tiny_fleet_device);
    assert_eq!(shards.len(), 4);
    assert_eq!(shards.iter().map(|s| s.devices).sum::<u64>(), 100);
    // Merging the shards in any order gives the run_fleet total.
    let mut fwd = FleetStats::default();
    for s in &shards {
        fwd.merge(s);
    }
    let mut rev = FleetStats::default();
    for s in shards.iter().rev() {
        rev.merge(s);
    }
    assert_eq!(fwd, rev);
    assert_eq!(fwd, run_fleet(&cfg, tiny_fleet_device));
}

/// An arbitrary `FleetStats` built from raw generated counters —
/// including near-`u64::MAX` values, so the proptest also covers the
/// saturating range where wrapping addition would lose associativity.
fn stats_from(seed: u64) -> FleetStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let wild = |r: &mut StdRng| {
        if r.random_bool(0.1) {
            u64::MAX - r.random_range(0..=4u64)
        } else {
            r.random_range(0..=1u64 << 40)
        }
    };
    let mut s = FleetStats {
        devices: wild(&mut rng),
        completed: wild(&mut rng),
        dnf: wild(&mut rng),
        events: wild(&mut rng),
        reboots: wild(&mut rng),
        violations_total: wild(&mut rng),
        violations: (0..rng.random_range(0..=6usize))
            .map(|_| wild(&mut rng))
            .collect(),
        sim_micros: wild(&mut rng),
        ..FleetStats::default()
    };
    for b in s.reboot_hist.iter_mut() {
        *b = wild(&mut rng);
    }
    for b in s.energy_hist.iter_mut() {
        *b = wild(&mut rng);
    }
    s
}

fn merged(into: &FleetStats, from: &FleetStats) -> FleetStats {
    let mut out = into.clone();
    out.merge(from);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// merge is commutative: a ∪ b == b ∪ a.
    #[test]
    fn merge_is_commutative(sa in 0..u64::MAX / 2, sb in 0..u64::MAX / 2) {
        let (a, b) = (stats_from(sa), stats_from(sb));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    #[test]
    fn merge_is_associative(
        sa in 0..u64::MAX / 2,
        sb in 0..u64::MAX / 2,
        sc in 0..u64::MAX / 2,
    ) {
        let (a, b, c) = (stats_from(sa), stats_from(sb), stats_from(sc));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    /// The identity element is the empty stats value.
    #[test]
    fn merge_identity(sa in 0..u64::MAX / 2) {
        let a = stats_from(sa);
        prop_assert_eq!(merged(&a, &FleetStats::default()), a.clone());
        prop_assert_eq!(merged(&FleetStats::default(), &a), a);
    }
}

/// Folding samples one by one must agree with folding shard-wise: the
/// precise property the worker pool relies on when chunks land on
/// different workers.
#[test]
fn record_then_merge_equals_merge_then_record() {
    let samples: Vec<DeviceSample> = (0..16)
        .map(|i| DeviceSample {
            completed: i % 3 != 0,
            events: i * 7,
            reboots: i % 5,
            consumed_micro_joules: i * i * 31,
            sim_micros: i * 1_000,
            violations: vec![i % 2, i % 4],
        })
        .collect();
    let mut all = FleetStats::default();
    for s in &samples {
        all.record(s);
    }
    let (left, right) = samples.split_at(5);
    let mut a = FleetStats::default();
    for s in left {
        a.record(s);
    }
    let mut b = FleetStats::default();
    for s in right {
        b.record(s);
    }
    a.merge(&b);
    assert_eq!(a, all);
}
