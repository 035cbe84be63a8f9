//! Stress test of the Figure-4 reconfiguration protocol: repeated
//! reconfigurations at randomized times while collectives are in flight,
//! across many seeds. The safety properties under test:
//!
//! 1. every collective completes (no reconfiguration deadlock),
//! 2. every sequence number executes under the SAME epoch on every rank,
//! 3. epochs are monotone non-decreasing in sequence order,
//! 4. every issued reconfiguration is eventually applied.

mod common;

use common::{allreduce, testbed};
use mccs_collectives::RingOrder;
use mccs_core::config::RouteMap;
use mccs_core::Tenant;
use mccs_ipc::{AppId, CommunicatorId};
use mccs_sim::{Bytes, Nanos, Rng};
use mccs_topology::GpuId;

#[test]
fn repeated_reconfigurations_are_safe_across_seeds() {
    for seed in 0..8u64 {
        let mut rng = Rng::seed_from(seed);
        let comm = CommunicatorId(1);
        let gpus = [GpuId(0), GpuId(2), GpuId(4), GpuId(6)];
        let iters = 20;
        let stress = allreduce("stress", comm, &gpus, Bytes::mib(16), iters);
        let mut cluster = testbed(1000 + seed, vec![stress]).build();

        // Issue 3-5 reconfigurations at random times while the workload
        // runs, alternating ring direction (sometimes while a previous
        // drain may still be settling — delivery jitter does the rest).
        let reconfigs = 3 + (rng.below(3) as usize);
        let mut t = Nanos::from_millis(5);
        for _ in 0..reconfigs {
            t += Nanos::from_micros(rng.range(3_000, 25_000));
            cluster.run_until(t);
            let info = cluster.mgmt().communicator(comm).expect("registered");
            let flipped: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
            cluster.mgmt().reconfigure(comm, flipped, RouteMap::ecmp());
            // Let the barrier settle before the next request (the protocol
            // forbids overlapping reconfigurations per communicator).
            t += Nanos::from_millis(30);
            cluster.run_until(t);
        }
        cluster.run_until_quiescent(Nanos::from_secs(120));

        // 1. everything completed
        let tl = cluster.mgmt().timeline(AppId(0));
        assert_eq!(tl.len(), iters, "seed {seed}: collectives lost");

        // 2+3. per-seq epoch agreement and monotonicity
        let records = cluster.mgmt().trace(AppId(0));
        let mut by_seq: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for r in &records {
            assert!(r.completed_at.is_some(), "seed {seed}: incomplete record");
            by_seq.entry(r.seq).or_default().push(r.epoch);
        }
        let mut prev_epoch = 0;
        for (seq, epochs) in &by_seq {
            assert_eq!(
                epochs.len(),
                gpus.len(),
                "seed {seed}: seq {seq} missing ranks"
            );
            assert!(
                epochs.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: seq {seq} mixed epochs {epochs:?}"
            );
            assert!(
                epochs[0] >= prev_epoch,
                "seed {seed}: epoch regressed at seq {seq}"
            );
            prev_epoch = epochs[0];
        }

        // 4. all reconfigurations applied
        let info = cluster.mgmt().communicator(comm).expect("registered");
        assert_eq!(
            info.epoch, reconfigs as u64,
            "seed {seed}: not every reconfiguration was applied"
        );
    }
}

#[test]
fn reconfiguration_of_idle_communicator_applies_immediately() {
    // The barrier max over "nothing launched" is None: the new config
    // must apply without waiting for any collective.
    let comm = CommunicatorId(1);
    // Workload starts late; reconfigure while fully idle.
    let idle = Tenant {
        start: Nanos::from_millis(50),
        ..allreduce("idle", comm, &[GpuId(0), GpuId(2)], Bytes::mib(8), 1)
    };
    let mut cluster = testbed(77, vec![idle]).build();
    let app = AppId(0);

    cluster.run_until(Nanos::from_millis(5));
    let info = cluster.mgmt().communicator(comm).expect("registered");
    let flipped: Vec<RingOrder> = info.rings.iter().map(RingOrder::reversed).collect();
    cluster.mgmt().reconfigure(comm, flipped, RouteMap::ecmp());
    cluster.run_until(Nanos::from_millis(20));
    assert_eq!(
        cluster.mgmt().communicator(comm).expect("registered").epoch,
        1,
        "idle reconfiguration should apply before any collective runs"
    );
    cluster.run_until_quiescent(Nanos::from_secs(30));
    // The single collective then ran under the new epoch.
    let tl = cluster.mgmt().timeline(app);
    assert_eq!(tl.len(), 1);
    assert_eq!(tl[0].epoch, 1);
}
