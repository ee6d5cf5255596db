//! Collective task-layer suite: rank-level workloads (all-to-all,
//! all-reduce, barriers, neighbour sweeps) executed on the packet engine,
//! each as a one-job set on an idle network (offered load 0).
//!
//! Extends every correctness contract of the simulator to the task layer:
//!
//! 1. **Completion** — every collective completes under every contention
//!    mechanism, reporting an application completion time, a per-step
//!    timeline and rank stall cycles, with exact packet conservation (at
//!    load 0 the background generates nothing, so injected == delivered ==
//!    the workload's lowered packet count).
//! 2. **The pinned corpus** — `GOLDEN_COLLECTIVES` in
//!    `tests/common/golden_corpus.rs` fingerprints every workload ×
//!    routing cell. The configurations deliberately do not set a
//!    [`KernelMode`], so CI replays the table under every kernel — which
//!    must be bit-for-bit identical.
//! 3. **Cross-kernel bit-identity** — the optimized kernel is compared
//!    with the parallel kernel at 1, 2 and 4 workers on the same workloads,
//!    and with pinned fingerprints.
//! 4. **Snapshot/resume mid-collective** — a snapshot taken with sends
//!    outstanding and a partially executed script resumes bit-identically,
//!    under the same kernel and across kernels.
//! 5. **Behaviour under faults** — a router drain mid-collective delays
//!    but cannot lose traffic (completion guaranteed); a permanently
//!    failed rank stalls its peers honestly (bounded budget, no hang, no
//!    spurious completion).
//!
//! Regenerate the pinned table after an intentional semantics change with
//!
//! ```text
//! cargo test --release --test collectives -- --ignored --nocapture
//! ```
//!
//! and paste the printed constants into `tests/common/golden_corpus.rs` in
//! the same commit.
//!
//! [`KernelMode`]: contention_dragonfly::prelude::KernelMode

use contention_dragonfly::prelude::*;

#[path = "common/golden_corpus.rs"]
#[allow(dead_code)]
mod golden_corpus;

use golden_corpus::{
    collective_config, collective_fingerprint, collective_jobs, collective_routings,
    GOLDEN_COLLECTIVES,
};

// ---------------------------------------------------------------------------
// 1. completion, conservation and the application-level report
// ---------------------------------------------------------------------------

#[test]
fn every_collective_completes_under_every_mechanism() {
    for job in collective_jobs() {
        let workload = &job.workload;
        let total_packets = workload.total_packets();
        let total_steps = workload.total_steps();
        for routing in collective_routings() {
            let mut net = Network::new(collective_config(job.clone(), routing));
            net.metrics_mut().start_measurement(0);
            let done = net.run_until_jobs_complete(200_000);
            let label = format!("{} under {}", workload.label(), routing.label());
            assert!(done.is_some(), "{label} did not complete");
            let task = net.jobs().expect("job configured").engine(0);
            assert_eq!(task.total_steps(), total_steps, "{label}: step count");
            assert_eq!(
                task.steps_completed(),
                total_steps,
                "{label}: unfinished steps"
            );
            assert_eq!(
                net.metrics().delivered_packets_total(),
                total_packets,
                "{label}: an idle network must deliver exactly the lowered packets"
            );
            // the step timeline is monotone and ends at the completion cycle
            let cycles: Vec<u64> = task
                .step_completion_cycles()
                .iter()
                .map(|c| c.expect("every step completed"))
                .collect();
            assert!(
                cycles.windows(2).all(|w| w[0] <= w[1]),
                "{label}: step completion cycles must be monotone"
            );
            assert_eq!(
                cycles.last().copied(),
                done,
                "{label}: the last step completes at the application completion time"
            );
            // messages traverse a real network: some rank must have waited
            assert!(
                task.stall_cycles().iter().sum::<u64>() > 0,
                "{label}: rank stalls cannot all be zero"
            );
            assert!(
                net.metrics().window_summary().avg_packet_latency > 0.0,
                "{label}: latency"
            );
        }
    }
}

#[test]
fn a_job_set_at_load_zero_generates_exactly_its_job_packets() {
    let job = JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllToAll, 8, 2),
        JobPlacement::group_spread(0),
    );
    let total = job.workload.total_packets();
    let cfg = collective_config(job, RoutingKind::Base);
    assert_eq!(cfg.offered_load, 0.0);
    let mut net = Network::new(cfg);
    net.run_until_jobs_complete(200_000)
        .expect("all-to-all completes");
    // the background injectors ran every cycle but, at load 0, never fired:
    // only the lowered job packets exist, with consecutive ids from 0
    assert_eq!(net.injected_packets_total(), total);
    assert_eq!(net.metrics().delivered_packets_total(), total);
    assert_eq!(net.in_flight(), 0);
    let jobs = net.jobs().expect("job configured");
    assert_eq!(jobs.pending_packets(), 0);
    let task = jobs.engine(0);
    assert_eq!(
        net.metrics().task_steps_completed(),
        task.total_steps() as u64
    );
    assert_eq!(
        net.metrics().rank_stall_cycles(),
        task.stall_cycles().iter().sum::<u64>()
    );
}

#[test]
fn collective_jobs_ride_the_scenario_matrix_at_zero_load() {
    let job = JobSpec::new(
        TaskWorkload::single(CollectiveKind::Barrier, 8, 1),
        JobPlacement::block(0),
    );
    let scenario = Scenario::named("barrier-x8")
        .hold(PatternKind::Uniform)
        .job(job.clone());
    let base = collective_config(job.clone(), RoutingKind::Base);
    let matrix = ScenarioMatrix {
        scenarios: vec![scenario],
        loads: vec![0.0],
        routings: vec![RoutingKind::Base, RoutingKind::Ectn],
        ..ScenarioMatrix::new(base)
    };
    let cells = matrix.cells();
    assert_eq!(cells.len(), 2);
    for (key, cfg) in cells {
        assert_eq!(cfg.jobs, vec![job.clone()], "cell {key:?} lost the job");
        assert_eq!(cfg.offered_load, 0.0, "cell {key:?}: idle background");
        cfg.validate().expect("matrix cells stay valid");
    }
}

// ---------------------------------------------------------------------------
// 2. the pinned corpus
// ---------------------------------------------------------------------------

#[test]
fn golden_collective_corpus() {
    let mut expected = GOLDEN_COLLECTIVES.iter();
    for job in collective_jobs() {
        let workload = &job.workload;
        for routing in collective_routings() {
            let cfg = collective_config(job.clone(), routing);
            let got = collective_fingerprint(cfg);
            let &(ew, er, done, delivered, stalls, lat) =
                expected.next().expect("one row per workload x routing");
            assert_eq!(
                (ew, er),
                (workload.label().as_str(), routing.label()),
                "table order drifted"
            );
            assert_eq!(
                got,
                (done, delivered, stalls, lat),
                "{} under {} diverged from the pinned corpus",
                workload.label(),
                routing.label()
            );
        }
    }
    assert!(expected.next().is_none(), "stale rows in the pinned table");
}

/// Regeneration helper (see the module docs).
#[test]
#[ignore = "regenerates the pinned collective corpus"]
fn regenerate_collective_corpus() {
    println!("pub const GOLDEN_COLLECTIVES: &[(&str, &str, u64, u64, u64, u64)] = &[");
    println!(
        "    // (workload, routing, completion_cycle, delivered, rank_stall_cycles, latency_bits)"
    );
    for job in collective_jobs() {
        for routing in collective_routings() {
            let cfg = collective_config(job.clone(), routing);
            let (done, delivered, stalls, lat) = collective_fingerprint(cfg);
            println!(
                "    ({:?}, {:?}, {done}, {delivered}, {stalls}, {lat:#018X}),",
                job.workload.label(),
                routing.label()
            );
        }
    }
    println!("];");
}

// ---------------------------------------------------------------------------
// 3. cross-kernel bit-identity
// ---------------------------------------------------------------------------

/// `(workload, routing, completion, delivered, stalls, latency bits)` of the
/// optimized runs below, pinned while a second, heap-queue/full-scan kernel
/// still reproduced them bit for bit.
#[rustfmt::skip]
const PINNED_CROSS_KERNEL: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("all-to-allx8", "Base", 389, 112, 2964, 0x4048800000000000),
    ("all-to-allx8", "PB", 620, 112, 4764, 0x404E9B6DB6DB6DB9),
    ("all-reduce-ringx8", "Base", 434, 224, 3248, 0x4035000000000003),
    ("all-reduce-ringx8", "PB", 434, 224, 3248, 0x4035000000000003),
    ("all-reduce-rdx12", "Base", 297, 64, 2976, 0x4042E60000000000),
    ("all-reduce-rdx12", "PB", 310, 64, 3092, 0x4043240000000000),
];

#[test]
fn collectives_are_bit_identical_across_kernels() {
    let kernels = [
        KernelMode::Parallel { workers: 1 },
        KernelMode::Parallel { workers: 2 },
        KernelMode::Parallel { workers: 4 },
    ];
    let mut expected = PINNED_CROSS_KERNEL.iter();
    for job in [
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 8, 2),
            JobPlacement::group_spread(0),
        ),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
            JobPlacement::block(0),
        ),
        JobSpec::new(
            TaskWorkload::single(
                CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
                12,
                2,
            ),
            JobPlacement::block(0),
        ),
    ] {
        let workload = &job.workload;
        for routing in [RoutingKind::Base, RoutingKind::PiggyBacking] {
            let mut cfg = collective_config(job.clone(), routing);
            cfg.kernel = KernelMode::Optimized;
            let reference = collective_fingerprint(cfg.clone());
            let &(ew, er, ed, edel, es, el) = expected.next().expect("one row per cell");
            assert_eq!((ew, er), (workload.label().as_str(), routing.label()));
            assert_eq!(
                reference,
                (ed, edel, es, el),
                "{ew} under {er}: diverged from the pin"
            );
            for kernel in kernels {
                let mut k = cfg.clone();
                k.kernel = kernel;
                assert_eq!(
                    collective_fingerprint(k),
                    reference,
                    "{} under {} diverged on {kernel:?}",
                    workload.label(),
                    routing.label()
                );
            }
        }
    }
    assert!(expected.next().is_none(), "stale rows");
}

// ---------------------------------------------------------------------------
// 4. snapshot / resume mid-collective
// ---------------------------------------------------------------------------

#[test]
fn snapshot_mid_collective_resumes_bit_identically() {
    let job = JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
        JobPlacement::group_spread(0),
    );
    let cfg = collective_config(job, RoutingKind::PiggyBacking);

    // uninterrupted reference
    let mut reference = Network::new(cfg.clone());
    reference.metrics_mut().start_measurement(0);
    let done = reference
        .run_until_jobs_complete(200_000)
        .expect("reference completes");

    // interrupted run: snapshot halfway, with the script partially executed
    let mut first = Network::new(cfg.clone());
    first.metrics_mut().start_measurement(0);
    first.run_cycles(done / 2);
    let jobs = first.jobs().expect("job configured");
    assert!(
        jobs.pending_packets() > 0 && !jobs.is_complete(),
        "checkpoint must land mid-collective for this test to bite"
    );
    let bytes = first.snapshot();
    drop(first);

    let mut resumed = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    let resumed_done = resumed
        .run_until_jobs_complete(200_000)
        .expect("resumed run completes");
    assert_eq!(resumed_done, done, "completion cycle must match");
    assert_eq!(
        resumed.metrics().delivered_packets_total(),
        reference.metrics().delivered_packets_total()
    );
    assert_eq!(
        resumed.jobs().unwrap().engine(0).stall_cycles(),
        reference.jobs().unwrap().engine(0).stall_cycles(),
        "per-rank stall totals must match"
    );
    assert_eq!(
        resumed.metrics().window_summary().avg_packet_latency,
        reference.metrics().window_summary().avg_packet_latency
    );
    // restore followed by snapshot reproduces the bytes exactly
    let restored = Network::restore(cfg.clone(), &bytes).expect("snapshot restores");
    assert_eq!(restored.snapshot(), bytes);

    // kernel portability: finish the same snapshot on two workers, and
    // re-snapshot it there byte-identically
    let mut k = cfg.clone();
    k.kernel = KernelMode::Parallel { workers: 2 };
    let mut n = Network::restore(k, &bytes).expect("snapshot restores at any worker count");
    assert_eq!(n.snapshot(), bytes);
    assert_eq!(
        n.run_until_jobs_complete(200_000),
        Some(done),
        "parallel(2) resumed to a different completion cycle"
    );
    assert_eq!(
        n.metrics().delivered_packets_total(),
        reference.metrics().delivered_packets_total()
    );
}

// ---------------------------------------------------------------------------
// 5. behaviour under faults
// ---------------------------------------------------------------------------

#[test]
fn router_drain_mid_collective_delays_but_completes() {
    let job = JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllToAll, 8, 2),
        JobPlacement::group_spread(0),
    );
    for routing in [RoutingKind::Base, RoutingKind::Ectn] {
        let healthy = run_job_set(collective_config(job.clone(), routing), 200_000);
        let done = healthy.makespan.expect("healthy run completes");

        // drain router 0 (hosting ranks) through the middle of the run: its
        // nodes pause, nothing is lost, and the collective finishes late
        let mut cfg = collective_config(job.clone(), routing);
        cfg.faults = FaultPlan::new()
            .router_drain(done / 4, RouterId(0))
            .router_restore(done + 50, RouterId(0));
        cfg.validate().expect("fault plan is valid");
        let faulted = run_job_set(cfg, 400_000);
        assert!(
            faulted.all_completed,
            "a drain cannot lose task packets, so the collective must finish ({})",
            routing.label()
        );
        assert!(
            faulted.makespan.unwrap() > done,
            "pausing rank hosts must delay completion ({})",
            routing.label()
        );
        assert_eq!(faulted.delivered_packets, healthy.delivered_packets);
        assert!(
            faulted.jobs[0].total_stall_cycles >= healthy.jobs[0].total_stall_cycles,
            "peers wait for the drained ranks ({})",
            routing.label()
        );
    }
}

#[test]
fn failed_rank_stalls_peers_without_hanging_or_lying() {
    // permanently fail rank 3's node before it can run: the collective can
    // never finish, the budgeted runner must say so, and progress must be
    // exactly the steps that don't depend on the dead rank
    let job = JobSpec::new(
        TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 8, 2),
        JobPlacement::block(0),
    );
    let mut cfg = collective_config(job, RoutingKind::Base);
    // block placement: rank 3 lives on node 3
    cfg.faults = FaultPlan::new().node_fail(10, NodeId(3), NodeId(70));
    cfg.validate().expect("fault plan is valid");
    let mut net = Network::new(cfg);
    assert_eq!(
        net.run_until_jobs_complete(20_000),
        None,
        "a dead rank must not complete"
    );
    let task = net.jobs().expect("job configured").engine(0);
    assert!(!task.is_complete());
    assert!(
        task.steps_completed() < task.total_steps(),
        "some steps must remain incomplete"
    );
    // live neighbours piled up stall cycles waiting on the dead rank
    assert!(net.metrics().rank_stall_cycles() > 0);
}
