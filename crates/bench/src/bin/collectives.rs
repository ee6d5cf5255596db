//! Collective-workload benchmark: application completion time, per-rank
//! stall totals and packet latency for a set of task-layer collectives
//! (all-to-all, both all-reduce algorithms, barriers, neighbor sweeps and
//! a barrier-gated sequence) under each contention/credit-based routing
//! mechanism. Each collective runs as a one-job set on an otherwise idle
//! network (offered load 0). Prints the table and writes `COLLECTIVES.csv` into the
//! working directory; every cell is seeded and deterministic, so the CSV
//! reproduces bit-for-bit on any machine (CI regenerates it and diffs
//! against the committed copy).
//!
//! Usage:
//! ```text
//! cargo run --release -p df-bench --bin collectives -- [small|medium|paper] [csv]
//! ```

use df_engine::Table;
use df_routing::RoutingKind;
use df_sim::{run_job_set, SimulationConfig};
use df_traffic::{
    AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, PatternKind, TaskWorkload,
};

/// The workload mix: every collective kind, both all-reduce algorithms,
/// both placements, and a barrier-gated sequence. Rank counts stay valid
/// on every scale (the smallest topology has 72 nodes).
fn jobs() -> Vec<JobSpec> {
    let spread = JobPlacement::group_spread(0);
    let block = JobPlacement::block(0);
    vec![
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllToAll, 16, 2),
            spread,
        ),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::AllReduce(AllReduceAlgorithm::Ring), 16, 2),
            block,
        ),
        JobSpec::new(
            TaskWorkload::single(
                CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
                16,
                2,
            ),
            spread,
        ),
        JobSpec::new(TaskWorkload::single(CollectiveKind::Barrier, 32, 1), spread),
        JobSpec::new(
            TaskWorkload::single(CollectiveKind::SweepNeighbors, 16, 4),
            block,
        ),
        JobSpec::new(
            TaskWorkload {
                ranks: 16,
                sequence: vec![
                    CollectiveKind::Barrier,
                    CollectiveKind::AllReduce(AllReduceAlgorithm::RecursiveDoubling),
                ],
                packets_per_message: 2,
            },
            spread,
        ),
    ]
}

const ROUTINGS: [RoutingKind; 4] = [
    RoutingKind::Base,
    RoutingKind::PiggyBacking,
    RoutingKind::Ectn,
    RoutingKind::Olm,
];

fn main() {
    let scale = df_bench::Scale::from_args_with_flags(df_bench::Scale::small(), &["csv"]);
    let csv_stdout = std::env::args().any(|a| a == "csv");

    let mut table = Table::new(
        format!(
            "Collective workloads — application completion time ({} scale)",
            scale.name
        ),
        &[
            "workload",
            "routing",
            "ranks",
            "steps",
            "completion_cycle",
            "delivered_packets",
            "total_stall_cycles",
            "max_rank_stall",
            "mean_rank_stall",
            "avg_packet_latency",
        ],
    );
    for job in jobs() {
        let workload = &job.workload;
        for routing in ROUTINGS {
            let config = SimulationConfig::builder()
                .topology(scale.topology)
                .network(scale.network)
                .routing(routing)
                .pattern(PatternKind::Uniform)
                .offered_load(0.0)
                .warmup_cycles(200)
                .measurement_cycles(400)
                .seed(11)
                .job(job.clone())
                .build()
                .expect("valid collective configuration");
            let report = run_job_set(config, 2_000_000);
            let run = &report.jobs[0];
            assert!(
                run.completed,
                "{} under {} must complete within the cycle budget",
                workload.label(),
                routing.label()
            );
            table.push_row(vec![
                workload.label(),
                routing.label().to_string(),
                workload.ranks.to_string(),
                workload.total_steps().to_string(),
                run.completion_cycle.expect("completed").to_string(),
                report.delivered_packets.to_string(),
                run.total_stall_cycles.to_string(),
                run.max_rank_stall_cycles.to_string(),
                format!("{:.2}", run.mean_rank_stall_cycles),
                format!("{:.3}", report.avg_packet_latency),
            ]);
        }
    }

    if csv_stdout {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.to_text());
    }
    std::fs::write("COLLECTIVES.csv", table.to_csv()).expect("write COLLECTIVES.csv");
    eprintln!("wrote COLLECTIVES.csv");
}
