//! The four benchmark workloads and the configurations they generate.
//!
//! A workload turns `(mechanism, seed)` into a [`SimulationConfig`]; the
//! simulator only ever sees that config. Every config pins the sequential
//! kernel, so a `DF_SIM_KERNEL` in the environment cannot change what is
//! measured.

use df_model::NetworkConfig;
use df_routing::RoutingKind;
use df_sim::{KernelMode, SimulationConfig};
use df_topology::DragonflyParams;
use df_traffic::{
    AllReduceAlgorithm, CollectiveKind, JobPlacement, JobSpec, PatternKind, TaskWorkload,
    TrafficSchedule,
};

/// Mechanisms every workload runs, in order.
pub const MECHANISMS: [RoutingKind; 3] = [
    RoutingKind::Base,
    RoutingKind::PiggyBacking,
    RoutingKind::Ectn,
];

/// Short label of a mechanism, used in metric names.
pub fn mechanism_label(kind: RoutingKind) -> &'static str {
    match kind {
        RoutingKind::Base => "base",
        RoutingKind::PiggyBacking => "pb",
        RoutingKind::Ectn => "ectn",
        _ => "other",
    }
}

/// How a workload's measured window ends.
#[derive(Clone, Copy)]
pub enum Window {
    /// Open loop: warm up, then measure until `quota_phits` phits have been
    /// delivered (the window is a fixed amount of delivered work).
    Open { warmup: u64, quota_phits: u64 },
    /// Closed loop: measure from cycle 0 until every job completes, or
    /// fail once `budget` cycles pass.
    Jobs { budget: u64 },
}

pub struct Workload {
    pub name: &'static str,
    topology: DragonflyParams,
    load: f64,
    /// Pattern during warm-up.
    first: PatternKind,
    /// Pattern from `switch_at` on (differs from `first` only for the
    /// uniform → adversarial switch).
    second: PatternKind,
    /// Cycle of the pattern switch, inside the warm-up so the window opens
    /// once the transient has settled.
    switch_at: u64,
    pub window: Window,
    /// Setups timed per mechanism for `setup_s` (median).
    pub setups: usize,
    /// Window cycles between two replayed samples in the traced run.
    pub sample_stride: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let medium = DragonflyParams::medium();
        let w = match name {
            "saturated-uniform" => Workload {
                name: "saturated-uniform",
                topology: medium,
                load: 0.9,
                first: PatternKind::Uniform,
                second: PatternKind::Uniform,
                switch_at: 0,
                window: Window::Open {
                    warmup: 1_200,
                    quota_phits: 150_000,
                },
                setups: 21,
                sample_stride: 25,
            },
            "paper-light" => Workload {
                name: "paper-light",
                topology: DragonflyParams::paper_table1(),
                load: 0.1,
                first: PatternKind::Uniform,
                second: PatternKind::Uniform,
                switch_at: 0,
                window: Window::Open {
                    warmup: 600,
                    quota_phits: 250_000,
                },
                setups: 3,
                sample_stride: 15,
            },
            "adversarial-shift" => Workload {
                name: "adversarial-shift",
                topology: medium,
                load: 0.4,
                first: PatternKind::Uniform,
                second: PatternKind::Adversarial { offset: 1 },
                switch_at: 300,
                window: Window::Open {
                    warmup: 1_500,
                    quota_phits: 400_000,
                },
                setups: 21,
                sample_stride: 25,
            },
            "collective-jobs" => Workload {
                name: "collective-jobs",
                topology: medium,
                load: 0.2,
                first: PatternKind::Uniform,
                second: PatternKind::Uniform,
                switch_at: 0,
                window: Window::Jobs { budget: 200_000 },
                setups: 21,
                sample_stride: 400,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn num_nodes(&self) -> u32 {
        self.topology.num_nodes()
    }

    pub fn offered_load(&self) -> f64 {
        self.load
    }

    /// The pattern in force during the measured window.
    pub fn window_pattern(&self) -> PatternKind {
        self.second
    }

    pub fn warmup(&self) -> u64 {
        match self.window {
            Window::Open { warmup, .. } => warmup,
            Window::Jobs { .. } => 0,
        }
    }

    fn jobs(&self) -> Vec<JobSpec> {
        let a2a = TaskWorkload::single(CollectiveKind::AllToAll, 64, 1);
        let mini = TaskWorkload::mini_app(256, 4, AllReduceAlgorithm::RecursiveDoubling, 2);
        vec![
            JobSpec::new(a2a, JobPlacement::group_spread(0)),
            JobSpec::new(mini, JobPlacement::group_spread(16)).with_compute_delay(50),
        ]
    }

    /// The configuration of one mechanism run.
    pub fn config(&self, routing: RoutingKind, seed: u64) -> SimulationConfig {
        let schedule = if self.first == self.second {
            TrafficSchedule::constant(self.first)
        } else {
            TrafficSchedule::switch_at(self.first, self.second, self.switch_at)
        };
        let mut config = SimulationConfig::builder()
            .topology(self.topology)
            .network(NetworkConfig::paper_table1())
            .routing(routing)
            .schedule(schedule)
            .offered_load(self.load)
            .warmup_cycles(self.warmup())
            .seed(seed)
            .kernel(KernelMode::Optimized);
        if let Window::Jobs { .. } = self.window {
            config = config.jobs(self.jobs());
        }
        config
            .build()
            .expect("benchmark workload configs are valid")
    }
}
