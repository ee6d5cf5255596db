//! One mechanism run of a workload: set up, warm up, measure the window,
//! check the outputs.

use std::time::Instant;

use df_engine::Histogram;
use df_routing::RoutingKind;
use df_sim::{Network, SimulationConfig};

use crate::calibrate::Timebase;
use crate::layers::Probe;
use crate::trace::Tracer;
use crate::workload::{Window, Workload};

/// Largest relative gap allowed between the accepted load of the first and
/// the second half of an open-loop window.
const STEADY_TOLERANCE: f64 = 0.05;
/// The steady-state halves are whole multiples of this many cycles (two
/// ECtN update periods, one period of its oscillation), so neither a
/// periodic control plane nor the quota ending the window mid-burst biases
/// them. Windows shorter than four blocks are split exactly in half.
const STEADY_BLOCK: usize = 200;
/// Slack on "accepted load is no higher than offered load": a window may
/// deliver packets generated before it opened, and Bernoulli injection
/// fluctuates around its mean.
const OFFERED_SLACK: f64 = 0.03;

/// One named output check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// What one measured window produced.
pub struct WindowResult {
    /// Simulated cycles in the window.
    pub cycles: u64,
    /// Job-set makespan (closed loop) or window cycles (open loop).
    pub completion_cycles: u64,
    /// Whether the window finished its work (quota delivered / jobs done).
    pub finished: bool,
    pub delivered_phits: u64,
    pub delivered_packets: u64,
    pub generated_phits: u64,
    pub latency_mean: f64,
    pub latency_p99: f64,
    pub latency_hist: Histogram,
    pub global_misroute_frac: f64,
    /// Delivered phits per cycle in the first and second half of the window.
    pub halves: (f64, f64),
    /// Host nanoseconds of each `Network::step` in the window.
    pub step_ns: Vec<u64>,
    /// Host seconds of the whole window, probes included.
    pub seconds: f64,
    /// Calibrated seconds of the window's steps.
    pub step_s: f64,
    /// Calibrated seconds the traced run's probe spent between steps.
    pub probe_s: f64,
}

impl WindowResult {
    /// The simulated outcome, bit for bit: delivered phits, latency bits
    /// and makespan. Equal fingerprints mean equal simulated statistics.
    pub fn fingerprint(&self) -> String {
        format!(
            "phits={};lat={:016x};p99={:016x};cycles={}",
            self.delivered_phits,
            self.latency_mean.to_bits(),
            self.latency_p99.to_bits(),
            self.completion_cycles
        )
    }
}

/// Everything one mechanism run reports.
pub struct MechanismRun {
    pub routing: RoutingKind,
    pub config: SimulationConfig,
    /// Calibrated seconds of each set-up (config build plus `Network::new`).
    pub setup_s: Vec<f64>,
    /// Calibrated seconds of each `Network::new` alone.
    pub new_s: Vec<f64>,
    /// Calibrated seconds of each topology build (traced run only).
    pub topology_s: Vec<f64>,
    /// Calibrated seconds of the warm-up.
    pub warmup_s: f64,
    pub window: WindowResult,
    /// Calibrated seconds of the first window's steps and of every repeat's.
    pub window_s: Vec<f64>,
    /// Host seconds spent in all those windows.
    pub host_window_s: f64,
    pub checks: Vec<Check>,
    /// `Network::snapshot()` length at the end of the window.
    pub state_bytes: usize,
    pub rank_stall_cycles: u64,
    pub task_steps: u64,
    /// State at the start of the window, for timing repeats.
    resume: Vec<u8>,
}

impl MechanismRun {
    pub fn failed(&self) -> bool {
        self.checks.iter().any(|c| !c.ok)
    }

    /// Re-run the window from the saved start state with tracing off and
    /// record its host time. The repeat must reproduce the first window
    /// exactly; a mismatch is a failed check.
    pub fn repeat_window(&mut self, workload: &Workload, tb: &mut Timebase) {
        let mut net = Network::restore(self.config.clone(), &self.resume)
            .expect("a snapshot taken in this process restores");
        let mut off = Tracer::new(false);
        let again = run_window(&mut net, workload, tb, &mut off, None);
        self.window_s.push(again.step_s);
        self.host_window_s += again.seconds;
        let same = again.fingerprint() == self.window.fingerprint();
        let detail = format!("{} vs {}", again.fingerprint(), self.window.fingerprint());
        match self
            .checks
            .iter_mut()
            .find(|c| c.name == "repeat_identical")
        {
            Some(check) if check.ok && !same => {
                *check = Check::new("repeat_identical", false, detail)
            }
            Some(_) => {}
            None => self
                .checks
                .push(Check::new("repeat_identical", same, detail)),
        }
    }
}

/// Build the config and the network once, timing both.
fn set_up(workload: &Workload, routing: RoutingKind, seed: u64) -> (Network, f64, f64) {
    let t0 = Instant::now();
    let config = workload.config(routing, seed);
    let t1 = Instant::now();
    let net = Network::new(config);
    let t2 = Instant::now();
    let new_s = (t2 - t1).as_secs_f64();
    (net, (t2 - t0).as_secs_f64(), new_s)
}

/// Run one mechanism of `workload`: repeated set-ups (the last one is kept),
/// warm-up, the measured window and the output checks.
pub fn run_mechanism(
    workload: &Workload,
    routing: RoutingKind,
    seed: u64,
    tb: &mut Timebase,
    tracer: &mut Tracer,
    mut probe: Option<&mut Probe>,
) -> MechanismRun {
    let run_span = tracer.begin("run");
    let mut setup_s = Vec::new();
    let mut new_s = Vec::new();
    let mut topology_s = Vec::new();
    for _ in 1..workload.setups {
        tb.refresh();
        let span = tracer.begin("sim.setup");
        let (net, s, n) = set_up(workload, routing, seed);
        tracer.end(span, 1);
        setup_s.push(tb.scale(s));
        new_s.push(tb.scale(n));
        drop(net);
        if tracer.enabled() {
            let config = workload.config(routing, seed);
            let span = tracer.begin("topology.build");
            let t = Instant::now();
            std::hint::black_box(config.topology.build());
            topology_s.push(tb.scale(t.elapsed().as_secs_f64()));
            tracer.end(span, 1);
        }
    }
    tb.refresh();
    let span = tracer.begin("sim.setup");
    let (mut net, s, n) = set_up(workload, routing, seed);
    tracer.end(span, 1);
    setup_s.push(tb.scale(s));
    new_s.push(tb.scale(n));
    let config = net.config().clone();

    let span = tracer.begin("warmup");
    let mut warmup_s = 0.0;
    for _ in 0..workload.warmup() {
        tb.refresh();
        let t = Instant::now();
        net.step();
        warmup_s += tb.scale(t.elapsed().as_secs_f64());
    }
    tracer.end(span, workload.warmup());
    let start = net.cycle();
    net.metrics_mut().start_measurement(start);
    let resume = net.snapshot();

    if let Some(p) = probe.as_deref_mut() {
        p.begin_run(&net, routing, seed);
    }
    let window = run_window(&mut net, workload, tb, tracer, probe);

    let span = tracer.begin("checks");
    let (checks, state_bytes) = check_outputs(&net, workload, &window);
    tracer.end(span, checks.len() as u64);
    tracer.end(run_span, window.cycles);
    MechanismRun {
        routing,
        config,
        setup_s,
        new_s,
        topology_s,
        warmup_s,
        window_s: vec![window.step_s],
        host_window_s: window.seconds,
        checks,
        state_bytes,
        rank_stall_cycles: net.metrics().rank_stall_cycles(),
        task_steps: net.metrics().task_steps_completed(),
        window,
        resume,
    }
}

/// Step the network through one measured window.
fn run_window(
    net: &mut Network,
    workload: &Workload,
    tb: &mut Timebase,
    tracer: &mut Tracer,
    mut probe: Option<&mut Probe>,
) -> WindowResult {
    let start_cycle = net.cycle();
    let start_delivered = net.metrics().delivered_phits_total();
    let start_generated = net.metrics().generated_phits_total;
    let mut delivered_after = Vec::new();
    let mut step_ns = Vec::new();
    let mut step_s = 0.0;
    let mut probe_s = 0.0;
    let span = tracer.begin("window");
    let t0 = Instant::now();
    let finished = loop {
        let cycles = net.cycle() - start_cycle;
        let delivered = net.metrics().delivered_phits_total() - start_delivered;
        match workload.window {
            Window::Open { quota_phits, .. } => {
                if delivered >= quota_phits {
                    break true;
                }
                // far beyond any healthy window: the network stopped delivering
                if cycles >= 50 * quota_phits / workload.num_nodes() as u64 {
                    break false;
                }
            }
            Window::Jobs { budget } => {
                if net.jobs().and_then(|j| j.completion_cycle()).is_some() {
                    break true;
                }
                if cycles >= budget {
                    break false;
                }
            }
        }
        tb.refresh();
        let step = tracer.begin("sim.step");
        let ts = Instant::now();
        net.step();
        let ns = ts.elapsed().as_nanos() as u64;
        tracer.end(step, 1);
        step_ns.push(ns);
        step_s += tb.scale(ns as f64 / 1e9);
        delivered_after.push(net.metrics().delivered_phits_total() - start_delivered);
        if let Some(p) = probe.as_deref_mut() {
            let t = Instant::now();
            p.after_step(net, tracer, ns);
            probe_s += tb.scale(t.elapsed().as_secs_f64());
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    let cycles = net.cycle() - start_cycle;
    tracer.end(span, cycles);

    let block = if delivered_after.len() >= 4 * STEADY_BLOCK {
        STEADY_BLOCK
    } else {
        1
    };
    let half = delivered_after.len() / block / 2 * block;
    let at = |cycles: usize| {
        if cycles == 0 {
            0
        } else {
            delivered_after[cycles - 1]
        }
    };
    let rate = |from: usize, to: usize| (at(to) - at(from)) as f64 / (to - from).max(1) as f64;
    let halves = (rate(0, half), rate(half, 2 * half));
    let completion_cycles = match workload.window {
        Window::Open { .. } => cycles,
        Window::Jobs { .. } => net
            .jobs()
            .and_then(|j| j.completion_cycle())
            .unwrap_or(cycles),
    };
    let summary = net.metrics().window_summary();
    WindowResult {
        cycles,
        completion_cycles,
        finished,
        delivered_phits: summary.delivered_phits,
        delivered_packets: summary.delivered_packets,
        generated_phits: net.metrics().generated_phits_total - start_generated,
        latency_mean: summary.avg_packet_latency,
        latency_p99: summary.p99_latency,
        latency_hist: net.metrics().latency_histogram().clone(),
        global_misroute_frac: summary.global_misroute_fraction,
        halves,
        step_ns,
        seconds,
        step_s,
        probe_s,
    }
}

/// The output checks of one mechanism run, plus the end-of-window snapshot
/// length.
fn check_outputs(net: &Network, workload: &Workload, w: &WindowResult) -> (Vec<Check>, usize) {
    let mut checks = Vec::new();
    let m = net.metrics();

    // packet conservation, in phits: everything generated is delivered,
    // in flight, dropped, or still waiting in a source queue
    let packet_phits = net.config().network.packet_size_phits as u64;
    let queued_phits: u64 = (0..workload.num_nodes())
        .map(|n| net.node(df_topology::NodeId(n)).queue_len() as u64 * packet_phits)
        .sum();
    let generated = m.generated_phits_total;
    let accounted = m.delivered_phits_total()
        + net.in_flight_phits()
        + m.dropped_on_fault_phits()
        + queued_phits;
    checks.push(Check::new(
        "conservation",
        generated == accounted,
        format!(
            "generated {generated} = delivered {} + in flight {} + dropped {} + queued {queued_phits}",
            m.delivered_phits_total(),
            net.in_flight_phits(),
            m.dropped_on_fault_phits()
        ),
    ));

    let nodes = workload.num_nodes() as f64;
    let accepted = w.delivered_phits as f64 / (nodes * w.cycles.max(1) as f64);
    match workload.window {
        Window::Open { .. } => {
            let offered = workload.offered_load();
            checks.push(Check::new(
                "accepted_le_offered",
                accepted <= offered * (1.0 + OFFERED_SLACK),
                format!("accepted {accepted:.4} vs offered {offered}"),
            ));
            checks.push(Check::new(
                "window_complete",
                w.finished,
                format!("{} phits in {} cycles", w.delivered_phits, w.cycles),
            ));
            let (first, second) = w.halves;
            let gap = (first - second).abs() / first.max(second).max(f64::MIN_POSITIVE);
            checks.push(Check::new(
                "steady_state",
                gap <= STEADY_TOLERANCE,
                format!("halves {first:.1} / {second:.1} phits/cycle, gap {gap:.4}"),
            ));
        }
        Window::Jobs { budget } => {
            // a closed loop's offered load is what it generated
            let generated_load = w.generated_phits as f64 / (nodes * w.cycles.max(1) as f64);
            checks.push(Check::new(
                "accepted_le_offered",
                w.delivered_phits <= m.generated_phits_total,
                format!("accepted {accepted:.4} vs generated {generated_load:.4}"),
            ));
            checks.push(Check::new(
                "jobs_complete",
                w.finished,
                format!("makespan {} within budget {budget}", w.completion_cycles),
            ));
        }
    }

    checks.push(Check::new(
        "latency_samples",
        w.delivered_packets > 0 && !w.latency_p99.is_nan(),
        format!("{} packets, p99 {}", w.delivered_packets, w.latency_p99),
    ));

    let bytes = net.snapshot();
    let round_trip = Network::restore(net.config().clone(), &bytes)
        .map(|restored| restored.snapshot() == bytes)
        .unwrap_or(false);
    checks.push(Check::new(
        "snapshot_round_trip",
        round_trip,
        format!("{} bytes", bytes.len()),
    ));
    (checks, bytes.len())
}
