//! Per-layer observation for the traced run.
//!
//! The harness drives `Network::step()` itself. After every window step it
//! reads cheap counters through the network's public accessors; at sampled
//! cycles it replays the routing and allocation layers' public calls on the
//! live state: `RoutingAlgorithm::decide` with a private RNG, and
//! `Router::allocate` on a cloned router. Nothing here mutates the measured
//! network, so the traced run simulates exactly what the untraced one does.

use std::hint::black_box;
use std::time::Instant;

use df_engine::DeterministicRng;
use df_router::AllocationRequest;
use df_routing::{minimal, DecisionKind, RoutingAlgorithm, RoutingKind};
use df_sim::Network;
use df_topology::{AnyTopology, NodeId, RouterId, Topology};
use df_traffic::PatternKind;

use crate::trace::Tracer;

/// Sums over the steps and samples of one mechanism run.
#[derive(Default, Clone)]
pub struct LayerTotals {
    pub step_ns: u64,
    pub active_routers: u64,
    pub pending_events: u64,
    pub in_flight_packets: u64,
    pub task_pending_packets: u64,
    pub samples: u64,
    pub heads: u64,
    pub decide_ns: u64,
    pub minimal_output_ns: u64,
    pub nonminimal: u64,
    pub allocate_calls: u64,
    pub allocate_ns: u64,
    pub requests: u64,
    pub grants: u64,
    pub queued_packets: u64,
    pub contention_total: u64,
}

/// Observer of one mechanism run at a time.
pub struct Probe {
    stride: u64,
    algorithm: Option<RoutingAlgorithm>,
    rng: DeterministicRng,
    window_cycles: u64,
    pub current: LayerTotals,
    requests: Vec<AllocationRequest>,
}

impl Probe {
    pub fn new(stride: u64) -> Self {
        Probe {
            stride: stride.max(1),
            algorithm: None,
            rng: DeterministicRng::new(0),
            window_cycles: 0,
            current: LayerTotals::default(),
            requests: Vec::new(),
        }
    }

    /// Reset for a new mechanism run (called when its window opens).
    pub fn begin_run(&mut self, net: &Network, routing: RoutingKind, seed: u64) {
        let config = net.config();
        self.algorithm = Some(RoutingAlgorithm::new(routing, config.routing_config));
        self.rng = DeterministicRng::new(seed ^ 0x7265_706c_6179);
        self.window_cycles = 0;
        self.current = LayerTotals::default();
    }

    /// Counters after one window step; a replay every `stride` cycles.
    pub fn after_step(&mut self, net: &Network, tracer: &mut Tracer, step_ns: u64) {
        let t = &mut self.current;
        t.step_ns += step_ns;
        t.active_routers += net.active_routers() as u64;
        t.pending_events += net.pending_events() as u64;
        t.in_flight_packets += net.in_flight();
        t.task_pending_packets += net.jobs().map_or(0, |j| j.pending_packets()) as u64;
        self.window_cycles += 1;
        if self.window_cycles.is_multiple_of(self.stride) {
            self.replay(net, tracer);
        }
    }

    /// Replay decide / minimal_output / allocate on every occupied input-VC
    /// head of every router, timing each batch per router.
    fn replay(&mut self, net: &Network, tracer: &mut Tracer) {
        let algorithm = self.algorithm.expect("begin_run sets the algorithm");
        let span = tracer.begin("replay");
        let topo = *net.topology();
        let routers = topo.num_routers();
        let mut queued = 0u64;
        for r in 0..routers {
            let router = net.router(RouterId(r));
            queued += router.queued_packets() as u64;
            let occupied = router.occupied_vcs();
            if occupied.is_empty() {
                continue;
            }
            let heads: Vec<_> = occupied
                .iter()
                .map(|&(port, vc)| {
                    let packet = router.input(port).vc(vc.index()).head();
                    (port, vc, packet.expect("occupied VC has a head"))
                })
                .collect();
            let count = heads.len() as u64;

            let t0 = Instant::now();
            for (_, _, packet) in &heads {
                black_box(minimal::minimal_output(&topo, router.id(), packet.dst));
            }
            let t1 = Instant::now();
            tracer.record("routing.minimal_output", t0, t1, count);
            self.current.minimal_output_ns += (t1 - t0).as_nanos() as u64;

            self.requests.clear();
            let mut nonminimal = 0;
            let t0 = Instant::now();
            for &(input_port, input_vc, packet) in &heads {
                let d = algorithm.decide(router, input_port, packet, &mut self.rng);
                match d.kind {
                    DecisionKind::Discard => continue,
                    DecisionKind::NonminimalGlobal
                    | DecisionKind::NonminimalLocal
                    | DecisionKind::Continuation => nonminimal += 1,
                    DecisionKind::Ejection | DecisionKind::Minimal => {}
                }
                self.requests.push(AllocationRequest {
                    input_port,
                    input_vc,
                    output_port: d.output_port,
                    output_vc: d.output_vc,
                    size_phits: packet.size_phits,
                });
            }
            let t1 = Instant::now();
            tracer.record("routing.decide", t0, t1, count);
            self.current.decide_ns += (t1 - t0).as_nanos() as u64;
            self.current.heads += count;
            self.current.nonminimal += nonminimal;

            let mut replica = router.clone();
            let t0 = Instant::now();
            let grants = replica.allocate(&self.requests);
            let t1 = Instant::now();
            tracer.record("router.allocate", t0, t1, grants.len() as u64);
            self.current.allocate_calls += 1;
            self.current.allocate_ns += (t1 - t0).as_nanos() as u64;
            self.current.requests += self.requests.len() as u64;
            self.current.grants += grants.len() as u64;
        }
        self.current.samples += 1;
        self.current.queued_packets += queued;
        self.current.contention_total += net.total_contention();
        tracer.end(span, routers as u64);
    }
}

/// Mean host nanoseconds of `TrafficPattern::destination` with `pattern`
/// on `topo`, over `calls` calls cycling through every source.
pub fn destination_ns(
    topo: AnyTopology,
    pattern: PatternKind,
    calls: u64,
    tracer: &mut Tracer,
) -> f64 {
    let built = pattern.build(topo);
    let nodes = topo.num_nodes() as u64;
    let mut rng = DeterministicRng::new(0x6473_7473);
    let span = tracer.begin("traffic.destination");
    let t0 = Instant::now();
    for i in 0..calls {
        black_box(built.destination(NodeId((i % nodes) as u32), &mut rng));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    tracer.end(span, calls);
    ns / calls as f64
}
