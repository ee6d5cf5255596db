//! In-transit adaptive mechanisms: OLM (credit-based baseline) and the
//! paper's Base, Hybrid and ECtN (contention-based).
//!
//! All four share the same misrouting *policy* (where nonminimal paths may be
//! taken, which candidates are considered, how deadlock is avoided); they
//! differ only in the *trigger* that decides when to leave the minimal path
//! and in how candidates are filtered:
//!
//! | mechanism | global misroute trigger | candidate filter |
//! |-----------|------------------------|------------------|
//! | OLM       | occupancy(candidate) ≤ 50 % × occupancy(minimal) | same comparison |
//! | Base      | counter(minimal) > th | counter(candidate) < th |
//! | Hybrid    | Base rule (th+1) **or** OLM rule (35 %) | per the rule that fired |
//! | ECtN      | at injection: combined(minimal link) > th_combined; otherwise Base | combined(candidate) < th_combined / Base |
//!
//! Local misrouting (in the intermediate and destination groups) uses the
//! same trigger family against local output ports.

use df_engine::DeterministicRng;
use df_model::Packet;
use df_router::Router;
use df_topology::{GroupId, Port, PortClass, Topology};

use crate::algorithms::common;
use crate::candidates::{global_candidates, local_candidates, GlobalCandidate, LocalCandidate};
use crate::config::RoutingConfig;
use crate::decision::{Commitment, Decision, DecisionKind};
use crate::kind::RoutingKind;
use crate::minimal::minimal_output;
use crate::trigger::{contention_allows_candidate, contention_exceeds, credit_comparison};
use crate::vcmap::{global_misroute_fits, local_detour_fits, vc_for_next_hop};

/// Whether a nonminimal global candidate is viable according to the
/// router's (possibly stale) gateway-liveness view: the candidate link of
/// the current group is up, and — when the candidate diverts through an
/// intermediate group — so is that group's unique onward link towards the
/// destination group. Always true on a pristine (all-up) view, which is
/// what mechanisms without a dissemination channel hold, so Base/OLM keep
/// the PR-4 discover-at-gateway behaviour and healthy runs take the O(1)
/// fast path.
fn candidate_viable_by_view(
    router: &Router,
    my_group: GroupId,
    cand: &GlobalCandidate,
    dst_group: GroupId,
) -> bool {
    let view = router.link_view();
    if view.all_up() {
        return true;
    }
    let topo = router.topology();
    if !view.link_up(my_group, cand.link) {
        return false;
    }
    match topo.global_link_target_group(my_group, cand.link) {
        Some(target) if target != dst_group => {
            view.link_up(target, topo.group_link_to(target, dst_group))
        }
        _ => true,
    }
}

/// The in-transit adaptive decision for OLM / Base / Hybrid / ECtN.
pub fn decide(
    kind: RoutingKind,
    config: &RoutingConfig,
    router: &Router,
    input_port: Port,
    packet: &Packet,
    rng: &mut DeterministicRng,
) -> Decision {
    let topo = router.topology();
    let layout = topo.layout();
    let current = router.id();
    let my_group = topo.router_group(current);
    let src_group = topo.node_group(packet.src);
    let dst_group = topo.node_group(packet.dst);
    let min_out = minimal_output(topo, current, packet.dst);
    let min_class = min_out.class(&layout);
    let net = router.config();
    // Fault routing: a dead minimal output lifts the already-misrouted veto
    // below — the misroute budget is counted in *hops taken* (global_hops),
    // not intents, so a packet whose commitment was abandoned at a dead
    // gateway may select a replacement. Always false on a healthy network.
    let min_dead = router.any_link_down() && !router.link_is_up(min_out);

    // ---------------- global misrouting ----------------
    let may_misroute_globally = dst_group != my_group
        && my_group == src_group
        && (!packet.routing.globally_misrouted() || min_dead)
        && global_misroute_fits(packet, net)
        && (packet.hops() == 0
            || (config.allow_global_misroute_after_hop
                && packet.routing.global_hops == 0
                && packet.routing.local_hops <= 1));
    if may_misroute_globally {
        if let Some(cand) = pick_global_candidate(
            kind, config, router, input_port, packet, min_out, dst_group, rng,
        ) {
            let first_class = cand.first_hop.class(&layout);
            return Decision {
                output_port: cand.first_hop,
                output_vc: vc_for_next_hop(packet, first_class, net),
                kind: DecisionKind::NonminimalGlobal,
                commitment: Commitment::NonminimalGlobal {
                    gateway: cand.gateway,
                    port: cand.gateway_port,
                },
            };
        }
    }

    // ---------------- local misrouting ----------------
    let remaining_locals_after_detour: u8 = if my_group == dst_group { 1 } else { 2 };
    let may_misroute_locally = config.allow_local_misroute
        && min_class == PortClass::Local
        && my_group != src_group
        && packet.routing.local_misroute_allowed_in(my_group)
        && local_detour_fits(packet, remaining_locals_after_detour, net);
    if may_misroute_locally {
        if let Some(cand) = pick_local_candidate(kind, config, router, packet, min_out, rng) {
            return Decision {
                output_port: cand.port,
                output_vc: vc_for_next_hop(packet, PortClass::Local, net),
                kind: DecisionKind::NonminimalLocal,
                commitment: Commitment::LocalDetour {
                    router: cand.router,
                },
            };
        }
    }

    // ---------------- fault: unroutable packets ----------------
    // The minimal continuation is dead and neither misroute family produced
    // an escape. If at least one policy-legal alternative is merely
    // *congested* (a live candidate exists), keep requesting the minimal
    // port — the allocator refuses dead ports, so the packet waits and the
    // decision is re-evaluated next cycle. If no live alternative can ever
    // exist (e.g. a globally-misrouted packet whose unique onward global
    // link died — any other path would need a third global hop, which the
    // VC ladder cannot carry), the packet is unroutable: discard it so the
    // network stays live, with exact conservation through the
    // dropped-on-fault counters.
    if min_dead {
        let any_live_global = may_misroute_globally && {
            let min_link = topo.group_link_to(my_group, dst_group);
            let own_only = packet.routing.local_hops > 0;
            global_candidates(topo, current, Some(min_link), own_only)
                .iter()
                .any(|c| {
                    router.link_is_up(c.first_hop)
                        && candidate_viable_by_view(router, my_group, c, dst_group)
                })
        };
        let any_live_local = may_misroute_locally && {
            let min_target = topo.local_neighbor(current, min_out.class_offset(&layout));
            local_candidates(topo, current, Some(min_target))
                .iter()
                .any(|c| router.link_is_up(c.port))
        };
        if !any_live_global && !any_live_local {
            return Decision::discard();
        }
    }

    // ---------------- default: minimal ----------------
    Decision::minimal(min_out, vc_for_next_hop(packet, min_class, net))
}

/// Select a nonminimal global link, if the mechanism's trigger fires and a
/// candidate passes its filter.
#[allow(clippy::too_many_arguments)]
fn pick_global_candidate(
    kind: RoutingKind,
    config: &RoutingConfig,
    router: &Router,
    input_port: Port,
    packet: &Packet,
    min_out: Port,
    dst_group: df_topology::GroupId,
    rng: &mut DeterministicRng,
) -> Option<GlobalCandidate> {
    let topo = router.topology();
    let layout = topo.layout();
    let my_group = topo.router_group(router.id());
    let min_link = topo.group_link_to(my_group, dst_group);
    let size = packet.size_phits;
    let vc_for =
        |port: Port, pkt: &Packet| vc_for_next_hop(pkt, port.class(&layout), router.config());
    // After the first local hop only the current router's own global links
    // are eligible (the PAR/OLM rule): taking a *second* local hop before the
    // first global hop would break the monotonic VC ordering that guarantees
    // deadlock freedom.
    let own_only_for_policy = packet.routing.local_hops > 0;
    // A failed minimal link is treated as infinitely contended: it fires
    // every misroute trigger, and dead candidates are filtered out. For the
    // mechanisms with a link-state view (ECtN, and PB on its own path) a
    // minimal link the *view* marks dead fires the triggers too, even when
    // the first hop towards its gateway is a healthy local link — that is
    // how source routers stop targeting dead gateway groups. In a healthy
    // network both terms are false and every filter below reduces to its
    // original form.
    let min_dead = !router.link_is_up(min_out) || router.link_view().marks_down(my_group, min_link);
    let view_ok = |c: &GlobalCandidate| candidate_viable_by_view(router, my_group, c, dst_group);

    // ECtN: at injection, use the combined counters over the router's own
    // global links.
    if kind == RoutingKind::Ectn
        && input_port.class(&layout) == PortClass::Terminal
        && packet.hops() == 0
    {
        let combined_min = router.ectn().combined(min_link);
        if min_dead || contention_exceeds(combined_min, config.ectn_combined_threshold) {
            let cands = global_candidates(topo, router.id(), Some(min_link), true);
            let eligible: Vec<GlobalCandidate> = cands
                .into_iter()
                .filter(|c| {
                    contention_allows_candidate(
                        router.ectn().combined(c.link),
                        config.ectn_combined_threshold,
                    ) && router.link_is_up(c.first_hop)
                        && view_ok(c)
                        && router.output_can_accept(c.first_hop, vc_for(c.first_hop, packet), size)
                })
                .collect();
            if let Some(c) = common::pick_random(&eligible, rng) {
                return Some(*c);
            }
            // fall through to the local-counter (Base) logic below
        }
    }

    match kind {
        RoutingKind::Base | RoutingKind::Ectn => {
            let th = config.contention_threshold;
            if !min_dead && !contention_exceeds(router.contention().get(min_out), th) {
                return None;
            }
            let cands = global_candidates(topo, router.id(), Some(min_link), own_only_for_policy);
            let eligible: Vec<GlobalCandidate> = cands
                .into_iter()
                .filter(|c| {
                    contention_allows_candidate(router.contention().get(c.first_hop), th)
                        && router.link_is_up(c.first_hop)
                        && view_ok(c)
                        && router.output_can_accept(c.first_hop, vc_for(c.first_hop, packet), size)
                })
                .collect();
            common::pick_random(&eligible, rng).copied()
        }
        RoutingKind::Olm => credit_global_candidate(
            config.olm_congestion_fraction,
            config,
            router,
            packet,
            min_out,
            min_link,
            own_only_for_policy,
            rng,
        ),
        RoutingKind::Hybrid => {
            // contention rule first (with Hybrid's own, higher threshold)
            let th = config.hybrid_contention_threshold;
            if min_dead || contention_exceeds(router.contention().get(min_out), th) {
                let cands =
                    global_candidates(topo, router.id(), Some(min_link), own_only_for_policy);
                let eligible: Vec<GlobalCandidate> = cands
                    .into_iter()
                    .filter(|c| {
                        contention_allows_candidate(router.contention().get(c.first_hop), th)
                            && router.link_is_up(c.first_hop)
                            && view_ok(c)
                            && router.output_can_accept(
                                c.first_hop,
                                vc_for(c.first_hop, packet),
                                size,
                            )
                    })
                    .collect();
                if let Some(c) = common::pick_random(&eligible, rng) {
                    return Some(*c);
                }
            }
            // otherwise the credit rule may still divert the packet
            credit_global_candidate(
                config.hybrid_congestion_fraction,
                config,
                router,
                packet,
                min_out,
                min_link,
                own_only_for_policy,
                rng,
            )
        }
        _ => None,
    }
}

/// OLM-style credit comparison over the global candidates.
#[allow(clippy::too_many_arguments)]
fn credit_global_candidate(
    fraction: f64,
    config: &RoutingConfig,
    router: &Router,
    packet: &Packet,
    min_out: Port,
    min_link: u32,
    own_links_only: bool,
    rng: &mut DeterministicRng,
) -> Option<GlobalCandidate> {
    let topo = router.topology();
    let layout = topo.layout();
    let size = packet.size_phits;
    let q_min = common::output_occupancy(router, min_out);
    let min_required = config.credit_trigger_min_packets * size;
    // a dead (locally or per the link-state view) minimal output fires the
    // credit trigger unconditionally
    let my_group = topo.router_group(router.id());
    let min_dead = !router.link_is_up(min_out) || router.link_view().marks_down(my_group, min_link);
    let dst_group = topo.node_group(packet.dst);
    let cands = global_candidates(topo, router.id(), Some(min_link), own_links_only);
    let eligible: Vec<GlobalCandidate> = cands
        .into_iter()
        .filter(|c| {
            let q_cand = common::output_occupancy(router, c.first_hop);
            (min_dead || credit_comparison(q_min, q_cand, fraction, min_required))
                && router.link_is_up(c.first_hop)
                && candidate_viable_by_view(router, my_group, c, dst_group)
                && router.output_can_accept(
                    c.first_hop,
                    vc_for_next_hop(packet, c.first_hop.class(&layout), router.config()),
                    size,
                )
        })
        .collect();
    common::pick_random(&eligible, rng).copied()
}

/// Fault re-commit for a packet whose committed nonminimal gateway link
/// died: drop the commitment and re-run the mechanism's candidate
/// *selection* with the dead option filtered. The misroute trigger is
/// treated as already fired — the packet committed to a nonminimal path
/// once; its option dying does not un-fire that decision — so only the
/// per-candidate filters run (liveness, link-state view, the mechanism's
/// candidate-side contention cap, downstream space).
///
/// Deadlock freedom: the packet has taken no global hop yet
/// (`global_hops == 0` while a nonminimal-global commitment is pending), so
/// the re-committed path re-enters the escape-VC ladder at exactly the rung
/// the original commitment occupied — `G0` directly when the packet already
/// spent its single pre-global local hop (the own-links-only restriction
/// enforces this), or `L0 → G0` when it has not. No VC is ever revisited,
/// so the channel dependency graph stays acyclic. The minimal fallback
/// obeys the same rule: it is taken only when it needs no second pre-global
/// local hop.
///
/// `stalled` is the continuation the caller would otherwise have issued;
/// it is returned when live-but-congested alternatives exist, so the packet
/// waits and re-decides next cycle. A packet with no live, view-viable
/// option at all is discarded as unroutable.
#[allow(clippy::too_many_arguments)]
pub fn recommit_global(
    kind: RoutingKind,
    config: &RoutingConfig,
    router: &Router,
    packet: &Packet,
    committed: (df_topology::RouterId, Port),
    stalled: Decision,
    rng: &mut DeterministicRng,
) -> Decision {
    debug_assert_eq!(
        packet.routing.global_hops, 0,
        "a pending nonminimal-global commitment implies no global hop yet"
    );
    let topo = router.topology();
    let layout = topo.layout();
    let current = router.id();
    let my_group = topo.router_group(current);
    let dst_group = topo.node_group(packet.dst);
    let net = router.config();
    let min_out = minimal_output(topo, current, packet.dst);
    let min_class = min_out.class(&layout);
    let min_link = topo.group_link_to(my_group, dst_group);
    let own_only = packet.routing.local_hops > 0;
    let size = packet.size_phits;

    // the replacement candidates: everything the original selection could
    // have chosen, minus the dead option and anything else dead — locally
    // or per the link-state view
    let viable: Vec<GlobalCandidate> = if global_misroute_fits(packet, net) {
        global_candidates(topo, current, Some(min_link), own_only)
            .into_iter()
            .filter(|c| {
                (c.gateway, c.gateway_port) != committed
                    && router.link_is_up(c.first_hop)
                    && candidate_viable_by_view(router, my_group, c, dst_group)
            })
            .collect()
    } else {
        Vec::new()
    };

    // mechanism's candidate-side cap (Base/ECtN/Hybrid contention; OLM has
    // none beyond liveness), plus downstream space
    let th = match kind {
        RoutingKind::Hybrid => Some(config.hybrid_contention_threshold),
        RoutingKind::Base | RoutingKind::Ectn => Some(config.contention_threshold),
        _ => None,
    };
    let eligible: Vec<GlobalCandidate> = viable
        .iter()
        .filter(|c| {
            th.is_none_or(|th| {
                contention_allows_candidate(router.contention().get(c.first_hop), th)
            }) && router.output_can_accept(
                c.first_hop,
                vc_for_next_hop(packet, c.first_hop.class(&layout), net),
                size,
            )
        })
        .copied()
        .collect();
    if let Some(cand) = common::pick_random(&eligible, rng) {
        return Decision {
            output_port: cand.first_hop,
            output_vc: vc_for_next_hop(packet, cand.first_hop.class(&layout), net),
            kind: DecisionKind::NonminimalGlobal,
            commitment: Commitment::RecommitGlobal {
                gateway: cand.gateway,
                port: cand.gateway_port,
            },
        };
    }

    // minimal fallback — only when VC-feasible: a packet that already spent
    // its pre-global local hop may not take another one, so minimal is an
    // option only from the minimal gateway itself (or before any hop)
    let minimal_feasible = packet.routing.local_hops == 0 || min_class == PortClass::Global;
    let minimal_usable = minimal_feasible
        && router.link_is_up(min_out)
        && !router.link_view().marks_down(my_group, min_link);
    if minimal_usable {
        return Decision {
            output_port: min_out,
            output_vc: vc_for_next_hop(packet, min_class, net),
            kind: DecisionKind::Continuation,
            commitment: Commitment::AbandonNonminimal,
        };
    }

    // live candidates exist but are congested right now: wait on the
    // stalled continuation and re-decide next cycle; with no live,
    // view-viable option at all the packet is unroutable
    if !viable.is_empty() {
        stalled
    } else {
        Decision::discard()
    }
}

/// Select a local detour, if the mechanism's trigger fires.
fn pick_local_candidate(
    kind: RoutingKind,
    config: &RoutingConfig,
    router: &Router,
    packet: &Packet,
    min_out: Port,
    rng: &mut DeterministicRng,
) -> Option<LocalCandidate> {
    let topo = router.topology();
    let layout = topo.layout();
    let size = packet.size_phits;
    // the router the minimal local hop would reach — excluded from detours
    let min_target = topo.local_neighbor(router.id(), min_out.class_offset(&layout));
    let vc = vc_for_next_hop(packet, PortClass::Local, router.config());
    // a failed minimal local link fires the detour triggers unconditionally
    let min_dead = !router.link_is_up(min_out);

    match kind {
        RoutingKind::Base | RoutingKind::Ectn => {
            let th = config.contention_threshold;
            if !min_dead && !contention_exceeds(router.contention().get(min_out), th) {
                return None;
            }
            let eligible: Vec<LocalCandidate> =
                local_candidates(topo, router.id(), Some(min_target))
                    .into_iter()
                    .filter(|c| {
                        contention_allows_candidate(router.contention().get(c.port), th)
                            && router.link_is_up(c.port)
                            && router.output_can_accept(c.port, vc, size)
                    })
                    .collect();
            common::pick_random(&eligible, rng).copied()
        }
        RoutingKind::Olm | RoutingKind::Hybrid => {
            let fraction = if kind == RoutingKind::Olm {
                config.olm_congestion_fraction
            } else {
                config.hybrid_congestion_fraction
            };
            // Hybrid also honours the contention rule for local detours
            if kind == RoutingKind::Hybrid {
                let th = config.hybrid_contention_threshold;
                if min_dead || contention_exceeds(router.contention().get(min_out), th) {
                    let eligible: Vec<LocalCandidate> =
                        local_candidates(topo, router.id(), Some(min_target))
                            .into_iter()
                            .filter(|c| {
                                contention_allows_candidate(router.contention().get(c.port), th)
                                    && router.link_is_up(c.port)
                                    && router.output_can_accept(c.port, vc, size)
                            })
                            .collect();
                    if let Some(c) = common::pick_random(&eligible, rng) {
                        return Some(*c);
                    }
                }
            }
            let q_min = common::output_occupancy(router, min_out);
            let min_required = config.credit_trigger_min_packets * size;
            let eligible: Vec<LocalCandidate> =
                local_candidates(topo, router.id(), Some(min_target))
                    .into_iter()
                    .filter(|c| {
                        let q_cand = common::output_occupancy(router, c.port);
                        (min_dead || credit_comparison(q_min, q_cand, fraction, min_required))
                            && router.link_is_up(c.port)
                            && router.output_can_accept(c.port, vc, size)
                    })
                    .collect();
            common::pick_random(&eligible, rng).copied()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_model::{NetworkConfig, PacketId, VcId};
    use df_topology::{Dragonfly, DragonflyParams, GroupId, NodeId, RouterId};

    fn router(id: u32) -> Router {
        let topo = Dragonfly::new(DragonflyParams::small());
        Router::new(RouterId(id), topo, NetworkConfig::fast_test())
    }

    fn packet(src: u32, dst: u32) -> Packet {
        Packet::new(PacketId(0), NodeId(src), NodeId(dst), 8, 0)
    }

    fn config_small() -> RoutingConfig {
        // threshold 3, calibrated for the small network used in these tests
        RoutingConfig::default().with_contention_threshold(3)
    }

    fn rng() -> DeterministicRng {
        DeterministicRng::new(99)
    }

    #[test]
    fn base_routes_minimally_without_contention() {
        let r = router(0);
        let p = packet(0, 40);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(0),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(
            d.output_port,
            minimal_output(r.topology(), r.id(), NodeId(40))
        );
    }

    #[test]
    fn base_misroutes_when_the_minimal_counter_exceeds_the_threshold() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // simulate 4 head packets demanding the minimal output (> th = 3):
        // register them through input VCs as the simulator would
        let mut queued = 0;
        'fill: for port in 0..r.num_ports() as u32 {
            let class = Port(port).class(r.topology().params());
            if class == PortClass::Global {
                continue; // keep it simple: injection and local inputs
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 40));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                queued += 1;
                if queued > 3 {
                    break 'fill;
                }
            }
        }
        assert!(r.contention().get(min_out) > cfg.contention_threshold);
        let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        assert_ne!(d.output_port, min_out, "must leave the contended port");
        match d.commitment {
            Commitment::NonminimalGlobal { gateway, port } => {
                // the committed link must not lead to the destination group
                let topo = r.topology();
                let j = topo.global_link_index(gateway, port.class_offset(topo.params()));
                let target = topo
                    .global_link_target_group(GroupId(0), j)
                    .expect("candidate link is wired");
                assert_ne!(target, topo.node_group(NodeId(40)));
                assert_ne!(target, GroupId(0));
            }
            other => panic!("expected a nonminimal-global commitment, got {other:?}"),
        }
    }

    #[test]
    fn base_does_not_misroute_packets_that_already_misrouted() {
        let mut r = router(0);
        let mut p = packet(0, 40);
        p.routing.flags.global = true; // already went nonminimal
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // heavy synthetic contention on the minimal output
        for _ in 0..(cfg.contention_threshold + 3) {
            r.contention_mut().increment(min_out);
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(2), &p, &mut rng());
        assert_ne!(d.kind, DecisionKind::NonminimalGlobal);
    }

    #[test]
    fn olm_misroutes_on_occupancy_imbalance() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = RoutingConfig::default();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // make the minimal output look congested by staging packets on it
        for _ in 0..3 {
            if r.output(min_out).can_accept(VcId(0), 8) {
                r.output_mut(min_out).accept(packet(0, 40), VcId(0), 0);
            }
        }
        assert!(common::output_occupancy(&r, min_out) >= 8);
        let d = decide(RoutingKind::Olm, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
    }

    #[test]
    fn olm_stays_minimal_when_everything_is_empty() {
        let r = router(0);
        let p = packet(0, 40);
        let d = decide(
            RoutingKind::Olm,
            &RoutingConfig::default(),
            &r,
            Port(0),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn hybrid_fires_on_either_trigger() {
        // credit trigger only (counters stay low)
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        for _ in 0..3 {
            if r.output(min_out).can_accept(VcId(0), 8) {
                r.output_mut(min_out).accept(packet(0, 40), VcId(0), 0);
            }
        }
        let d = decide(RoutingKind::Hybrid, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(
            d.kind,
            DecisionKind::NonminimalGlobal,
            "credit rule should fire"
        );

        // contention trigger only (outputs empty, counters high)
        let mut r2 = router(0);
        let min_out2 = minimal_output(r2.topology(), r2.id(), NodeId(40));
        let mut registered = 0;
        'outer: for port in 0..r2.num_ports() as u32 {
            if Port(port).class(r2.topology().params()) == PortClass::Global {
                continue;
            }
            for vc in 0..r2.input(Port(port)).num_vcs() {
                r2.receive_packet(Port(port), VcId(vc as u8), packet(0, 40));
                r2.register_head(Port(port), VcId(vc as u8), min_out2, None);
                registered += 1;
                if registered > cfg.hybrid_contention_threshold {
                    break 'outer;
                }
            }
        }
        let d2 = decide(RoutingKind::Hybrid, &cfg, &r2, Port(0), &p, &mut rng());
        assert_eq!(
            d2.kind,
            DecisionKind::NonminimalGlobal,
            "contention rule should fire"
        );
    }

    #[test]
    fn ectn_misroutes_at_injection_from_combined_counters() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small().with_ectn_combined_threshold(5);
        let topo = *r.topology();
        let dst_group = topo.node_group(NodeId(40));
        let min_link = topo.group_link_to(GroupId(0), dst_group);
        // install a combined array showing heavy contention on the minimal link
        let mut combined = vec![0u32; topo.params().global_links_per_group() as usize];
        combined[min_link as usize] = 9;
        r.ectn_mut().install_combined_from(&combined);
        let d = decide(RoutingKind::Ectn, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        // ECtN at injection restricts candidates to the current router's own
        // global links
        assert_eq!(
            d.output_port.class(topo.params()),
            PortClass::Global,
            "injection misroute must use an own global link"
        );
        match d.commitment {
            Commitment::NonminimalGlobal { gateway, .. } => assert_eq!(gateway, r.id()),
            other => panic!("unexpected commitment {other:?}"),
        }
    }

    #[test]
    fn ectn_without_combined_contention_behaves_like_base() {
        let r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let d = decide(RoutingKind::Ectn, &cfg, &r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::Minimal);
    }

    #[test]
    fn local_misroute_in_destination_group() {
        // a packet that already crossed its global hop and now faces a
        // contended local port in the destination group
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(70); // group 8
        let dst_router = topo.node_router(dst);
        let dst_group = topo.router_group(dst_router);
        // pick a router in the destination group different from dst_router
        let entry = topo
            .routers_in_group(dst_group)
            .find(|&r| r != dst_router)
            .unwrap();
        let mut r = Router::new(entry, topo, NetworkConfig::fast_test());
        let mut p = packet(0, 70);
        p.routing.local_hops = 1;
        p.routing.global_hops = 1;
        p.routing.flags.global = false;
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), dst);
        assert_eq!(min_out.class(r.topology().params()), PortClass::Local);
        // build contention on the minimal local port
        let mut registered = 0;
        'outer: for port in 0..r.num_ports() as u32 {
            if Port(port).class(r.topology().params()) == PortClass::Global {
                continue;
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 70));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                registered += 1;
                if registered > cfg.contention_threshold {
                    break 'outer;
                }
            }
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(5), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalLocal);
        assert!(matches!(d.commitment, Commitment::LocalDetour { .. }));
        assert_ne!(d.output_port, min_out);
    }

    #[test]
    fn local_misroute_respects_one_per_group_rule() {
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(70);
        let dst_router = topo.node_router(dst);
        let dst_group = topo.router_group(dst_router);
        let entry = topo
            .routers_in_group(dst_group)
            .find(|&r| r != dst_router)
            .unwrap();
        let mut r = Router::new(entry, topo, NetworkConfig::fast_test());
        let mut p = packet(0, 70);
        p.routing.local_hops = 2;
        p.routing.global_hops = 1;
        p.routing.local_misrouted_in = Some(dst_group); // already detoured here
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), dst);
        let mut registered = 0;
        'outer: for port in 0..r.num_ports() as u32 {
            if Port(port).class(r.topology().params()) == PortClass::Global {
                continue;
            }
            for vc in 0..r.input(Port(port)).num_vcs() {
                r.receive_packet(Port(port), VcId(vc as u8), packet(0, 70));
                r.register_head(Port(port), VcId(vc as u8), min_out, None);
                registered += 1;
                if registered > cfg.contention_threshold {
                    break 'outer;
                }
            }
        }
        let d = decide(RoutingKind::Base, &cfg, &r, Port(5), &p, &mut rng());
        assert_ne!(
            d.kind,
            DecisionKind::NonminimalLocal,
            "only one local detour per group is allowed"
        );
    }

    #[test]
    fn dead_minimal_link_fires_the_misroute_trigger_without_contention() {
        // no contention anywhere, but the minimal output's link is down:
        // every adaptive mechanism must immediately steer around it
        for kind in [
            RoutingKind::Base,
            RoutingKind::Ectn,
            RoutingKind::Olm,
            RoutingKind::Hybrid,
        ] {
            let mut r = router(0);
            let p = packet(0, 40);
            let cfg = config_small();
            let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
            r.set_link_up(min_out, false);
            let d = decide(kind, &cfg, &r, Port(0), &p, &mut rng());
            assert_eq!(
                d.kind,
                DecisionKind::NonminimalGlobal,
                "{kind:?} must misroute around a dead minimal link"
            );
            assert_ne!(d.output_port, min_out);
            assert!(r.link_is_up(d.output_port), "the chosen port must be alive");
        }
    }

    #[test]
    fn dead_candidate_links_are_filtered_from_the_eligible_set() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // fail the minimal link AND every alternative except one local port
        let params = *r.topology().params();
        let mut kept = None;
        for port in 0..r.num_ports() as u32 {
            let port = Port(port);
            if port.class(&params) == PortClass::Terminal || port == min_out {
                continue;
            }
            if kept.is_none() && port.class(&params) == PortClass::Local {
                kept = Some(port);
                continue;
            }
            r.set_link_up(port, false);
        }
        r.set_link_up(min_out, false);
        let kept = kept.expect("one live local port");
        for _ in 0..50 {
            let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
            if d.kind == DecisionKind::NonminimalGlobal {
                assert_eq!(d.output_port, kept, "only the live candidate is eligible");
            }
        }
    }

    #[test]
    fn committed_gateway_with_a_dead_link_recommits_to_a_live_candidate() {
        // a packet committed to router 0's own global port 5, sitting at
        // router 0, when that link dies: the full decision path must replace
        // the commitment with a live candidate
        let mut r = router(0);
        let mut p = packet(0, 40); // destination group 5 (remote)
        let dead_port = df_topology::Port::global(r.topology().params(), 0);
        p.routing.commit_nonminimal_global(RouterId(0), dead_port);
        r.set_link_up(dead_port, false);
        let algo = crate::RoutingAlgorithm::new(RoutingKind::Base, config_small());
        let d = algo.decide(&r, Port(0), &p, &mut rng());
        assert_eq!(d.kind, DecisionKind::NonminimalGlobal);
        match d.commitment {
            Commitment::RecommitGlobal { gateway, port } => {
                assert!(
                    (gateway, port) != (RouterId(0), dead_port),
                    "must not re-commit to the dead link"
                );
            }
            other => panic!("expected a re-commit, got {other:?}"),
        }
        assert!(r.link_is_up(d.output_port), "the first hop must be alive");
    }

    #[test]
    fn globally_misrouted_packet_with_dead_unique_continuation_is_discarded() {
        // the ADV-cut2 class: a packet that already took its nonminimal
        // global hop sits in an intermediate group whose unique onward
        // global link towards the destination group is dead — any other
        // path would need a third global hop, which the VC ladder cannot
        // carry, so the packet is unroutable
        let topo = Dragonfly::new(DragonflyParams::small());
        let dst = NodeId(40); // group 5
        let dst_group = topo.node_group(dst);
        // put the packet at the gateway of group 0 towards the destination
        // group, pretending it misrouted into group 0
        let (gw, gport) = topo.gateway_to(GroupId(0), dst_group);
        let mut r = Router::new(gw, topo, NetworkConfig::fast_test());
        let mut p = packet(70, 40); // source in another group
        p.routing.global_hops = 1;
        p.routing.local_hops = 1;
        p.routing.flags.global = true;
        r.set_link_up(gport, false);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(5),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Discard);
        // with the link alive the same packet routes minimally
        r.set_link_up(gport, true);
        let d = decide(
            RoutingKind::Base,
            &config_small(),
            &r,
            Port(5),
            &p,
            &mut rng(),
        );
        assert_eq!(d.kind, DecisionKind::Minimal);
        assert_eq!(d.output_port, gport);
    }

    #[test]
    fn candidates_with_counters_over_threshold_are_filtered_out() {
        let mut r = router(0);
        let p = packet(0, 40);
        let cfg = config_small();
        let min_out = minimal_output(r.topology(), r.id(), NodeId(40));
        // contend the minimal output AND every alternative output
        for port in 0..r.num_ports() as u32 {
            let class = Port(port).class(r.topology().params());
            if class == PortClass::Terminal {
                continue;
            }
            for _ in 0..(cfg.contention_threshold + 1) {
                r.contention_mut().increment(Port(port));
            }
        }
        assert!(r.contention().get(min_out) > cfg.contention_threshold);
        let d = decide(RoutingKind::Base, &cfg, &r, Port(0), &p, &mut rng());
        // with every candidate saturated the packet must stay minimal
        assert_eq!(d.kind, DecisionKind::Minimal);
    }
}
