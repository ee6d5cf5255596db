//! The repository benchmark's measuring program.
//!
//! ```text
//! df-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs Base, PB and ECtN in turn on one workload (see `workload.rs`),
//! checks every run's outputs, repeats the measured windows from a saved
//! start state until `--seconds` of window time is spent, and prints one
//! JSON object with every metric as its last stdout line. `--trace 1` adds
//! the per-layer observation and writes the spans to `.bench_out/`. `run.py`
//! builds this program and turns its output into the benchmark's result.

mod calibrate;
mod layers;
mod run;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use df_engine::Histogram;

use calibrate::{Timebase, REFERENCE_NS_PER_HOP, SENSITIVITY};
use layers::{LayerTotals, Probe};
use run::{run_mechanism, MechanismRun};
use trace::Tracer;
use workload::{mechanism_label, Workload, MECHANISMS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// A metric value with its unit and sample count.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: u64,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of integer samples.
fn percentile_u64(values: &[u64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Percentile of a histogram, interpolated linearly inside the bin the rank
/// falls in (the simulator's own percentile is the bin's upper edge, which
/// reads the same for most seeds). A rank past the binned range is +inf.
fn interpolated_percentile(h: &Histogram, pct: f64) -> f64 {
    let target = pct / 100.0 * h.count() as f64;
    let mut seen = h.underflow() as f64;
    for (lo, hi, count) in h.iter_bins() {
        if count > 0 && seen + count as f64 >= target {
            return lo + (target - seen).max(0.0) / count as f64 * (hi - lo);
        }
        seen += count as f64;
    }
    f64::INFINITY
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON; an infinite value is written as the string `"+inf"`
/// (JSON has no infinity) so it is reported, never clipped.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v == f64::INFINITY {
        "\"+inf\"".to_string()
    } else {
        "null".to_string()
    }
}

/// End-to-end metrics of the untraced run, pooled over the mechanisms.
fn end_to_end(workload: &Workload, runs: &[MechanismRun]) -> BTreeMap<&'static str, Metric> {
    let mut m = BTreeMap::new();
    let cycles: u64 = runs.iter().map(|r| r.window.cycles).sum();
    let delivered: u64 = runs.iter().map(|r| r.window.delivered_phits).sum();
    let window_s: f64 = runs.iter().map(|r| median(&r.window_s)).sum();
    let repeats = runs
        .iter()
        .map(|r| r.window_s.len() as u64)
        .min()
        .unwrap_or(0);
    let packets: u64 = runs.iter().map(|r| r.window.delivered_packets).sum();
    let latency_sum: f64 = runs
        .iter()
        .map(|r| r.window.latency_mean * r.window.delivered_packets as f64)
        .sum();
    let mut hist: Option<Histogram> = None;
    for r in runs {
        match hist.as_mut() {
            Some(h) => h.merge(&r.window.latency_hist),
            None => hist = Some(r.window.latency_hist.clone()),
        }
    }
    let p99 = hist.map_or(f64::NAN, |h| interpolated_percentile(&h, 99.0));
    let setups = runs.iter().map(|r| r.setup_s.len() as u64).sum();
    let nodes = workload.num_nodes() as f64;
    let metric = |value, unit, samples| Metric {
        value,
        unit,
        samples,
    };
    m.insert(
        "sim_cycles_per_s",
        metric(cycles as f64 / window_s, "1/s", repeats),
    );
    m.insert(
        "delivered_phits_per_s",
        metric(delivered as f64 / window_s, "phits/s", repeats),
    );
    let setup_s: f64 = runs.iter().map(|r| median(&r.setup_s)).sum();
    let warmup_s: f64 = runs.iter().map(|r| r.warmup_s).sum();
    m.insert(
        "wall_s",
        metric(setup_s + warmup_s + window_s, "s", repeats),
    );
    m.insert("setup_s", metric(setup_s, "s", setups));
    m.insert("peak_rss_mb", metric(peak_rss_mb(), "MiB", 1));
    m.insert(
        "accepted_load",
        metric(
            delivered as f64 / (nodes * cycles as f64),
            "phits/node/cycle",
            cycles,
        ),
    );
    m.insert(
        "latency_mean_cycles",
        metric(latency_sum / packets as f64, "cycles", packets),
    );
    m.insert("latency_p99_cycles", metric(p99, "cycles", packets));
    m.insert(
        "completion_cycles",
        metric(
            runs.iter().map(|r| r.window.completion_cycles).sum::<u64>() as f64,
            "cycles",
            runs.len() as u64,
        ),
    );
    m
}

/// Per-layer metrics of the traced run.
/// Host times in it (except set-up and topology build, calibrated as they
/// run) are scaled by `factor`, the factor at the run's median calibration.
fn per_layer(
    runs: &[MechanismRun],
    totals: &[LayerTotals],
    destination_ns: f64,
    factor: f64,
) -> BTreeMap<String, Metric> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str, samples: u64| {
        m.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    };
    let sum = |f: fn(&LayerTotals) -> u64| totals.iter().map(f).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let step_ns: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.window.step_ns.iter().copied())
        .collect();
    let steps = step_ns.len() as u64;
    put(
        "sim.step_us.p50",
        factor * percentile_u64(&step_ns, 50.0) / 1e3,
        "us",
        steps,
    );
    put(
        "sim.step_us.p99",
        factor * percentile_u64(&step_ns, 99.0) / 1e3,
        "us",
        steps,
    );
    put(
        "sim.ns_per_active_router",
        factor * ratio(sum(|t| t.step_ns), sum(|t| t.active_routers)),
        "ns",
        steps,
    );
    put(
        "sim.active_routers",
        ratio(sum(|t| t.active_routers), steps),
        "count",
        steps,
    );
    put(
        "sim.pending_events",
        ratio(sum(|t| t.pending_events), steps),
        "count",
        steps,
    );
    put(
        "sim.in_flight_packets",
        ratio(sum(|t| t.in_flight_packets), steps),
        "count",
        steps,
    );
    let new_s: Vec<f64> = runs.iter().flat_map(|r| r.new_s.iter().copied()).collect();
    put("sim.new_ms", median(&new_s) * 1e3, "ms", new_s.len() as u64);
    let state: Vec<f64> = runs.iter().map(|r| r.state_bytes as f64 / 1024.0).collect();
    put("sim.state_kb", median(&state), "KiB", state.len() as u64);
    put(
        "sim.task.pending_packets",
        ratio(sum(|t| t.task_pending_packets), steps),
        "count",
        steps,
    );
    put(
        "sim.task.rank_stall_cycles",
        runs.iter().map(|r| r.rank_stall_cycles).sum::<u64>() as f64,
        "cycles",
        runs.len() as u64,
    );
    let cycles: u64 = runs.iter().map(|r| r.window.cycles).sum();
    put(
        "sim.task.steps_per_kcycle",
        1e3 * ratio(runs.iter().map(|r| r.task_steps).sum(), cycles),
        "1/kcycle",
        cycles,
    );

    for (run, t) in runs.iter().zip(totals) {
        let name = format!("routing.decide_ns.{}", mechanism_label(run.routing));
        put(&name, factor * ratio(t.decide_ns, t.heads), "ns", t.heads);
    }
    let samples = sum(|t| t.samples);
    let heads = sum(|t| t.heads);
    put(
        "routing.heads_per_cycle",
        ratio(heads, samples),
        "count",
        samples,
    );
    put(
        "routing.minimal_output_ns",
        factor * ratio(sum(|t| t.minimal_output_ns), heads),
        "ns",
        heads,
    );
    put(
        "routing.nonminimal_frac",
        ratio(sum(|t| t.nonminimal), heads),
        "ratio",
        heads,
    );
    let packets: u64 = runs.iter().map(|r| r.window.delivered_packets).sum();
    let misrouted: f64 = runs
        .iter()
        .map(|r| r.window.global_misroute_frac * r.window.delivered_packets as f64)
        .sum();
    put(
        "routing.global_misroute_frac",
        misrouted / packets.max(1) as f64,
        "ratio",
        packets,
    );

    let calls = sum(|t| t.allocate_calls);
    put(
        "router.allocate_us",
        factor * ratio(sum(|t| t.allocate_ns), calls) / 1e3,
        "us",
        calls,
    );
    put(
        "router.grant_ratio",
        ratio(sum(|t| t.grants), sum(|t| t.requests)),
        "ratio",
        sum(|t| t.requests),
    );
    put(
        "router.queued_packets",
        ratio(sum(|t| t.queued_packets), samples),
        "count",
        samples,
    );
    put(
        "router.contention_total",
        ratio(sum(|t| t.contention_total), samples),
        "count",
        samples,
    );

    let topo_s: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.topology_s.iter().copied())
        .collect();
    put(
        "topology.build_ms",
        median(&topo_s) * 1e3,
        "ms",
        topo_s.len() as u64,
    );
    put("traffic.destination_ns", factor * destination_ns, "ns", 1);
    let generated: u64 = runs.iter().map(|r| r.window.generated_phits).sum();
    put(
        "traffic.generated_phits_per_cycle",
        ratio(generated, cycles),
        "phits/cycle",
        cycles,
    );

    // the probe's time between steps is the tracing overhead
    let step_s: f64 = runs.iter().map(|r| r.window.step_s).sum();
    let probe_s: f64 = runs.iter().map(|r| r.window.probe_s).sum();
    put(
        "trace.sim_cycles_per_s",
        cycles as f64 / (step_s + probe_s),
        "1/s",
        steps,
    );
    put(
        "trace.overhead_frac",
        probe_s / (step_s + probe_s),
        "ratio",
        steps,
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("df-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::by_name(&args.workload) else {
        eprintln!("df-benchmark: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    let mut tb = Timebase::new();
    let mut tracer = Tracer::new(args.trace);
    let mut probe = args.trace.then(|| Probe::new(workload.sample_stride));
    let mut runs = Vec::new();
    let mut totals = Vec::new();
    for (i, routing) in MECHANISMS.into_iter().enumerate() {
        tracer.set_run(i as u32);
        let run = run_mechanism(
            &workload,
            routing,
            args.seed,
            &mut tb,
            &mut tracer,
            probe.as_mut(),
        );
        eprintln!(
            "{} {}: warm-up {:.3} s, window {} cycles in {:.3} s, checks {}",
            workload.name,
            mechanism_label(routing),
            run.warmup_s,
            run.window.cycles,
            run.window.seconds,
            if run.failed() { "FAILED" } else { "ok" }
        );
        if let Some(p) = probe.as_ref() {
            totals.push(p.current.clone());
        }
        runs.push(run);
    }
    // timing repeats: whole rounds over every mechanism while the host time
    // spent in windows stays within --seconds, overshooting by at most half
    // a round (never in the traced run)
    if !args.trace {
        let spent = |runs: &[MechanismRun]| -> f64 { runs.iter().map(|r| r.host_window_s).sum() };
        let round = spent(&runs);
        while spent(&runs) + round / 2.0 < args.seconds {
            for run in &mut runs {
                run.repeat_window(&workload, &mut tb);
            }
        }
    }

    // end-to-end numbers come only from untraced runs
    let mut metrics: BTreeMap<String, Metric> = BTreeMap::new();
    let failed = runs.iter().filter(|r| r.failed()).count();
    let failed_frac = Metric {
        value: failed as f64 / runs.len() as f64,
        unit: "ratio",
        samples: runs.len() as u64,
    };
    metrics.insert("failed_frac".to_string(), failed_frac);
    let mut trace_file = String::new();
    if !args.trace {
        let e2e = end_to_end(&workload, &runs);
        metrics.extend(e2e.into_iter().map(|(k, v)| (k.to_string(), v)));
    } else {
        let topo = workload.config(MECHANISMS[0], args.seed).topology.build();
        tracer.set_run(MECHANISMS.len() as u32);
        let dest = layers::destination_ns(topo, workload.window_pattern(), 200_000, &mut tracer);
        let factor = Timebase::factor_at(median(tb.readings()));
        metrics.extend(per_layer(&runs, &totals, dest, factor));
        let out = std::path::Path::new(".bench_out");
        let _ = std::fs::create_dir_all(out);
        let path = out.join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => trace_file = path.display().to_string(),
            Err(e) => eprintln!("df-benchmark: cannot write {}: {e}", path.display()),
        }
    }

    // one JSON object, last line of stdout
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"runs\":[",
        json_str(workload.name),
        args.seed,
        u8::from(args.trace),
        runs.len(),
        failed
    );
    for (i, r) in runs.iter().enumerate() {
        let checks: Vec<String> = r
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_str(c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect();
        let _ = write!(
            out,
            "{}{{\"mechanism\":{},\"fingerprint\":{},\"window_repeats\":{},\"window_s\":[{}],\"checks\":[{}]}}",
            if i > 0 { "," } else { "" },
            json_str(mechanism_label(r.routing)),
            json_str(&r.window.fingerprint()),
            r.window_s.len(),
            r.window_s.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
            checks.join(",")
        );
    }
    out.push_str("],\"metrics\":{");
    let entries: Vec<String> = metrics
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                json_str(k),
                json_num(v.value),
                json_str(v.unit),
                v.samples
            )
        })
        .collect();
    out.push_str(&entries.join(","));
    let _ = write!(
        out,
        "}},\"provenance\":{{\"nproc\":{},\"cpu_model\":{},\"workers\":{},\"kernel\":\"{:?}\",\
         \"calibration_ns_per_hop\":{},\"calibration_readings\":{},\"reference_ns_per_hop\":{},\"calibration_sensitivity\":{}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        runs[0].config.kernel.resolved_workers(),
        runs[0].config.kernel,
        median(tb.readings()),
        tb.readings().len(),
        REFERENCE_NS_PER_HOP,
        SENSITIVITY
    );
    if args.trace {
        let spans: Vec<String> = tracer
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}:{{\"calls\":{},\"total_ms\":{},\"self_ms\":{},\"count\":{}}}",
                    json_str(name),
                    t.calls,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6,
                    t.count
                )
            })
            .collect();
        let _ = write!(
            out,
            ",\"spans\":{{{}}},\"trace_file\":{}",
            spans.join(","),
            json_str(&trace_file)
        );
    }
    out.push('}');
    println!("{out}");
}
