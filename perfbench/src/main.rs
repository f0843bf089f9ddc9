//! The repository benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload;
//! with `--trace 1` the per-layer metrics of a traced run.  The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! On the simulator, `attempted` counts the transactions due in the
//! measurement windows and `failed` those not committed exactly once in
//! agreement (see `oracle`).  Over sockets, where which transactions
//! fail depends on thread scheduling, an operation is one honest
//! replica's commit log of one cluster run, and it fails when the log
//! repeats an id or differs from replica 0's inside their common prefix;
//! the transaction-level shares are printed on standard error and show
//! in `goodput_ktps`.  `correct` is false only when one of
//! the benchmark's own checks fails (a wire round trip, traced vs
//! untraced identity, a metric that is not finite).

mod account;
mod assembly;
#[cfg(test)]
mod equivalence;
mod layers;
mod oracle;
mod probe;
mod procfs;
mod simrun;
mod sockrun;
mod workloads;

use account::{percentile, Outcome};
use layers::Metrics;
use smp_types::{SimTime, MICROS_PER_MS, MICROS_PER_SEC};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Runtime, Workload};

/// Simulated window of each pooled nominal simulation: `--seconds`
/// simulated seconds are measured as `--seconds / 4` runs with
/// different seeds (the duplicate-commit defect varies a lot by seed).
const SIM_SUB_WINDOW_S: u64 = 4;
const SUB_RUNS_MAX: u64 = 32;
/// Wall-clock window of each socket cluster run at the nominal rate:
/// `--seconds` are measured as `--seconds / 2` cluster runs.
const SOCK_SUB_WINDOW_S: u64 = 2;
/// Extra set-ups per run for the `setup_s` median: a simulator set-up
/// takes well under a millisecond, a socket cluster formation a few.
const SIM_SETUP_REPS: u64 = 2000;
const SOCK_SETUP_REPS: u64 = 300;
/// Longest window of a traced run (spans are kept in memory).
const TRACE_WINDOW: SimTime = 2 * MICROS_PER_SEC;
/// Where traced runs write their spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.workload.runtime, args.trace) {
        (Runtime::Sim, false) => sim_end_to_end(&args),
        (Runtime::Sim, true) => sim_layers(&args),
        (Runtime::Socket, false) => sock_end_to_end(&args),
        (Runtime::Socket, true) => sock_layers(&args),
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Report {
    /// Operations are the due transactions.
    fn new(o: &Outcome, correct: bool, metrics: Metrics) -> Self {
        Report {
            correct,
            attempted: o.due,
            failed: o.failed(),
            metrics,
        }
    }

    /// Operations are the honest commit logs.
    fn per_log(o: &Outcome, correct: bool, metrics: Metrics) -> Self {
        Report {
            correct,
            attempted: o.logs,
            failed: o.logs_failed,
            metrics,
        }
    }

    fn json(&self) -> String {
        let finite = self.metrics.0.iter().all(|(_, v, _)| v.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The `q`-quantile of `xs`, interpolating between neighbours.
fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return f64::NAN;
    }
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn median(xs: Vec<f64>) -> f64 {
    quantile(xs, 0.5)
}

fn ms(us: f64) -> f64 {
    us / MICROS_PER_MS as f64
}

fn p50_ms(o: &Outcome) -> f64 {
    ms(percentile(&o.latencies, 0.50))
}

fn p99_ms(o: &Outcome) -> f64 {
    ms(percentile(&o.latencies, 0.99))
}

/// Prints the oracle's findings for a run.
fn describe(label: &str, o: &Outcome) {
    let f = &o.failures;
    eprintln!(
        "{label}: due={} agreed={} failed={} ({:.1}%) [duplicate={} gap={} divergent={} uncommitted={} unsealed={}]",
        o.due,
        o.agreed,
        o.failed(),
        100.0 * o.failed() as f64 / o.due.max(1) as f64,
        f.duplicate,
        f.gap,
        f.divergent,
        f.uncommitted,
        f.unsealed
    );
    let v = &o.verdict;
    let diverging: Vec<String> = v
        .first_divergence
        .iter()
        .enumerate()
        .filter_map(|(r, d)| d.map(|k| format!("{r}@{k}")))
        .collect();
    eprintln!(
        "{label}: observer log {} entries, {} repeats; {} of {} honest logs repeat an id or diverge; first divergent index per honest replica (replica@index): {}",
        v.observer_entries,
        v.observer_repeats,
        o.logs_failed,
        o.logs,
        if diverging.is_empty() {
            "none".to_string()
        } else {
            diverging.join(" ")
        }
    );
    eprintln!(
        "{label}: goodput {:.3} ktx/s, observer commits {:.3} ktx/s, p50 {:.2} ms, p99 {:.2} ms over {} latency samples ({} sealed txs missing at the observer)",
        o.goodput_ktps(),
        o.observer_ktps(),
        p50_ms(o),
        p99_ms(o),
        o.latency_samples(),
        o.missing_at_observer
    );
}

/// `capacity_ktps`: the highest observer commit rate over the ladder,
/// climbing while the rung's p50 stays within the workload's limit.
/// Each rung also prints whether it meets the stricter rule
/// "goodput ≥ 95 % of offered and p99 ≤ limit", which no rung of a
/// kept workload meets today.
fn capacity(
    w: &Workload,
    mut rung: impl FnMut(f64) -> Result<Outcome, String>,
) -> Result<f64, String> {
    let limit_ms = ms(w.limit as f64);
    let mut cap: f64 = 0.0;
    for &rate in w.ladder {
        let o = rung(rate)?;
        let within = p50_ms(&o) <= limit_ms;
        let strict = o.goodput_ktps() >= 0.95 * rate / 1e3 && p99_ms(&o) <= limit_ms;
        eprintln!(
            "ladder {:>7.0} tx/s: observer {:.3} ktx/s, goodput {:.3} ktx/s, p50 {:.2} ms, p99 {:.2} ms; p50 within {limit_ms} ms: {within}; goodput and p99 rule: {strict}",
            rate,
            o.observer_ktps(),
            o.goodput_ktps(),
            p50_ms(&o),
            p99_ms(&o),
        );
        if !within {
            break;
        }
        cap = cap.max(o.observer_ktps());
    }
    Ok(cap)
}

/// The end-to-end figures of a workload.
struct EndToEnd {
    goodput_ktps: f64,
    p50_ms: f64,
    p99_ms: f64,
    capacity_ktps: f64,
    ktx_per_cpu_s: f64,
    peak_rss_mb: f64,
    setup_s: f64,
}

impl EndToEnd {
    /// The figures `o` determines on its own; `cpu_s` is what it cost.
    fn of(o: &Outcome, cpu_s: f64) -> Self {
        EndToEnd {
            goodput_ktps: o.goodput_ktps(),
            p50_ms: p50_ms(o),
            p99_ms: p99_ms(o),
            capacity_ktps: 0.0,
            ktx_per_cpu_s: o.agreed as f64 / 1e3 / cpu_s,
            peak_rss_mb: procfs::peak_rss_mib(),
            setup_s: f64::NAN,
        }
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("goodput_ktps", self.goodput_ktps, "ktx/s");
        m.put("commit_p50_ms", self.p50_ms, "ms");
        m.put("commit_p99_ms", self.p99_ms, "ms");
        m.put("capacity_ktps", self.capacity_ktps, "ktx/s");
        m.put("ktx_per_cpu_s", self.ktx_per_cpu_s, "ktx/cpu-s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("setup_s", self.setup_s, "s");
        m
    }
}

/// Seed of the `j`-th nominal run or set-up of a process.
fn sub_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(SUB_RUNS_MAX).wrapping_add(j)
}

/// Pools `o` into `into`.
fn pool(into: &mut Option<Outcome>, o: Outcome) {
    match into.as_mut() {
        None => *into = Some(o),
        Some(p) => p.pool(o),
    }
}

/// Prints how many set-ups were made since `t` and their median.
fn print_setups(setup: &[f64], t: Instant) {
    eprintln!(
        "{} set-ups in {:.3} s, median {:.6} s",
        setup.len(),
        t.elapsed().as_secs_f64(),
        median(setup.to_vec())
    );
}

fn sim_end_to_end(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let t = Instant::now();
    let mut setup: Vec<f64> = (0..SIM_SETUP_REPS)
        .map(|j| {
            let config = w.config(w.nominal_tps, sub_seed(a.seed, j % SUB_RUNS_MAX));
            let t = Instant::now();
            drop(simrun::assemble(&config, false, t));
            t.elapsed().as_secs_f64()
        })
        .collect();
    print_setups(&setup, t);
    // Simulations are deterministic per seed: pool several seeds.
    let runs = (a.seconds / SIM_SUB_WINDOW_S).clamp(1, SUB_RUNS_MAX);
    let mut pooled = None;
    let mut cpu_s = 0.0;
    for j in 0..runs {
        let window = SIM_SUB_WINDOW_S * MICROS_PER_SEC;
        let r = simrun::run(w, w.nominal_tps, sub_seed(a.seed, j), window, false);
        describe(&format!("{} seed {}", w.name, r.config.seed), &r.outcome);
        eprintln!(
            "{} seed {}: {:.3} agreed ktx in {:.3} CPU-s",
            w.name,
            r.config.seed,
            r.outcome.agreed as f64 / 1e3,
            r.cpu_s
        );
        setup.push(r.setup_s);
        cpu_s += r.cpu_s;
        pool(&mut pooled, r.outcome);
    }
    let nominal = pooled.expect("at least one run");
    let mut e2e = EndToEnd::of(&nominal, cpu_s);
    e2e.setup_s = median(setup);
    e2e.capacity_ktps = capacity(w, |rate| {
        Ok(if rate == w.nominal_tps {
            nominal.clone_summary()
        } else {
            simrun::run(w, rate, a.seed, w.rung_window, false).outcome
        })
    })?;
    Ok(Report::new(&nominal, true, e2e.metrics()))
}

fn sock_end_to_end(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    // The dial backoff jitter depends on the seed: vary it.
    let mut setup = Vec::new();
    let t = Instant::now();
    for j in 0..SOCK_SETUP_REPS {
        setup.push(
            sockrun::form_only(w, sub_seed(a.seed, j % SUB_RUNS_MAX)).map_err(|e| e.to_string())?,
        );
    }
    print_setups(&setup, t);
    // Wall-clock runs are noisy: measure several clusters and report the
    // median of each figure, but the first quartile of the latency
    // percentiles.  Other tenants of a shared host can only add
    // latency, so the runs they disturb least show the program's own.
    let runs = (a.seconds / SOCK_SUB_WINDOW_S).clamp(1, SUB_RUNS_MAX);
    let mut per_run = Vec::new();
    let mut pooled = None;
    for j in 0..runs {
        let window = SOCK_SUB_WINDOW_S * MICROS_PER_SEC;
        let r = sockrun::run(w, w.nominal_tps, sub_seed(a.seed, j), window, false)
            .map_err(|e| e.to_string())?;
        describe(&format!("{} run {j}", w.name), &r.outcome);
        setup.push(r.setup_s);
        per_run.push(EndToEnd::of(&r.outcome, r.cpu_s));
        pool(&mut pooled, r.outcome);
    }
    let nominal = pooled.expect("at least one run");
    let at = |q: f64, f: fn(&EndToEnd) -> f64| quantile(per_run.iter().map(f).collect(), q);
    let med = |f: fn(&EndToEnd) -> f64| at(0.5, f);
    let mut e2e = EndToEnd {
        goodput_ktps: med(|e| e.goodput_ktps),
        p50_ms: at(0.25, |e| e.p50_ms),
        p99_ms: at(0.25, |e| e.p99_ms),
        capacity_ktps: 0.0,
        ktx_per_cpu_s: med(|e| e.ktx_per_cpu_s),
        peak_rss_mb: procfs::peak_rss_mib(),
        setup_s: median(setup),
    };
    eprintln!(
        "{} over {runs} runs: {} of {} due txs failed ({:.1}%); {} of {} honest logs repeat an id or diverge",
        w.name,
        nominal.failed(),
        nominal.due,
        100.0 * nominal.failed() as f64 / nominal.due.max(1) as f64,
        nominal.logs_failed,
        nominal.logs
    );
    predict(w, a, &nominal);
    e2e.capacity_ktps = capacity(w, |rate| {
        sockrun::run(w, rate, a.seed, w.rung_window, false)
            .map(|r| r.outcome)
            .map_err(|e| e.to_string())
    })?;
    Ok(Report::per_log(&nominal, true, e2e.metrics()))
}

/// The simulator's prediction for the socket workload's config and seed,
/// as sim/socket ratios of goodput, p50 and p99.
fn predict(w: &Workload, a: &Args, sock: &Outcome) -> [f64; 3] {
    let window = SOCK_SUB_WINDOW_S * MICROS_PER_SEC;
    let sim = simrun::run(w, w.nominal_tps, a.seed, window, false).outcome;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let r = [
        ratio(sim.goodput_ktps(), sock.goodput_ktps()),
        ratio(p50_ms(&sim), p50_ms(sock)),
        ratio(p99_ms(&sim), p99_ms(sock)),
    ];
    eprintln!(
        "simulator prediction: goodput {:.3} ktx/s, p50 {:.2} ms, p99 {:.2} ms; sim/socket ratios: goodput {:.3}, p50 {:.3}, p99 {:.3}",
        sim.goodput_ktps(),
        p50_ms(&sim),
        p99_ms(&sim),
        r[0],
        r[1],
        r[2]
    );
    r
}

/// The layers both runtimes have; returns `false` if a wire round trip
/// or a signature check fails.
fn common_layers(
    m: &mut Metrics,
    outcome: &Outcome,
    recs: &[&probe::Recorder],
    view_changes: u64,
    samples: &HashMap<&'static str, Vec<assembly::Msg>>,
) -> bool {
    let kinds = layers::merged_kinds(recs.iter().copied());
    layers::handler_layers(m, &kinds);
    m.put("consensus.view_changes", view_changes as f64, "count");
    let mut proposals = HashMap::new();
    for rec in recs {
        proposals.extend(rec.proposals.iter().map(|(k, v)| (*k, *v)));
    }
    let empty = proposals.values().filter(|e| **e).count();
    m.put(
        "consensus.empty_proposal_share",
        empty as f64 / proposals.len().max(1) as f64,
        "share",
    );
    let v = &outcome.verdict;
    m.put(
        "stratus.dup_commit_share",
        v.observer_repeats as f64 / v.observer_entries.max(1) as f64,
        "share",
    );
    let fetches = ["fetch-req", "fetch-resp"]
        .iter()
        .map(|k| kinds.get(k).map_or(0, |s| s.calls))
        .sum::<u64>();
    let due_ktx = outcome.due.max(1) as f64 / 1e3;
    m.put(
        "stratus.fetch.msgs_per_ktx",
        fetches as f64 / due_ktx,
        "msgs/ktx",
    );
    m.put(
        "workload.gen_shortfall_share",
        outcome.failures.unsealed as f64 / outcome.due.max(1) as f64,
        "share",
    );
    let wire_ok = layers::wire_replay(m, samples);
    let crypto_ok = layers::crypto(m);
    wire_ok && crypto_ok
}

fn write_spans(a: &Args, recs: &[&probe::Recorder]) {
    let path = format!("{TRACE_DIR}/{}-seed{}.tsv", a.workload.name, a.seed);
    let mut out = String::from("node\tkind\tat_us\tstart_ns\tend_ns\tcause\n");
    for rec in recs {
        for s in &rec.spans {
            let cause = if s.cause == u32::MAX {
                "-".to_string()
            } else {
                s.cause.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{cause}",
                s.node, s.kind, s.at, s.start_ns, s.end_ns
            );
        }
    }
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|_| std::fs::write(&path, out));
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn sim_layers(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let window = (a.seconds * MICROS_PER_SEC).min(TRACE_WINDOW);
    // Untraced before and after the traced run, so neither gets the warm
    // heap alone.
    let plain = simrun::run(w, w.nominal_tps, a.seed, window, false);
    let traced = simrun::run(w, w.nominal_tps, a.seed, window, true);
    let plain_s = (plain.run_s + simrun::run(w, w.nominal_tps, a.seed, window, false).run_s) / 2.0;
    let identical = (0..plain.config.n).all(|i| {
        probe::CommitLog::commit_log(plain.sim.node(i).inner())
            == probe::CommitLog::commit_log(traced.sim.node(i).inner())
    });
    if !identical {
        eprintln!("traced run committed differently from the untraced one");
    }
    describe(w.name, &traced.outcome);
    let recs: Vec<&probe::Recorder> = traced.sim.nodes().iter().map(|n| &n.rec).collect();
    let busy_ns: u64 = recs.iter().map(|r| r.busy_ns()).sum();
    let calls: u64 = recs.iter().map(|r| r.calls()).sum();
    let events = traced.sim.events_processed();
    let self_ms = traced.run_s * 1e3 - busy_ns as f64 / 1e6;
    let mut m = Metrics::default();
    simnet_layers(
        &mut m,
        [
            events as f64,
            events as f64 / calls.max(1) as f64,
            self_ms,
            self_ms * 1e6 / events.max(1) as f64,
        ],
    );
    let honest = assembly::honest(&traced.config);
    let view_changes = honest
        .iter()
        .map(|&i| traced.sim.node(i).inner().metrics().view_changes)
        .sum();
    let ok = common_layers(
        &mut m,
        &traced.outcome,
        &recs,
        view_changes,
        &traced.sim.node(0).samples,
    );
    net_layers(&mut m, None);
    let overhead_s = traced.run_s - plain_s;
    m.put("trace.overhead_ms", overhead_s * 1e3, "ms");
    m.put("trace.overhead_share", overhead_s / plain_s, "share");
    for name in SIM_VS_SOCK {
        m.put(*name, 0.0, "ratio");
    }
    write_spans(a, &recs);
    Ok(Report::new(&traced.outcome, ok && identical, m))
}

/// The `simnet.*` layer: events, events per handler call, self time
/// and self time per event (zeros for the socket runtime).
fn simnet_layers(m: &mut Metrics, v: [f64; 4]) {
    m.put("simnet.events", v[0], "count");
    m.put("simnet.events_per_handler_call", v[1], "ratio");
    m.put("simnet.self_ms", v[2], "ms");
    m.put("simnet.ns_per_event", v[3], "ns");
}

const SIM_VS_SOCK: &[&str] = &[
    "sim_vs_sock.goodput_ratio",
    "sim_vs_sock.p50_ratio",
    "sim_vs_sock.p99_ratio",
];

/// The `net.*` layer: zeros for the simulator.
fn net_layers(m: &mut Metrics, sock: Option<(&sockrun::SockRun, f64)>) {
    let (frames_per_ktx, bytes_per_tx, self_cpu_ms, hwm, stalls) = match sock {
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
        Some((r, busy_ms)) => {
            let due = r.outcome.due.max(1) as f64;
            let (hwm, stalls) = sockrun::queue_stats(&r.stats, r.nodes.len());
            (
                r.frames_out as f64 / (due / 1e3),
                r.bytes_out as f64 / due,
                r.cpu_s * 1e3 - busy_ms,
                hwm as f64,
                stalls as f64,
            )
        }
    };
    m.put("net.frames_per_ktx", frames_per_ktx, "frames/ktx");
    m.put("net.bytes_per_tx", bytes_per_tx, "B");
    m.put("net.self_cpu_ms", self_cpu_ms, "ms");
    m.put("net.queue_hwm", hwm, "frames");
    m.put("net.enqueue_stalls", stalls, "count");
}

fn sock_layers(a: &Args) -> Result<Report, String> {
    let w = a.workload;
    let window = (a.seconds * MICROS_PER_SEC).min(TRACE_WINDOW);
    let untraced = || {
        sockrun::run(w, w.nominal_tps, a.seed, window, false)
            .map(|r| r.cpu_s)
            .map_err(|e| e.to_string())
    };
    let plain_cpu_s = untraced()?;
    let traced = sockrun::run(w, w.nominal_tps, a.seed, window, true).map_err(|e| e.to_string())?;
    let plain_cpu_s = (plain_cpu_s + untraced()?) / 2.0;
    describe(w.name, &traced.outcome);
    let recs: Vec<&probe::Recorder> = traced.nodes.iter().map(|n| &n.rec).collect();
    let busy_ms = recs.iter().map(|r| r.busy_ns()).sum::<u64>() as f64 / 1e6;
    let mut m = Metrics::default();
    simnet_layers(&mut m, [0.0; 4]);
    let honest = assembly::honest(&w.config(w.nominal_tps, a.seed));
    let view_changes = honest
        .iter()
        .map(|&i| traced.nodes[i].inner().metrics().view_changes)
        .sum();
    let ok = common_layers(
        &mut m,
        &traced.outcome,
        &recs,
        view_changes,
        &traced.nodes[0].samples,
    );
    net_layers(&mut m, Some((&traced, busy_ms)));
    // Wall time is fixed by the horizon; the overhead shows as CPU.
    let overhead_s = traced.cpu_s - plain_cpu_s;
    m.put("trace.overhead_ms", overhead_s * 1e3, "ms");
    m.put("trace.overhead_share", overhead_s / plain_cpu_s, "share");
    let ratios = predict(w, a, &traced.outcome);
    for (name, r) in SIM_VS_SOCK.iter().zip(ratios) {
        m.put(*name, r, "ratio");
    }
    write_spans(a, &recs);
    Ok(Report::per_log(&traced.outcome, ok, m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(vec![1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert!(median(Vec::new()).is_nan());
    }
}
