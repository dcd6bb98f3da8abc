//! `e2ebench` — end-to-end benchmark of CPR with per-layer attribution.
//!
//! ```text
//! e2ebench --workload <serial|fit_2t> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up the whole stack from the seed, then measures four
//! phases: `apps_fit` (the paper's six fits), `apps_predict` (scoring the
//! test sets through `PredictPlan::predict_into`), `wire_serve`
//! (closed-loop HTTP over loopback) and `refit_churn` (telemetry → gated
//! swap → fsynced snapshot, beside in-process reads). The phases run in
//! interleaved cycles, so each one samples the whole run rather than one
//! stretch of host contention. `fit_2t` runs the fit phase at two threads;
//! everything else runs at `CPR_NUM_THREADS=1`. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` the per-layer ones. A failed correctness check prints
//! `"correct": false` and exits 1. `README.md` beside this crate defines
//! every metric.

mod env;
mod fit;
mod inputs;
mod ledger;
mod refit;
mod report;
mod spans;
mod stats;
mod wire;

use cpr_core::CprModel;
use env::Env;
use ledger::Ledger;
use report::Report;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Measurement cycles per run; every phase runs once per cycle, and each
/// cycle ends with one more complete set-up, timed and closed, so the
/// run's `CYCLES + 1` set-ups sample the whole run as the phases do.
const CYCLES: usize = 12;
/// Shares of `--seconds` given to the time-boxed phases. `refit_churn`
/// runs a fixed number of rounds instead (`inputs::REFIT_ROUNDS`, split
/// evenly over the cycles).
const FIT_SHARE: f64 = 0.28;
const PREDICT_SHARE: f64 = 0.09;
const WIRE_SHARE: f64 = 0.28;
/// Safety cap on one refit episode. An episode takes well under 2 s: ten
/// rounds plus at most 0.3 s of breaker waits (`inputs::MAX_TRIPS`).
/// Reaching the cap means the pipeline stopped making progress, which
/// fails the run; the cap keeps even such a run inside three minutes.
const REFIT_CAP: Duration = Duration::from_secs(8);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serial,
    Fit2t,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serial" => Some(Self::Serial),
            "fit_2t" => Some(Self::Fit2t),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Fit2t => "fit_2t",
        }
    }

    /// Threads of the fit phase.
    fn fit_threads(self) -> usize {
        match self {
            Self::Serial => 1,
            Self::Fit2t => 2,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    // Every parallel region defaults to one thread; `fit_2t` widens only
    // its fit phase through `ThreadPool::install`.
    std::env::set_var("CPR_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <serial|fit_2t> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let report = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    for line in report.lines() {
        println!("{line}");
    }
    for v in &report.violations {
        println!("CHECK FAILED: {v}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// A fixed single-threaded reference loop, ms: the host-drift canary.
fn calib_ms() -> f64 {
    let t = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0.0f64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16;
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Per-cycle latency summary of a closed loop: (p50, tail, rate).
struct Slice {
    p50: f64,
    tail: stats::Tail,
    rate: f64,
    traced: bool,
}

/// Everything the cycles accumulate.
#[derive(Default)]
struct Acc {
    fit_s: Vec<f64>,
    fit_traced_s: Vec<f64>,
    fit_mismatches: usize,
    models: Vec<Option<CprModel>>,
    fits: Ledger,
    predict_s: Vec<f64>,
    predict_bad: usize,
    wire: Vec<Slice>,
    wire_ledger: Ledger,
    wire_lat_sum: f64,
    wire_lat_n: usize,
    reconnects: u64,
    refit: refit::RefitRun,
    reads: Vec<Slice>,
    episodes: Vec<refit::EpisodeEnd>,
    /// (count, sum µs) of `REFIT_HISTS` over all episodes.
    refit_hists: [(u64, u64); 2],
}

/// The in-program refit histograms the traced run attributes time from.
const REFIT_HISTS: [&str; 2] = ["cpr_pipeline_refit_us", "cpr_store_persist_us"];

fn run(args: &Args, scratch: &Path) -> Report {
    let calib_start = calib_ms();
    let started = Instant::now();

    let mut env = env::setup(args.seed, scratch, 0);
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let steps: Vec<String> = env
        .steps
        .iter()
        .map(|(n, s)| format!("{n}={s:.3}"))
        .collect();
    eprintln!("setup steps (first set-up): {}", steps.join(" "));

    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch);
    let mut off = Tracer::new(false, epoch);
    let per_cycle = |share: f64| Duration::from_secs_f64(args.seconds * share / CYCLES as f64);
    let fit_pool = pool(args.workload.fit_threads());
    let server = env.wire.server.take().expect("server bound at set-up");
    let wire_obs = env.wire.registry.obs().clone();
    let hist0 = wire_hists(&wire_obs);
    let wire_stats0 = env.wire.registry.stats();
    let mut cursor = vec![0usize; env.wire.pools.len()];
    let mut acc = Acc::default();
    let (mut fit_no, mut predict_no) = (0u64, 0u64);

    for cycle in 0..CYCLES {
        // Traced runs trace every other cycle: the difference is the
        // tracing overhead.
        let traced = args.trace && cycle % 2 == 1;
        let tr = if traced { &mut tracer } else { &mut off };

        // apps_fit: at least one pass per cycle.
        let end = Instant::now() + per_cycle(FIT_SHARE);
        loop {
            let (secs, m) = fit::fit_pass(&env.apps, &fit_pool, tr, fit_no);
            fit_no += 1;
            if traced {
                acc.fit_traced_s.push(secs);
            } else {
                acc.fit_s.push(secs);
            }
            acc.fit_mismatches += fit::check_fits(&env.apps, &m, &mut acc.fits);
            acc.models = m;
            if Instant::now() >= end {
                break;
            }
        }

        // apps_predict on the pass's fits.
        let fitted: Vec<&CprModel> = acc
            .models
            .iter()
            .zip(&env.apps)
            .map(|(m, a)| m.as_ref().unwrap_or(a.tracker.model()))
            .collect();
        let mut outs: Vec<Vec<f64>> = env
            .apps
            .iter()
            .map(|a| vec![0.0; a.data.test_x.len()])
            .collect();
        let end = Instant::now() + per_cycle(PREDICT_SHARE);
        loop {
            let (secs, same) = fit::predict_pass(&env.apps, &fitted, &mut outs, tr, predict_no);
            predict_no += 1;
            acc.predict_s.push(secs);
            acc.predict_bad += usize::from(!same);
            if Instant::now() >= end {
                break;
            }
        }

        // wire_serve: one closed-loop slice.
        let mut w = wire::closed_loop(
            server.local_addr(),
            &env.wire.pools,
            &mut cursor,
            per_cycle(WIRE_SHARE),
            tr,
            (cycle as u64) << 48,
        );
        acc.wire_lat_sum += w.lat_us.iter().sum::<f64>();
        acc.wire_lat_n += w.lat_us.len();
        let answered = w.ledger.attempted - w.ledger.failed;
        let (p50, tail) = wire::summarize(&mut w.lat_us);
        acc.wire.push(Slice {
            p50,
            tail,
            rate: answered as f64 / w.wall_s,
            traced,
        });
        acc.wire_ledger.merge(&w.ledger);
        acc.reconnects += w.reconnects;

        // refit_churn: one episode per cycle, each on a fresh pipeline and
        // store from the set-up trainers.
        if cycle > 0 {
            env.refit.close();
            env.refit = env::RefitEnv::open(&env.apps, scratch.join(format!("store-{cycle}")));
        }
        let rounds =
            inputs::REFIT_ROUNDS * cycle / CYCLES..inputs::REFIT_ROUNDS * (cycle + 1) / CYCLES;
        let cap = Instant::now() + REFIT_CAP;
        let (mut ep, capped) = refit::rounds(&env.refit, &env.apps, &env.reads, rounds, cap, tr);
        let (p50, tail) = wire::summarize(&mut ep.read_us);
        acc.reads.push(Slice {
            p50,
            tail,
            rate: 0.0,
            traced,
        });
        acc.refit.absorb(ep);
        let obs = env.refit.registry.obs().clone();
        let end = refit::end_episode(&mut env.refit, &env.apps, capped);
        acc.episodes.push(end);
        for (h, name) in acc.refit_hists.iter_mut().zip(REFIT_HISTS) {
            let (n, sum) = wire::hist_read(&obs, name);
            h.0 += n;
            h.1 += sum;
        }

        let t = Instant::now();
        let again = env::setup(args.seed, scratch, cycle + 1);
        setup_s.push(t.elapsed().as_secs_f64());
        again.close();
    }

    // Per-cycle figures, for reading drift within a run.
    let cyc = |v: &[Slice], f: fn(&Slice) -> f64| {
        v.iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect::<Vec<_>>()
            .join(",")
    };
    eprintln!(
        "cycles: wire_p50 [{}] wire_p99 [{}] wire_rps [{}] read_p50 [{}] read_p99 [{}] predict_s {:.4?}",
        cyc(&acc.wire, |s| s.p50),
        cyc(&acc.wire, |s| s.tail.value),
        cyc(&acc.wire, |s| s.rate),
        cyc(&acc.reads, |s| s.p50),
        cyc(&acc.reads, |s| s.tail.value),
        acc.predict_s
    );

    let mut r = Report::default();
    // Per-layer metrics; the two quality figures land here in every run.
    let mut l = Report::default();
    let fit_books = finish_fit(args, &env, &acc, &mut r, &mut l);
    let wire_stats1 = env.wire.registry.stats();
    let drain = server.drain();
    let fs = &drain.final_stats;
    r.check(fs.identity_holds(), || {
        format!("server accounting identity broken at drain: {fs:?}")
    });
    finish_wire(&acc, &mut r, &mut l);
    let refit_books = finish_refit(&env, &acc, &mut r, &mut l);

    let calib_end = calib_ms();
    // The fastest set-up, as for the other timings: one set-up is short
    // enough (~0.5 s) that host contention moved a median of three by up
    // to 35% between runs.
    r.add(
        "setup_s",
        best(&setup_s, f64::min),
        "s",
        format!(
            "fastest of n={} set-ups (median {:.4}): {setup_s:.3?}",
            setup_s.len(),
            stats::median(&setup_s)
        ),
    );
    // Per layer, not end to end: it read 103-221 MiB from run to run
    // (which allocator arena each short-lived thread lands in, and the
    // per-cycle set-up beside the live one), too wide for a bound.
    l.add("peak_rss_mib", peak_rss_mib(), "MiB", "VmHWM");
    let phases = [
        ("fits", &fit_books),
        ("wire", &acc.wire_ledger),
        ("refit", &refit_books),
        ("reads", &acc.refit.reads),
    ];
    let worst = phases.iter().map(|(_, l)| l.ok_ratio()).fold(1.0, f64::min);
    let note: Vec<String> = phases
        .iter()
        .map(|(n, l)| format!("{n}: {}", l.describe()))
        .collect();
    for (_, l) in phases {
        r.ledger.merge(l);
    }
    r.add(
        "ok_ratio",
        worst,
        "ratio",
        format!("min over phases; {}", note.join("; ")),
    );
    eprintln!(
        "host.calib_ms start={calib_start:.3} end={calib_end:.3} (run took {:.1}s)",
        started.elapsed().as_secs_f64()
    );
    println!("# host.calib_ms start={calib_start:.3} end={calib_end:.3}");
    if !args.trace {
        for line in l.lines() {
            println!("# {line}");
        }
        env.close();
        return r;
    }

    // --- traced run: per-layer attribution --------------------------------
    let hist1 = wire_hists(&wire_obs);
    fit_layers(&env, &mut tracer, &acc, &mut l, &mut r);
    wire_layers(
        &env,
        &acc,
        &hist0,
        &hist1,
        &wire_stats0,
        &wire_stats1,
        fs,
        &mut tracer,
        &mut l,
        &mut r,
    );
    refit_layers(&env, &acc, scratch, &mut tracer, &mut l, &mut r);
    let overheads: Vec<&report::Metric> = r
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("trace."))
        .collect();
    let worst = overheads
        .iter()
        .map(|m| m.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let detail: Vec<String> = overheads
        .iter()
        .map(|m| format!("{} {:.2} ({})", m.name, m.value, m.note))
        .collect();
    l.add(
        "trace.overhead_pct",
        worst,
        "%",
        format!("max of: {}", detail.join("; ")),
    );
    l.add(
        "host.calib_ms",
        0.5 * (calib_start + calib_end),
        "ms",
        format!("mean of start {calib_start:.3} and end {calib_end:.3}"),
    );
    env.close();

    let path = scratch.parent().unwrap_or(scratch).join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = spans::write_tsv(tracer.spans(), &mut f);
            eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            );
        }
        Err(e) => eprintln!("spans not written: {e}"),
    }
    for (name, (n, total, own)) in spans::totals(tracer.spans()) {
        eprintln!(
            "span {name:<22} n={n:<8} total={:.3}ms self={:.3}ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    // The traced run reports the per-layer metrics; its end-to-end
    // figures stay on stdout as comments.
    for line in r.lines() {
        println!("# e2e {line}");
    }
    l.violations = std::mem::take(&mut r.violations);
    l.ledger = std::mem::take(&mut r.ledger);
    l
}

/// The in-program server histograms the traced run attributes time from.
const WIRE_HISTS: [&str; 3] = [
    "cpr_server_request_predict_us",
    "cpr_server_predict_service_us",
    "cpr_server_admission_wait_us",
];

fn wire_hists(obs: &cpr_obs::MetricsRegistry) -> Vec<(u64, u64)> {
    WIRE_HISTS.iter().map(|n| wire::hist_read(obs, n)).collect()
}

/// Mean of histogram `i` between two reads, in its own unit (µs).
fn hist_mean(h0: &[(u64, u64)], h1: &[(u64, u64)], i: usize) -> (f64, u64) {
    let n = h1[i].0 - h0[i].0;
    ((h1[i].1 - h0[i].1) as f64 / n.max(1) as f64, n)
}

fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    stats::median(&slices.iter().map(f).collect::<Vec<_>>())
}

/// The best value under `pick` (`f64::min` for times, `f64::max` for
/// rates): the least-contended pass or cycle of the run.
fn best(xs: &[f64], pick: fn(f64, f64) -> f64) -> f64 {
    xs.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// Wire cycles passed over before the best is taken. A wire cycle's
/// figures depend on how the scheduler places four busy threads (two
/// clients, two server workers) on two vCPUs, and one or two cycles of a
/// run land a lucky placement that the next run may not get. In two
/// five-seed probes the best cycle's `wire_p99_us` spread 19-24% between
/// runs, the third best's 10-11%.
const WIRE_LUCKY: usize = 2;

/// The best cycle under `pick` once the `skip` best are passed over.
fn best_of(
    slices: &[Slice],
    f: impl Fn(&Slice) -> f64,
    pick: fn(f64, f64) -> f64,
    skip: usize,
) -> f64 {
    let mut xs: Vec<f64> = slices.iter().map(f).collect();
    for _ in 0..skip.min(xs.len().saturating_sub(1)) {
        let b = best(&xs, pick);
        let i = xs.iter().position(|&x| x == b).expect("best is an element");
        xs.swap_remove(i);
    }
    best(&xs, pick)
}

/// "best of n cycles" (or "k-th best") and every cycle's tail label.
fn tail_note(slices: &[Slice], skip: usize) -> String {
    let labels: Vec<String> = slices
        .iter()
        .map(|s| {
            let clamped = if s.tail.is_full(0.99) { "" } else { " CLAMPED" };
            format!("{}{clamped}", s.tail.label())
        })
        .collect();
    format!(
        "{} of {} cycles: {}",
        rank(skip),
        slices.len(),
        labels.join(", ")
    )
}

fn rank(skip: usize) -> String {
    match skip {
        0 => "best".into(),
        1 => "2nd best".into(),
        2 => "3rd best".into(),
        k => format!("{}th best", k + 1),
    }
}

fn finish_fit(args: &Args, env: &Env, acc: &Acc, r: &mut Report, l: &mut Report) -> Ledger {
    let threads = args.workload.fit_threads();
    let mismatches = acc.fit_mismatches;
    r.check(mismatches == 0, || {
        format!("{mismatches} fits at {threads} thread(s) differ from the 1-thread reference")
    });
    let all_fit = acc.models.iter().all(Option::is_some);
    r.check(all_fit, || "an app fit failed".into());
    let (per_app, bytes) = if all_fit {
        fit::quality(&env.apps, &acc.models)
    } else {
        (vec![f64::NAN], 0)
    };
    let bad = acc.predict_bad;
    r.check(bad == 0, || {
        format!("{bad} predict_into passes differ from the reference predictions")
    });
    r.add(
        "fit_s",
        best(&acc.fit_s, f64::min),
        "s",
        format!(
            "fastest of n={} passes (median {:.4}), 6 apps x {} samples, {threads} thread(s): {:.3?}",
            acc.fit_s.len(),
            stats::median(&acc.fit_s),
            inputs::TRAIN_PER_APP,
            acc.fit_s
        ),
    );
    l.add(
        "fit_mlogq",
        stats::mean(&per_app),
        "MLogQ",
        format!("mean test-set MLogQ of the 6 fits: {per_app:.4?}"),
    );
    r.add(
        "model_kib",
        bytes as f64 / 1024.0,
        "KiB",
        "sum of size_bytes of the 6 fits",
    );
    let queries: usize = env.apps.iter().map(|a| a.data.test_x.len()).sum();
    r.add(
        "predict_mqps",
        queries as f64 / best(&acc.predict_s, f64::min) / 1e6,
        "Mq/s",
        format!(
            "{queries} test configs per pass, fastest of n={} passes (median {:.4} Mq/s)",
            acc.predict_s.len(),
            queries as f64 / stats::median(&acc.predict_s) / 1e6
        ),
    );
    acc.fits.clone()
}

fn finish_wire(acc: &Acc, r: &mut Report, layers: &mut Report) {
    let l = &acc.wire_ledger;
    r.check(l.failed == 0, || format!("wire failures: {}", l.describe()));
    let answered = l.attempted - l.failed;
    // Per layer, not end to end: wake-up bound, it tracks host contention
    // (see README, "Host contention").
    layers.add(
        "wire_p50_us",
        best_of(&acc.wire, |s| s.p50, f64::min, WIRE_LUCKY),
        "us",
        format!(
            "{} of {} cycle medians (median {:.3}), n={answered}",
            rank(WIRE_LUCKY),
            acc.wire.len(),
            median_of(&acc.wire, |s| s.p50)
        ),
    );
    r.add(
        "wire_rps",
        best_of(&acc.wire, |s| s.rate, f64::max, WIRE_LUCKY),
        "1/s",
        format!(
            "{} of {} cycles (median {:.0}); {answered} responses over 2 connections, {} reconnects",
            rank(WIRE_LUCKY),
            acc.wire.len(),
            median_of(&acc.wire, |s| s.rate),
            acc.reconnects
        ),
    );
    r.add(
        "wire_p99_us",
        best_of(&acc.wire, |s| s.tail.value, f64::min, WIRE_LUCKY),
        "us",
        tail_note(&acc.wire, WIRE_LUCKY),
    );
}

fn finish_refit(env: &Env, acc: &Acc, r: &mut Report, l: &mut Report) -> Ledger {
    let run = &acc.refit;
    let mut books = Ledger::default();
    for (i, ep) in acc.episodes.iter().enumerate() {
        let s = &ep.stats;
        books.merge(&ledger::refit_ledger(s));
        r.check(!ep.capped, || {
            format!("episode {i}: rounds still pending at the {REFIT_CAP:?} cap")
        });
        // A capped episode stopped with work in flight, so only its own
        // books may be open.
        r.check(
            ep.capped || s.swapped == s.persisted + s.persist_failed,
            || {
                format!(
                    "episode {i}: swapped {} != persisted {} + persist_failed {}",
                    s.swapped, s.persisted, s.persist_failed
                )
            },
        );
        let bad = ep.restore_bad;
        r.check(bad == 0, || {
            format!(
                "episode {i}: {bad} models restored from the store differ from the live registry"
            )
        });
    }
    books.merge(&run.submit_failures);
    r.check(run.reads.failed == 0, || {
        format!("read failures: {}", run.reads.describe())
    });

    let mut rounds = run.round_ms.clone();
    let p50 = stats::median(&rounds);
    let p90 = stats::tail(&mut rounds, 0.90);
    let stopped = acc
        .episodes
        .iter()
        .filter(|e| e.trips >= inputs::MAX_TRIPS)
        .count();
    let note = format!(
        "{} clean of {} rounds in {} episodes; {} rounds stalled on breaker deferrals ({:.2}s); {stopped} episodes stopped at {} breaker trips",
        p90.n,
        run.rounds,
        acc.episodes.len(),
        run.stalled,
        run.stall_s,
        inputs::MAX_TRIPS,
    );
    // Pooled over all clean rounds, not the best episode: an episode holds
    // ten rounds at most, too few for a steady median, and fewer episodes
    // qualify on seeds with stalls, which would bias the best of them.
    r.add("refit_p50_ms", p50, "ms", format!("median round; {note}"));
    // Per layer, not end to end: the slowest rounds track host contention.
    l.add(
        "refit_p90_ms",
        p90.value,
        "ms",
        format!("{}; {note}", p90.label()),
    );
    l.add(
        "refit_mlogq",
        refit::served_mlogq(&env.refit.registry, &env.apps),
        "MLogQ",
        format!(
            "served models after the last episode (round {})",
            run.rounds
        ),
    );
    // Per layer, not end to end: a read is ~0.3 us of memory-bound work
    // beside the refit worker on the other vCPU, and in the host's slow
    // stretches (minutes long, so whole runs) both read figures rose by
    // 30-40%; their ten-seed spreads reached 26-39%.
    l.add(
        "read_p50_us",
        best_of(&acc.reads, |s| s.p50, f64::min, 0),
        "us",
        format!(
            "best of {} cycle medians (median {:.4}); 1 in {} reads timed, un-stalled rounds only",
            acc.reads.len(),
            median_of(&acc.reads, |s| s.p50),
            refit::READ_SAMPLE
        ),
    );
    l.add(
        "read_p99_us",
        best_of(&acc.reads, |s| s.tail.value, f64::min, 0),
        "us",
        tail_note(&acc.reads, 0),
    );
    books
}

fn fit_layers(env: &Env, tracer: &mut Tracer, acc: &Acc, l: &mut Report, r: &mut Report) {
    let one = pool(1);
    let two = pool(2);
    let layers: Vec<fit::FitLayers> = (0..3u64)
        .map(|p| one.install(|| fit::probe_fit_layers(&env.apps, tracer, 1000 + p)))
        .collect();
    let mismatches: usize = layers.iter().map(|x| x.mismatches).sum();
    r.check(mismatches == 0, || {
        format!("{mismatches} completion replays differ from the fitted factors")
    });
    let med =
        |f: fn(&fit::FitLayers) -> f64| stats::median(&layers.iter().map(f).collect::<Vec<_>>());
    let (fit_ms, bin_ms, streams_ms, complete_ms) = (
        med(|x| x.fit_ms),
        med(|x| x.bin_ms),
        med(|x| x.streams_ms),
        med(|x| x.complete_ms),
    );
    let cell_sweeps = layers[0].cell_sweeps as f64;
    let n = format!("median of n={} replays of the 6-app pass", layers.len());
    l.add(
        "grid.bin_ms",
        bin_ms,
        "ms",
        format!("TensorGrid::cell_index over the training sets; {n}"),
    );
    l.add(
        "tensor.streams_ms",
        streams_ms,
        "ms",
        format!("build_streams on the binned tensors (a part of completion.als_ms); {n}"),
    );
    l.add(
        "completion.als_ms",
        complete_ms,
        "ms",
        format!("cpr_completion::complete; factors equal model.cp() bitwise; {n}"),
    );
    l.add(
        "completion.sweeps",
        layers[0].sweeps as f64,
        "count",
        "sum over the 6 fits",
    );
    l.add(
        "completion.ns_per_cell_sweep",
        complete_ms * 1e6 / cell_sweeps,
        "ns",
        format!("als_ms / sum(sweeps x observed cells) = {cell_sweeps}"),
    );
    l.add(
        "core.fit_self_ms",
        fit_ms - bin_ms - complete_ms,
        "ms",
        format!("residual: CprBuilder::fit {fit_ms:.3} ms - grid.bin - completion.als"),
    );
    l.add(
        "core.bake_us",
        med(|x| x.bake_us),
        "us",
        format!("CprModel::bake_plan, sum over the 6 models; {n}"),
    );

    let ns = fit::probe_predict_ns(&env.apps, tracer, 15);
    let (dense, gather) = ns.split_at(3);
    l.add(
        "core.predict_dense_ns",
        stats::mean(dense),
        "ns",
        format!("predict_into per query, mean of MM/QR/BC {dense:.1?}"),
    );
    l.add(
        "core.predict_gather_ns",
        stats::mean(gather),
        "ns",
        format!("predict_into per query, mean of FMM/AMG/KRIPKE {gather:.1?}"),
    );

    use rayon::prelude::*;
    let items = [0u8; 2];
    let region: Vec<f64> = (0..400)
        .map(|rep| {
            let ((), secs) = tracer.timed("rayon.region", rep, || {
                two.install(|| {
                    items.par_iter().for_each(|x| {
                        std::hint::black_box(x);
                    })
                })
            });
            secs * 1e6
        })
        .collect();
    l.add(
        "rayon.region_us",
        stats::median(&region),
        "us",
        "one empty 2-item par_iter at 2 threads, median of n=400",
    );

    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for p in 0..3u64 {
        t1.push(fit::fit_pass(&env.apps, &one, tracer, 2000 + p).0);
        t2.push(fit::fit_pass(&env.apps, &two, tracer, 3000 + p).0);
    }
    l.add(
        "rayon.fit_speedup",
        stats::median(&t1) / stats::median(&t2),
        "ratio",
        format!("traced fit pass at 1 thread / at 2 threads, n=3 each: {t1:.3?} / {t2:.3?}"),
    );
    r.add(
        "trace.fit_overhead_pct",
        (stats::median(&acc.fit_traced_s) / stats::median(&acc.fit_s) - 1.0) * 100.0,
        "%",
        format!(
            "fit pass, traced n={} vs untraced n={}",
            acc.fit_traced_s.len(),
            acc.fit_s.len()
        ),
    );
}

#[allow(clippy::too_many_arguments)]
fn wire_layers(
    env: &Env,
    acc: &Acc,
    h0: &[(u64, u64)],
    h1: &[(u64, u64)],
    s0: &cpr_registry::RegistryStats,
    s1: &cpr_registry::RegistryStats,
    fs: &cpr_server::ServerStats,
    tracer: &mut Tracer,
    l: &mut Report,
    r: &mut Report,
) {
    let (traced, plain): (Vec<&Slice>, Vec<&Slice>) = acc.wire.iter().partition(|s| s.traced);
    let p50 = |v: &[&Slice]| stats::median(&v.iter().map(|s| s.p50).collect::<Vec<_>>());
    r.add(
        "trace.wire_overhead_pct",
        (p50(&traced) / p50(&plain) - 1.0) * 100.0,
        "%",
        format!(
            "wire p50, {} traced vs {} untraced cycles",
            traced.len(),
            plain.len()
        ),
    );
    let rtt = acc.wire_lat_sum / acc.wire_lat_n.max(1) as f64;
    let (request_us, n) = hist_mean(h0, h1, 0);
    let probe = wire::probe_layers(&env.wire.registry, &env.wire.pools, tracer);
    r.check(probe.mismatches == 0, || {
        format!(
            "{} wire layer replays differ from the served bytes",
            probe.mismatches
        )
    });
    let dense = s1.dense_hits - s0.dense_hits;
    let gather = s1.gather_hits - s0.gather_hits;
    l.add(
        "server.rtt_us",
        rtt,
        "us",
        format!("client-timed mean, n={}", acc.wire_lat_n),
    );
    l.add(
        "server.request_us",
        request_us,
        "us",
        format!("cpr_server_request_predict_us sum / count, n={n}"),
    );
    l.add(
        "server.service_us",
        hist_mean(h0, h1, 1).0,
        "us",
        "cpr_server_predict_service_us mean",
    );
    l.add(
        "server.admission_wait_us",
        hist_mean(h0, h1, 2).0,
        "us",
        "cpr_server_admission_wait_us mean",
    );
    l.add(
        "server.outside_us",
        rtt - request_us,
        "us",
        "residual: rtt - request (socket reads and writes, loopback, wake-ups, client)",
    );
    l.add(
        "server.parse_us",
        probe.parse_us,
        "us",
        "parse_head + content_length + parse_query_body, replayed per request",
    );
    l.add(
        "server.render_us",
        probe.render_us,
        "us",
        "prediction formatting + render_response, replayed per request",
    );
    l.add(
        "server.admit_us",
        probe.admit_us,
        "us",
        "uncontended Admission::admit + permit drop",
    );
    l.add(
        "registry.serve_us",
        probe.serve_us,
        "us",
        "serve_batch_deadline on each request's queries, replayed",
    );
    l.add(
        "registry.dense_share",
        dense as f64 / (dense + gather).max(1) as f64,
        "ratio",
        format!("dense hits {dense} / (dense + gather hits {gather})"),
    );
    let server_failed = fs.received - fs.accepted + fs.disconnects + fs.contained_panics;
    l.add(
        "server.failed",
        (server_failed + acc.wire_ledger.failed) as f64,
        "count",
        format!("server {fs:?}; client {}", acc.wire_ledger.describe()),
    );
}

fn refit_layers(
    env: &Env,
    acc: &Acc,
    scratch: &Path,
    tracer: &mut Tracer,
    l: &mut Report,
    r: &mut Report,
) {
    let run = &acc.refit;
    let sum = |f: fn(&refit::EpisodeEnd) -> u64| acc.episodes.iter().map(f).sum::<u64>();
    let (submitted, swapped) = (sum(|e| e.stats.submitted), sum(|e| e.stats.swapped));
    let [(n_refit, refit_us), (n_persist, persist_us)] = acc.refit_hists;
    let probe = refit::probe_refit_layers(&env.refit, &env.apps, scratch, tracer);
    r.check(probe.mismatches == 0, || {
        format!("{} refit layer replays failed", probe.mismatches)
    });
    l.add(
        "pipeline.refit_ms",
        refit_us as f64 / 1e3 / n_refit.max(1) as f64,
        "ms",
        format!("cpr_pipeline_refit_us mean, n={n_refit}"),
    );
    l.add(
        "store.persist_ms",
        persist_us as f64 / 1e3 / n_persist.max(1) as f64,
        "ms",
        format!("cpr_store_persist_us mean (record + manifest, fsync), n={n_persist}"),
    );
    l.add(
        "core.clone_ms",
        probe.clone_ms,
        "ms",
        "StreamingCpr::clone of a set-up trainer, mean over the 6 apps",
    );
    l.add(
        "core.update_ms",
        probe.update_ms,
        "ms",
        "StreamingCpr::update on that clone, round-0 batch, sweep budget 8 (cross-checks pipeline.refit_ms)",
    );
    l.add(
        "pipeline.gate_ms",
        probe.gate_ms,
        "ms",
        "holdout_metrics through candidate and live plans",
    );
    l.add(
        "core.encode_us",
        probe.encode_us,
        "us",
        "serialize::to_bytes of a candidate",
    );
    l.add(
        "core.parse_us",
        probe.parse_us,
        "us",
        "serialize::from_bytes of a candidate",
    );
    l.add(
        "registry.swap_us",
        probe.swap_us,
        "us",
        "ModelRegistry::swap_if_current into a scratch registry",
    );
    l.add(
        "store.wal_append_us",
        probe.wal_append_us,
        "us",
        "TelemetryWal::append of one batch, real directory",
    );
    l.add(
        "store.bytes_per_refit",
        probe.bytes_per_refit,
        "B",
        "computed: WAL frame + snapshot record + manifest",
    );
    l.add(
        "pipeline.other_ms",
        stats::mean(&run.other_ms),
        "ms",
        "residual per clean round: round - its in-program refit and persist time",
    );
    l.add(
        "pipeline.swap_ratio",
        swapped as f64 / submitted.max(1) as f64,
        "ratio",
        format!("swapped {swapped} / submitted {submitted}"),
    );
    l.add(
        "pipeline.gate_rejected",
        sum(|e| e.stats.gate_rejected) as f64,
        "count",
        "",
    );
    l.add(
        "pipeline.deferred",
        sum(|e| e.stats.deferred) as f64,
        "count",
        format!("{} rounds stalled", run.stalled),
    );
    l.add(
        "pipeline.breaker_trips",
        sum(|e| e.trips as u64) as f64,
        "count",
        "BreakerTrip events in the episodes' traces",
    );
    l.add(
        "pipeline.stall_s",
        run.stall_s,
        "s",
        "wall time of rounds that waited on breaker-deferred jobs",
    );
    l.add(
        "registry.swaps",
        sum(|e| e.swaps) as f64,
        "count",
        "hot-swaps over all episodes",
    );
}
