//! Serving SLO + chaos harness: open-loop Poisson/burst traffic against
//! the supervised control plane (DESIGN.md §13).
//!
//! Four phases run over the same compiled VGG-16 artifact (width 1/4,
//! 16×16 input, ~93% weight sparsity — the `infer_runtime` configuration):
//!
//! 1. **capacity probe** — closed-loop hammering to estimate sustainable
//!    throughput on this box; all later rates are fractions of it.
//! 2. **below capacity** — open loop at 50% of capacity with a generous
//!    queue: the shed count must be exactly zero.
//! 3. **80% saturation** — open loop at 80% of capacity: p99 latency must
//!    stay under 10× p50 (latency measured from the *scheduled* arrival,
//!    so queueing delay is fully charged — no coordinated omission).
//! 4. **chaos** — a seeded `ServeFaultPlan` injects executor panics and
//!    slow batches under bursty traffic with a tiny queue: every request
//!    must resolve, the server must restart after each panic, and the gap
//!    from a fault reply to the next success must stay under one second.
//!
//! Each phase appends a JSON line to `NDSNN_BENCH_JSON` (falling back to
//! `results/bench_serve.json`), ending with a summary line whose boolean
//! SLO verdicts the CI `serve-chaos` job greps.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ndsnn::checkpoint::snapshot_params;
use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::build_network;
use ndsnn_bench::traffic::{splitmix64, PoissonBurst};
use ndsnn_infer::{
    compile, BatchPolicy, CompileOptions, InferError, ServeFaultPlan, ServeOptions, Server,
    ShedPolicy,
};
use ndsnn_metrics::fleet::percentile;
use ndsnn_tensor::Tensor;

const SPARSITY: f64 = 0.93;
const CLIENT_THREADS: usize = 16;

fn cfg() -> RunConfig {
    let mut cfg = Profile::Smoke.run_config(
        ndsnn_snn::models::Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Dense,
    );
    cfg.timesteps = 2;
    cfg.width_mult = 0.25;
    cfg.image_size = 16;
    cfg
}

fn sparse_params(cfg: &RunConfig) -> BTreeMap<String, Tensor> {
    let mut net = build_network(cfg).expect("build network");
    let mut params = snapshot_params(&mut net.layers);
    let keep_every = (1.0 / (1.0 - SPARSITY)).round() as usize;
    for (name, t) in params.iter_mut() {
        if name.ends_with(".weight") {
            for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
                if i % keep_every != 0 {
                    *v = 0.0;
                }
            }
        }
    }
    params
}

/// Deterministic request image: pixel pattern varies with `g` so replies
/// differ across requests without any per-run randomness.
fn image_for(g: usize, sample_len: usize) -> Vec<f32> {
    let mut state = 0x01A4_A6E5u64 ^ g as u64;
    (0..sample_len)
        .map(|_| (splitmix64(&mut state) >> 40) as f32 / (1u64 << 24) as f32)
        .collect()
}

/// One resolved request from an open-loop replay.
struct Sample {
    /// Scheduled arrival offset from phase start.
    scheduled: Duration,
    /// Completion offset from phase start.
    completed: Duration,
    outcome: Outcome,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Shed,
    Deadline,
    Fault,
    Other,
}

/// Replays `arrivals` open-loop against `server` with a fixed client pool;
/// request `g` is issued at its scheduled offset (or as soon as a client
/// frees up — the latency accounting charges the delay either way).
fn replay(server: &Arc<Server>, arrivals: &[Duration], sample_len: usize) -> Vec<Sample> {
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENT_THREADS {
        let s = Arc::clone(server);
        let mine: Vec<(usize, Duration)> = arrivals
            .iter()
            .enumerate()
            .skip(c)
            .step_by(CLIENT_THREADS)
            .map(|(g, d)| (g, *d))
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut out = Vec::with_capacity(mine.len());
            for (g, scheduled) in mine {
                let now = t0.elapsed();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                let image = image_for(g, sample_len);
                let outcome = match s.infer(&image) {
                    Ok(_) => Outcome::Ok,
                    Err(InferError::Overloaded) => Outcome::Shed,
                    Err(InferError::DeadlineExceeded) => Outcome::Deadline,
                    Err(InferError::ExecutorFault(_)) => Outcome::Fault,
                    Err(_) => Outcome::Other,
                };
                out.push(Sample {
                    scheduled,
                    completed: t0.elapsed(),
                    outcome,
                });
            }
            out
        }));
    }
    let mut samples: Vec<Sample> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    samples.sort_by_key(|s| s.completed);
    samples
}

struct PhaseReport {
    ok: usize,
    shed: usize,
    deadline: usize,
    faulted: usize,
    other: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
}

fn report(samples: &[Sample]) -> PhaseReport {
    let lat: Vec<Duration> = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.completed.saturating_sub(s.scheduled))
        .collect();
    // Nearest rank at `pct` percent, in µs; `pct / 100.0` keeps the rank
    // arithmetic of the percent-scale form (99.9 / 100.0 != 0.999 in f64).
    let pct_us = |pct: f64| percentile(&lat, pct / 100.0).as_secs_f64() * 1e6;
    let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count();
    PhaseReport {
        ok: count(Outcome::Ok),
        shed: count(Outcome::Shed),
        deadline: count(Outcome::Deadline),
        faulted: count(Outcome::Fault),
        other: count(Outcome::Other),
        p50_us: pct_us(50.0),
        p99_us: pct_us(99.0),
        p999_us: pct_us(99.9),
    }
}

fn phase_line(id: &str, rate_rps: f64, total: usize, r: &PhaseReport, extra: &str) -> String {
    format!(
        "{{\"id\":\"serve_chaos/{id}\",\"rate_rps\":{rate_rps:.1},\"total\":{total},\
         \"ok\":{},\"shed\":{},\"deadline_expired\":{},\"faulted\":{},\
         \"p50_us\":{:.1},\"p99_us\":{:.1},\"p999_us\":{:.1}{extra}}}\n",
        r.ok, r.shed, r.deadline, r.faulted, r.p50_us, r.p99_us, r.p999_us
    )
}

fn main() {
    let cfg = cfg();
    let params = sparse_params(&cfg);
    let artifact =
        Arc::new(compile(&cfg, &params, &CompileOptions::default()).expect("compile artifact"));
    let sample_len = artifact.sample_len();
    let mut lines = String::new();

    // ---- Phase 1: closed-loop capacity probe. ----
    let capacity_rps = {
        let server = Arc::new(Server::start(Arc::clone(&artifact), BatchPolicy::default()));
        let done = Arc::new(AtomicU64::new(0));
        let probe_for = Duration::from_secs(1);
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for c in 0..8 {
            let s = Arc::clone(&server);
            let d = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let image = image_for(c, sample_len);
                while t0.elapsed() < probe_for {
                    if s.infer(&image).is_ok() {
                        d.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("probe thread");
        }
        let elapsed = t0.elapsed().as_secs_f64();
        server.shutdown();
        // Understate capacity slightly so the open-loop fractions below
        // stay honest on a noisy box.
        (done.load(Ordering::Relaxed) as f64 / elapsed) * 0.9
    };
    println!("serve_chaos: estimated capacity {capacity_rps:.1} rps");

    let open_loop_server = |fault_plan: ServeFaultPlan, queue_cap: usize| {
        Arc::new(Server::start_with(
            Arc::clone(&artifact),
            ServeOptions {
                policy: BatchPolicy::default(),
                queue_cap,
                shed: ShedPolicy::RejectNew,
                default_deadline: None,
                drain_timeout: Duration::from_secs(2),
                workers: 1,
                fault_plan,
            },
        ))
    };

    // ---- Phase 2: below capacity — shedding must not happen. ----
    let below = {
        let n = 300;
        let rate = (capacity_rps * 0.5).max(20.0);
        let server = open_loop_server(ServeFaultPlan::default(), 256);
        let samples = replay(
            &server,
            &PoissonBurst::steady(0xBE10, rate).arrivals(n),
            sample_len,
        );
        server.shutdown();
        let r = report(&samples);
        println!(
            "serve_chaos/below_capacity: ok={} shed={} p50={:.0}us p99={:.0}us",
            r.ok, r.shed, r.p50_us, r.p99_us
        );
        lines.push_str(&phase_line("below_capacity", rate, n, &r, ""));
        r
    };

    // ---- Phase 3: 80% saturation — tail must stay bounded. ----
    let saturated = {
        let n = 500;
        let rate = (capacity_rps * 0.8).max(32.0);
        let server = open_loop_server(ServeFaultPlan::default(), 256);
        let samples = replay(
            &server,
            &PoissonBurst::steady(0x5A70, rate).arrivals(n),
            sample_len,
        );
        server.shutdown();
        let r = report(&samples);
        println!(
            "serve_chaos/saturation80: ok={} p50={:.0}us p99={:.0}us p999={:.0}us",
            r.ok, r.p50_us, r.p99_us, r.p999_us
        );
        lines.push_str(&phase_line("saturation80", rate, n, &r, ""));
        r
    };

    // ---- Phase 4: seeded chaos — panics + slow batches + burst flood
    // against a tiny queue. ----
    let (chaos, recovery_ms, restarts, chaos_total) = {
        let n = 400;
        let rate = (capacity_rps * 0.6).max(24.0);
        let plan = ServeFaultPlan::seeded(0xFEED, 12, 2, 2, Duration::from_millis(20));
        let injected = plan.panic_at_batches.len() as u64;
        // Queue far smaller than the client pool, so burst windows
        // genuinely overflow it and exercise the shed path.
        let server = open_loop_server(plan, 4);
        let arrivals = PoissonBurst {
            seed: 0xC4A05,
            rate_rps: rate,
            burst_every: 50,
            burst_len: 10,
            burst_mult: 8.0,
        }
        .arrivals(n);
        let samples = replay(&server, &arrivals, sample_len);
        let stats = server.stats();
        server.shutdown();
        // Recovery: longest gap from a fault reply to the next success.
        let mut recovery = Duration::ZERO;
        for (i, s) in samples.iter().enumerate() {
            if s.outcome == Outcome::Fault {
                if let Some(next_ok) = samples[i..].iter().find(|s| s.outcome == Outcome::Ok) {
                    recovery = recovery.max(next_ok.completed.saturating_sub(s.completed));
                }
            }
        }
        let r = report(&samples);
        assert_eq!(
            stats.restarts, injected,
            "every injected panic must restart the executor exactly once"
        );
        println!(
            "serve_chaos/chaos: ok={} shed={} faulted={} restarts={} recovery={:.1}ms",
            r.ok,
            r.shed,
            r.faulted,
            stats.restarts,
            recovery.as_secs_f64() * 1e3
        );
        let recovery_ms = recovery.as_secs_f64() * 1e3;
        let extra = format!(
            ",\"restarts\":{},\"recovery_ms\":{recovery_ms:.1},\"shed_rate\":{:.4}",
            stats.restarts,
            r.shed as f64 / n as f64
        );
        lines.push_str(&phase_line("chaos", rate, n, &r, &extra));
        (r, recovery_ms, stats.restarts, n)
    };

    // ---- Summary with the CI-gated SLO verdicts. ----
    let all_resolved =
        chaos.ok + chaos.shed + chaos.deadline + chaos.faulted + chaos.other == chaos_total;
    let slo_tail = saturated.p99_us < 10.0 * saturated.p50_us.max(1.0);
    let slo_shed = below.shed == 0;
    let slo_recovery = restarts > 0 && recovery_ms < 1000.0;
    let summary = format!(
        "{{\"id\":\"serve_chaos/summary\",\"capacity_rps\":{capacity_rps:.1},\
         \"slo_p99_under_10x_p50\":{slo_tail},\"shed_zero_below_capacity\":{slo_shed},\
         \"recovery_under_1s\":{slo_recovery},\"all_requests_resolved\":{all_resolved}}}\n"
    );
    print!("serve_chaos summary: {summary}");
    lines.push_str(&summary);

    let path = std::env::var("NDSNN_BENCH_JSON")
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| {
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/bench_serve.json"
            )
            .to_string()
        });
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(lines.as_bytes()));
    match written {
        Ok(()) => println!("serve_chaos: appended results to {path}"),
        Err(e) => eprintln!("serve_chaos: could not append results to {path}: {e}"),
    }
}
