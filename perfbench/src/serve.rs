//! Serving workload: four Small VGG-16 artifacts (θ = 0.9 and 0.99, each as
//! f32-CSR NDINF1 and QAT-snapped int8 NDINF2) in one `ModelRegistry`,
//! served by a `Fleet` behind a `Router` to a closed loop of clients with
//! Zipf(1.0) model popularity.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn_bench::synth::erk_sparse_params;
use ndsnn_bench::traffic::{splitmix64, ZipfMixture};
use ndsnn_data::dataset::Dataset;
use ndsnn_data::synthetic::{generate, SyntheticConfig};
use ndsnn_infer::{
    compile, quantize_artifact, Artifact, BatchPolicy, CompileOptions, Executor, Fleet,
    FleetOptions, InferError, InferReply, ModelRegistry, QuantOptions, RegistryOptions, Router,
    ServeOptions, ShedPolicy,
};
use ndsnn_snn::models::Architecture;
use ndsnn_tensor::Tensor;

use crate::report::{self, gate, median, Gate, GateError, Histogram, Outcome};
use crate::trace::{self, Span, Tracer};

/// (name, sparsity θ, int8) for each served model, in Zipf popularity
/// order: the f32 and int8 variants alternate so both precisions carry
/// traffic (f32 ≈ 64%, int8 ≈ 36% at s = 1).
const MODELS: [(&str, f64, bool); 4] = [
    ("vgg16-t90-f32", 0.9, false),
    ("vgg16-t90-int8", 0.9, true),
    ("vgg16-t99-f32", 0.99, false),
    ("vgg16-t99-int8", 0.99, true),
];
const ZIPF_S: f64 = 1.0;
/// Distinct input images; every (model, image) pair's reference logits
/// are computed once for the correctness gate.
const POOL: usize = 128;
/// Requests generated per client; the stream wraps around after this.
const STREAM_LEN: usize = 1 << 17;
const SETUP_REPS: usize = 7;
/// The compile-time CSR threshold (the repository default).
const DENSITY_THRESHOLD: f64 = 0.25;
/// Requests each client sends before anything is timed, so executors,
/// scratch pools and caches are warm.
const WARMUP_REQUESTS: usize = 2048;
/// Interval over which the CPU time per answered request is sampled.
const CPU_SAMPLE: Duration = Duration::from_secs(1);
/// Requests replayed through bare executors in the traced run.
const EXEC_REPLAY: usize = 2048;

fn config(seed: u64) -> RunConfig {
    let mut cfg =
        Profile::Small.run_config(Architecture::Vgg16, DatasetKind::Cifar10, MethodSpec::Dense);
    cfg.seed = seed;
    cfg
}

fn infer_err(what: &str) -> impl Fn(InferError) -> GateError + '_ {
    move |e| GateError(format!("{what}: {e}"))
}

/// What building the fleet cost, per step, summed over the models.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    params_ns: u64,
    compile_ns: u64,
    encode_ns: u64,
    register_ns: u64,
    fleet_ns: u64,
    total_s: f64,
}

/// A started fleet.
struct Setup {
    registry: ModelRegistry,
    router: Router,
    artifacts: Vec<Arc<Artifact>>,
    times: SetupTimes,
}

fn setup(cfg: &RunConfig, seed: u64, workers: usize) -> Gate<Setup> {
    let t_all = Instant::now();
    let registry = ModelRegistry::new(RegistryOptions::default());
    let (mut params_ns, mut compile_ns, mut encode_ns, mut register_ns) = (0, 0, 0, 0);
    let mut artifacts = Vec::with_capacity(MODELS.len());
    for (name, sparsity, int8) in MODELS {
        let t0 = Instant::now();
        let params = erk_sparse_params(cfg, sparsity, int8);
        let t1 = Instant::now();
        let opts = CompileOptions {
            density_threshold: DENSITY_THRESHOLD,
            quantize: None,
        };
        let mut art = compile(cfg, &params, &opts).map_err(infer_err("compile"))?;
        if int8 {
            art = quantize_artifact(&art, &QuantOptions::default())
                .map_err(infer_err("quantize"))?
                .0;
        }
        let t2 = Instant::now();
        let bytes = art.encode();
        let t3 = Instant::now();
        let resident = registry
            .register(name, bytes)
            .map_err(infer_err("register"))?;
        let t4 = Instant::now();
        params_ns += (t1 - t0).as_nanos() as u64;
        compile_ns += (t2 - t1).as_nanos() as u64;
        encode_ns += (t3 - t2).as_nanos() as u64;
        register_ns += (t4 - t3).as_nanos() as u64;
        artifacts.push(resident);
    }
    let t0 = Instant::now();
    let mix = ZipfMixture::new(seed, MODELS.len(), ZIPF_S);
    let weights: Vec<(&str, f64)> = MODELS
        .iter()
        .enumerate()
        .map(|(i, m)| (m.0, mix.weight(i)))
        .collect();
    let fleet = Fleet::from_registry(
        &registry,
        &weights,
        FleetOptions {
            total_workers: workers,
            serve: ServeOptions {
                // Blocking callers never fill a batch, so waiting for one
                // would only add sleep to every request.
                policy: BatchPolicy {
                    max_batch: ndsnn::config::env::DEFAULT_INFER_BATCH,
                    max_wait: Duration::ZERO,
                },
                queue_cap: ndsnn::config::env::DEFAULT_INFER_QUEUE_CAP,
                shed: ShedPolicy::RejectNew,
                default_deadline: None,
                drain_timeout: Duration::from_secs(2),
                workers: 1,
                fault_plan: Default::default(),
            },
            fault_plans: BTreeMap::new(),
        },
    )
    .map_err(infer_err("fleet start"))?;
    let router = Router::new(fleet);
    let fleet_ns = t0.elapsed().as_nanos() as u64;
    Ok(Setup {
        registry,
        router,
        artifacts,
        times: SetupTimes {
            params_ns,
            compile_ns,
            encode_ns,
            register_ns,
            fleet_ns,
            total_s: t_all.elapsed().as_secs_f64(),
        },
    })
}

/// The image pool: synthetic CIFAR-10-like images drawn from the seed.
fn images(cfg: &RunConfig, seed: u64) -> Vec<Vec<f32>> {
    let mut synth = SyntheticConfig::cifar10_like(POOL, cfg.num_classes)
        .with_image_size(cfg.image_size)
        .with_num_classes(cfg.num_classes);
    synth.seed ^= seed.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let (train, _) = generate(&synth);
    (0..train.len())
        .map(|i| train.get(i).0.as_slice().to_vec())
        .collect()
}

/// One client's request sequence: (model index, image index) pairs.
fn stream(seed: u64, client: usize) -> Vec<(u8, u32)> {
    let mut state = seed ^ (0xC11E_0000 + client as u64);
    let mix_seed = splitmix64(&mut state);
    ZipfMixture::new(mix_seed, MODELS.len(), ZIPF_S)
        .assignments(STREAM_LEN)
        .into_iter()
        .map(|m| (m as u8, (splitmix64(&mut state) % POOL as u64) as u32))
        .collect()
}

/// Failed requests by typed outcome.
#[derive(Debug, Default, Clone, Copy)]
struct Failures {
    shed: u64,
    deadline: u64,
    faulted: u64,
    closed: u64,
    bad_input: u64,
    other: u64,
}

impl Failures {
    fn add(&mut self, e: &InferError) {
        match e {
            InferError::Overloaded => self.shed += 1,
            InferError::DeadlineExceeded => self.deadline += 1,
            InferError::ExecutorFault(_) | InferError::Exec(_) => self.faulted += 1,
            InferError::Closed => self.closed += 1,
            InferError::BadInput(_) => self.bad_input += 1,
            _ => self.other += 1,
        }
    }

    fn merge(&mut self, o: &Failures) {
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.faulted += o.faulted;
        self.closed += o.closed;
        self.bad_input += o.bad_input;
        self.other += o.other;
    }

    fn total(&self) -> u64 {
        self.shed + self.deadline + self.faulted + self.closed + self.bad_input + self.other
    }
}

/// What one client saw, in memory that does not grow with the request
/// count.
#[derive(Debug, Default)]
struct ClientLog {
    sent: usize,
    answered: u64,
    client: Histogram,
    server: Histogram,
    /// Client latency minus the server's reported latency.
    overhead: Histogram,
    batch_sum: u64,
    /// The first reply's logits for each (model, image); every later reply
    /// for the pair must equal them bit for bit.
    first: BTreeMap<(u8, u32), Vec<f32>>,
    mismatch: Option<String>,
    failures: Failures,
    spans: Vec<Span>,
}

impl ClientLog {
    fn answer(&mut self, key: (u8, u32), pos: usize, r: &InferReply, client_ns: u64) {
        let server_ns = r.latency.as_nanos() as u64;
        self.answered += 1;
        self.client.record(client_ns);
        self.server.record(server_ns);
        self.overhead.record(client_ns.saturating_sub(server_ns));
        self.batch_sum += r.batch_size as u64;
        match self.first.entry(key) {
            Entry::Vacant(e) => {
                e.insert(r.logits.clone());
            }
            Entry::Occupied(e) => {
                let same = e.get().len() == r.logits.len()
                    && e.get()
                        .iter()
                        .zip(&r.logits)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same && self.mismatch.is_none() {
                    self.mismatch = Some(format!(
                        "request {pos}: logits for {} image {} differ from an earlier reply",
                        MODELS[key.0 as usize].0, key.1
                    ));
                }
            }
        }
    }
}

/// Merges one histogram field over several clients.
fn merged(logs: &[ClientLog], field: impl Fn(&ClientLog) -> &Histogram) -> Histogram {
    let mut h = Histogram::default();
    for log in logs {
        h.merge(field(log));
    }
    h
}

/// When clients stop sending.
#[derive(Clone, Copy)]
enum Stop<'a> {
    At(Instant),
    /// Exactly this many requests per client.
    Count(&'a [usize]),
}

/// One closed-loop phase: what each client saw, the phase's wall-clock
/// time, and the process CPU time per answered request over each whole
/// `CPU_SAMPLE` interval.
struct Phase {
    logs: Vec<ClientLog>,
    wall_s: f64,
    interval_cpu_ms: Vec<f64>,
}

/// Runs the closed loop: each client sends its next request when the
/// previous reply arrives.
fn drive(
    router: &Router,
    streams: &[Vec<(u8, u32)>],
    pool: &[Vec<f32>],
    stop: Stop,
    trace_origin: Option<Instant>,
) -> Phase {
    let answered = AtomicU64::new(0);
    let running = AtomicUsize::new(streams.len());
    let t0 = Instant::now();
    let (logs, interval_cpu_ms) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut out = Vec::new();
            let mut last = (report::cpu_seconds(), 0u64);
            let mut next = Instant::now() + CPU_SAMPLE;
            while running.load(Ordering::Relaxed) > 0 {
                std::thread::park_timeout(next.saturating_duration_since(Instant::now()));
                if Instant::now() < next {
                    continue;
                }
                let now = (report::cpu_seconds(), answered.load(Ordering::Relaxed));
                if now.1 > last.1 {
                    out.push((now.0 - last.0) * 1e3 / (now.1 - last.1) as f64);
                }
                last = now;
                next += CPU_SAMPLE;
            }
            out
        });
        let waker = sampler.thread().clone();
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (answered, running, waker) = (&answered, &running, waker.clone());
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut tracer = trace_origin.map(|o| Tracer::new(o, 0));
                    loop {
                        let done = match stop {
                            Stop::At(end) => Instant::now() >= end,
                            Stop::Count(n) => log.sent >= n[c],
                        };
                        if done {
                            break;
                        }
                        let (m, img) = stream[log.sent % stream.len()];
                        // One span per request (the group names it), with
                        // the server's reported latency as its child.
                        let span = tracer.as_mut().map(|tr| {
                            tr.set_group(((c as u64) << 32) | log.sent as u64);
                            tr.begin("router.infer")
                        });
                        let t_send = Instant::now();
                        let reply = router.infer(MODELS[m as usize].0, &pool[img as usize]);
                        let t_recv = Instant::now();
                        if let (Some(tr), Some(id)) = (&mut tracer, span) {
                            if let Ok(r) = &reply {
                                let end = tr.offset_ns(t_recv);
                                let server = r.latency.as_nanos() as u64;
                                tr.record("serve.server", end.saturating_sub(server), end);
                            }
                            tr.end(id);
                        }
                        match reply {
                            Ok(r) => {
                                answered.fetch_add(1, Ordering::Relaxed);
                                let client_ns = (t_recv - t_send).as_nanos() as u64;
                                log.answer((m, img), log.sent, &r, client_ns);
                            }
                            Err(e) => log.failures.add(&e),
                        }
                        log.sent += 1;
                    }
                    if let Some(tr) = tracer {
                        log.spans = tr.into_spans();
                    }
                    if running.fetch_sub(1, Ordering::Relaxed) == 1 {
                        waker.unpark();
                    }
                    log
                })
            })
            .collect();
        let logs: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, sampler.join().expect("sampler thread panicked"))
    });
    Phase {
        logs,
        wall_s: t0.elapsed().as_secs_f64(),
        interval_cpu_ms,
    }
}

fn image_tensor(pixels: &[f32], cfg: &RunConfig) -> Tensor {
    Tensor::from_vec(vec![1, 3, cfg.image_size, cfg.image_size], pixels.to_vec())
        .expect("pool image has the model's geometry")
}

/// Gates every successful reply against a bare `Executor::forward` on the
/// same artifact and image, bit for bit: each client already checked its
/// replies against its first reply per pair, and those first replies are
/// checked here.
fn check_logits(
    logs: &[ClientLog],
    pool: &[Vec<f32>],
    artifacts: &[Arc<Artifact>],
    cfg: &RunConfig,
) -> Gate {
    let mut execs: Vec<Executor> = artifacts
        .iter()
        .map(|a| Executor::new(Arc::clone(a)))
        .collect();
    let mut reference: BTreeMap<(u8, u32), Vec<f32>> = BTreeMap::new();
    for (c, log) in logs.iter().enumerate() {
        if let Some(m) = &log.mismatch {
            return Err(GateError(format!("client {c}: {m}")));
        }
        for (&key, got) in &log.first {
            let want = match reference.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let out = execs[key.0 as usize]
                        .forward(&image_tensor(&pool[key.1 as usize], cfg))
                        .map_err(infer_err("reference forward"))?;
                    e.insert(out.as_slice().to_vec())
                }
            };
            gate(
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                || {
                    format!(
                        "client {c}: served logits differ from Executor::forward on {} image {}",
                        MODELS[key.0 as usize].0, key.1
                    )
                },
            )?;
        }
    }
    Ok(())
}

/// Shuts the fleet down and gates the accounting identity and the
/// clients' own counts against the servers' counters.
fn shutdown_and_check(setup: &Setup, logs: &[ClientLog]) -> Gate<(u64, Failures)> {
    setup.router.shutdown();
    let totals = setup.router.stats().fleet_totals();
    totals
        .accounting_identity()
        .map_err(|e| GateError(format!("serve stats: {e}")))?;
    let mut failures = Failures::default();
    let mut sent = 0u64;
    let mut ok = 0u64;
    for log in logs {
        failures.merge(&log.failures);
        sent += log.sent as u64;
        ok += log.answered;
    }
    gate(totals.submitted == sent && totals.requests == ok, || {
        format!(
            "servers counted {} submitted / {} answered, clients {sent} sent / {ok} answered",
            totals.submitted, totals.requests
        )
    })?;
    Ok((sent, failures))
}

fn note_failures(out: &mut Outcome, f: &Failures) {
    out.note("shed", f.shed);
    out.note("deadline_exceeded", f.deadline);
    out.note("faulted", f.faulted);
    out.note("closed", f.closed);
    out.note("bad_input", f.bad_input);
    out.note("other_failures", f.other);
}

/// Builds the fleet `SETUP_REPS` times, shutting down all but the last
/// untouched, and returns the last with every build's times.
fn setups(cfg: &RunConfig, seed: u64, workers: usize) -> Gate<(Setup, Vec<SetupTimes>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let s = setup(cfg, seed, workers)?;
        s.router.shutdown();
        times.push(s.times);
    }
    let last = setup(cfg, seed, workers)?;
    times.push(last.times);
    Ok((last, times))
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// The convolutions of VGG-16, each reported on its own.
pub const CONV_LAYERS: usize = 13;
/// Op groups besides the convolutions, each reported as one sum.
pub const OP_KINDS: [&str; 4] = ["lif", "pool", "fc", "other"];

/// The per-op metric an executor op is charged to: each convolution
/// separately (`conv3`), every other op by kind. BatchNorm is fused into
/// the convolutions, so it lands in `other` only when it runs alone.
fn op_group(name: &str) -> String {
    let leaf = name.rsplit('.').next().unwrap_or(name);
    if leaf.starts_with("conv") {
        return leaf.to_string();
    }
    OP_KINDS[..3]
        .iter()
        .find(|k| leaf.starts_with(*k))
        .unwrap_or(&"other")
        .to_string()
}

/// Sends `WARMUP_REQUESTS` per client, untimed; the logs still count for
/// the correctness gates and the accounting.
fn warm_up(router: &Router, streams: &[Vec<(u8, u32)>], pool: &[Vec<f32>]) -> Vec<ClientLog> {
    let counts = vec![WARMUP_REQUESTS; streams.len()];
    drive(router, streams, pool, Stop::Count(&counts), None).logs
}

/// The untraced measurement.
pub fn measure(seed: u64, seconds: f64, clients: usize) -> Gate<Outcome> {
    let cfg = config(seed);
    let pool = images(&cfg, seed);
    let streams: Vec<_> = (0..clients).map(|c| stream(seed, c)).collect();
    let (s, times) = setups(&cfg, seed, clients)?;
    let setup_s = median_of(&times, |t| t.total_s);
    let warm = warm_up(&s.router, &streams, &pool);

    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let (cpu0, jiffies) = (report::cpu_seconds(), report::cpu_jiffies());
    let measured = drive(&s.router, &streams, &pool, Stop::At(end), None);
    let cpu = report::cpu_seconds() - cpu0;
    let steal = report::steal_pct(jiffies, report::cpu_jiffies());
    let (wall, intervals) = (measured.wall_s, measured.interval_cpu_ms);
    gate(!intervals.is_empty(), || {
        "the window is shorter than one CPU sample interval".into()
    })?;
    let logs: Vec<ClientLog> = warm.into_iter().chain(measured.logs).collect();
    let (sent, failures) = shutdown_and_check(&s, &logs)?;
    check_logits(&logs, &pool, &s.artifacts, &cfg)?;

    let lat = merged(&logs[clients..], |l| &l.client);
    let ok = lat.count();
    gate(ok > 0, || "no request was answered".into())?;
    let (p50, _) = lat.percentile_ms(50.0);
    let (p99, beyond) = lat.percentile_ms(99.0);
    gate(beyond >= 10, || {
        format!("only {beyond} samples beyond p99; the run is too short")
    })?;

    let mut out = Outcome {
        attempted: sent,
        failed: failures.total(),
        ..Outcome::default()
    };
    out.put("setup_s", setup_s, "s");
    out.put("cpu_ms", median(&intervals), "ms");
    out.put(
        "model_kb",
        s.registry.resident_bytes() as f64 / 1024.0,
        "KiB",
    );
    out.note("cpu_ms_whole_window", cpu * 1e3 / ok as f64);
    out.note("cpu_intervals", intervals.len());
    out.note("serve_rps", ok as f64 / wall);
    out.note("serve_p50_ms", p50);
    out.note("serve_p99_ms", p99);
    out.note("latency_samples", ok);
    out.note("samples_beyond_p99", beyond);
    out.note("steal_pct", format!("{steal:.1}"));
    out.note("clients", clients);
    out.note("setups", SETUP_REPS);
    note_failures(&mut out, &failures);
    Ok(out)
}

/// The traced measurement: an untraced window, the same request counts
/// again with per-request spans, and a replay of the stream through bare
/// executors for the per-op split.
pub fn measure_traced(
    seed: u64,
    seconds: f64,
    clients: usize,
    spans_out: &mut Vec<Span>,
) -> Gate<Outcome> {
    let cfg = config(seed);
    let pool = images(&cfg, seed);
    let streams: Vec<_> = (0..clients).map(|c| stream(seed, c)).collect();
    let (s, times) = setups(&cfg, seed, clients)?;
    let setup_ms = |f: fn(&SetupTimes) -> u64| median_of(&times, |t| f(t) as f64) / 1e6;
    let params_ms = setup_ms(|t| t.params_ns);
    let compile_ms = setup_ms(|t| t.compile_ns);
    let encode_ms = setup_ms(|t| t.encode_ns);
    let register_ms = setup_ms(|t| t.register_ns);
    let fleet_ms = setup_ms(|t| t.fleet_ns);

    let warm = warm_up(&s.router, &streams, &pool);
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.4);
    let cpu0 = report::cpu_seconds();
    let plain = drive(&s.router, &streams, &pool, Stop::At(end), None);
    let cpu1 = report::cpu_seconds();
    let (plain, wall_plain) = (plain.logs, plain.wall_s);
    let counts: Vec<usize> = plain.iter().map(|l| l.sent).collect();
    let origin = Instant::now();
    let traced = drive(
        &s.router,
        &streams,
        &pool,
        Stop::Count(&counts),
        Some(origin),
    );
    let cpu2 = report::cpu_seconds();
    let (traced, wall_traced) = (traced.logs, traced.wall_s);
    let logs: Vec<ClientLog> = warm.into_iter().chain(plain).chain(traced).collect();
    let (sent, failures) = shutdown_and_check(&s, &logs)?;
    check_logits(&logs, &pool, &s.artifacts, &cfg)?;
    let (plain, traced) = logs[clients..].split_at(clients);
    let plain_ms = merged(plain, |l| &l.client);

    let answered: u64 = traced.iter().map(|l| l.answered).sum();
    let batch_sum: u64 = traced.iter().map(|l| l.batch_sum).sum();

    // Bare executors over the served stream, interleaving the clients.
    let mut execs: Vec<Executor> = s
        .artifacts
        .iter()
        .map(|a| Executor::new(Arc::clone(a)))
        .collect();
    let mut exec_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for i in 0..EXEC_REPLAY {
        let (m, img) = streams[i % clients][i / clients];
        let x = image_tensor(&pool[img as usize], &cfg);
        let t0 = Instant::now();
        execs[m as usize]
            .forward(&x)
            .map_err(infer_err("executor forward"))?;
        exec_ms[MODELS[m as usize].2 as usize].push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut op_us: BTreeMap<String, f64> = BTreeMap::new();
    for (ex, (_, _, int8)) in execs.iter().zip(MODELS) {
        let n = exec_ms[int8 as usize].len().max(1) as f64;
        let prec = if int8 { "int8" } else { "f32" };
        for (name, ns) in ex.layer_ns() {
            let key = format!("infer.op.{prec}.{}_us", op_group(&name));
            *op_us.entry(key).or_insert(0.0) += ns as f64 / 1e3 / n;
        }
    }

    let mut out = Outcome {
        attempted: sent,
        failed: failures.total(),
        ..Outcome::default()
    };
    out.put("synth.params_ms", params_ms, "ms");
    out.put("infer.compile_ms", compile_ms, "ms");
    out.put("infer.encode_ms", encode_ms, "ms");
    out.put("registry.register_ms", register_ms, "ms");
    out.put("fleet.start_ms", fleet_ms, "ms");
    out.put("infer.exec_f32_ms", median(&exec_ms[0]), "ms");
    out.put("infer.exec_int8_ms", median(&exec_ms[1]), "ms");
    for (name, us) in op_us {
        out.put(name, us, "us");
    }
    out.put(
        "serve.server_ms",
        merged(traced, |l| &l.server).percentile_ms(50.0).0,
        "ms",
    );
    out.put(
        "router.overhead_us",
        merged(traced, |l| &l.overhead).percentile_ms(50.0).0 * 1e3,
        "us",
    );
    out.put(
        "serve.batch_mean",
        batch_sum as f64 / answered.max(1) as f64,
        "count",
    );
    out.put("trace.overhead_ms", (wall_traced - wall_plain) * 1e3, "ms");
    let overhead_cpu_s = (cpu2 - cpu1) - (cpu1 - cpu0);
    out.put("trace.overhead_cpu_ms", overhead_cpu_s * 1e3, "ms");
    out.put(
        "wall.serve_rps",
        plain_ms.count() as f64 / wall_plain,
        "1/s",
    );
    out.put("wall.serve_p50_ms", plain_ms.percentile_ms(50.0).0, "ms");
    out.put("wall.serve_p99_ms", plain_ms.percentile_ms(99.0).0, "ms");
    out.note("requests_per_phase", counts.iter().sum::<usize>());
    out.note("untraced_phase_ms", wall_plain * 1e3);
    out.note("traced_phase_ms", wall_traced * 1e3);
    note_failures(&mut out, &failures);
    for log in logs {
        trace::append(spans_out, log.spans);
    }
    Ok(out)
}
