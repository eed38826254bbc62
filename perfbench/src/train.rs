//! Training workloads: dense and NDSNN@99% Small VGG-16 on the
//! CIFAR-10-like synthetic set.
//!
//! The untraced run is `trainer::run_with_data` itself. The traced run is a
//! replay of the same loop built from the layers' public functions, with a
//! span around every call into a layer; it must reproduce the untraced
//! result bit for bit.

use std::time::Instant;

use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::{self, RunResult};
use ndsnn_data::augment::AugmentConfig;
use ndsnn_data::dataset::InMemoryDataset;
use ndsnn_data::loader::BatchLoader;
use ndsnn_data::synthetic::{generate, SyntheticConfig};
use ndsnn_metrics::meters::{AccuracyMeter, AvgMeter, EpochRecord};
use ndsnn_snn::layers::Layer;
use ndsnn_snn::models::Architecture;
use ndsnn_snn::network::SpikingNetwork;
use ndsnn_snn::optim::{CosineSchedule, Sgd};
use ndsnn_sparse::engine::{configure_grad_execution, configure_spike_execution, SparseEngine};
use ndsnn_tensor::ops::grad::{grad_active_threshold_from_env, grad_density_threshold_from_env};
use ndsnn_tensor::ops::spike::spike_density_threshold_from_env;

use crate::report::{self, gate, median, Gate, GateError, Outcome};
use crate::trace::{self, Span, Tracer};

/// Set-ups measured per run; the median is reported.
const SETUP_REPS: usize = 25;
/// Complete training runs measured per run at the least.
const MIN_RUNS: usize = 3;
/// Allowed distance between the final weight density and the target.
const DENSITY_TOLERANCE: f64 = 0.002;

/// The training configuration for `method` and `seed`: the Small profile
/// (width 1/8, 8×8 images, 256/96 samples, 12 epochs, batch 32, T = 2,
/// atan surrogate).
pub fn config(method: MethodSpec, seed: u64) -> RunConfig {
    let mut cfg = Profile::Small.run_config(Architecture::Vgg16, DatasetKind::Cifar10, method);
    cfg.seed = seed;
    cfg
}

/// The synthetic train/test sets for `cfg`, with the data seed taken from
/// the benchmark seed.
fn datasets(cfg: &RunConfig) -> (InMemoryDataset, InMemoryDataset) {
    let mut synth = SyntheticConfig::cifar10_like(cfg.train_samples, cfg.test_samples)
        .with_image_size(cfg.image_size)
        .with_num_classes(cfg.num_classes);
    synth.seed ^= cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    generate(&synth)
}

fn target_sparsity(cfg: &RunConfig) -> f64 {
    match cfg.method {
        MethodSpec::Ndsnn { final_sparsity, .. } => final_sparsity,
        _ => 0.0,
    }
}

fn network(cfg: &RunConfig) -> Gate<SpikingNetwork> {
    let mut net =
        trainer::build_network(cfg).map_err(|e| GateError(format!("build network: {e}")))?;
    configure_spike_execution(
        &mut net.layers,
        cfg.spike_density_threshold
            .unwrap_or_else(spike_density_threshold_from_env),
    );
    configure_grad_execution(
        &mut net.layers,
        cfg.grad_density_threshold
            .unwrap_or_else(grad_density_threshold_from_env),
        grad_active_threshold_from_env() as f32,
    );
    Ok(net)
}

fn train_loader(cfg: &RunConfig) -> BatchLoader {
    BatchLoader::new(
        cfg.batch_size,
        true,
        AugmentConfig {
            crop_padding: (cfg.image_size / 8).min(4),
            flip_prob: 0.5,
            noise_std: 0.0,
        },
        cfg.seed ^ 0xDA7A,
    )
}

fn engine(
    cfg: &RunConfig,
    total_steps: usize,
    net: &mut SpikingNetwork,
) -> Gate<Box<dyn SparseEngine>> {
    let mut engine = trainer::build_engine(cfg, total_steps)
        .map_err(|e| GateError(format!("build engine: {e}")))?;
    engine
        .init(&mut net.layers)
        .map_err(|e| GateError(format!("engine init: {e}")))?;
    Ok(engine)
}

/// One set-up: datasets, network and sparse engine, as a run needs them.
fn setup_once(cfg: &RunConfig) -> Gate<(InMemoryDataset, InMemoryDataset)> {
    let (train, test) = datasets(cfg);
    let mut net = network(cfg)?;
    let steps = train_loader(cfg).batches_per_epoch(&train) * cfg.epochs;
    engine(cfg, steps, &mut net)?;
    Ok((train, test))
}

/// Runs `f`, returning its value with the wall-clock and process CPU
/// seconds it took.
fn timed<T>(f: impl FnOnce() -> Gate<T>) -> Gate<(T, (f64, f64))> {
    let (t0, cpu0) = (Instant::now(), report::cpu_seconds());
    let out = f()?;
    Ok((
        out,
        (t0.elapsed().as_secs_f64(), report::cpu_seconds() - cpu0),
    ))
}

fn median_of<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&v.iter().map(f).collect::<Vec<_>>())
}

fn run(cfg: &RunConfig, train: &InMemoryDataset, test: &InMemoryDataset) -> Gate<RunResult> {
    trainer::run_with_data(cfg, train, test)
        .map_err(|e| GateError(format!("training run failed: {e}")))
}

/// One single-epoch run, discarded: starts the kernel thread pool and
/// fills caches and the allocator before anything is timed.
fn warm_up(cfg: &RunConfig, train: &InMemoryDataset, test: &InMemoryDataset) -> Gate {
    let short = RunConfig { epochs: 1, ..*cfg };
    run(&short, train, test).map(|_| ())
}

fn epochs_equal(a: &[EpochRecord], b: &[EpochRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.epoch == y.epoch
                && x.train_loss.to_bits() == y.train_loss.to_bits()
                && x.train_acc.to_bits() == y.train_acc.to_bits()
                && x.test_acc.to_bits() == y.test_acc.to_bits()
                && x.sparsity.to_bits() == y.sparsity.to_bits()
                && x.spike_rate.to_bits() == y.spike_rate.to_bits()
                && x.lr.to_bits() == y.lr.to_bits()
        })
}

/// Gates every untraced result must pass: finite losses, no faults, and
/// the final weight density at the method's target.
fn check_result(cfg: &RunConfig, r: &RunResult) -> Gate {
    gate(r.epochs.len() == cfg.epochs, || {
        format!(
            "run recorded {} epochs, expected {}",
            r.epochs.len(),
            cfg.epochs
        )
    })?;
    gate(r.epochs.iter().all(|e| e.train_loss.is_finite()), || {
        "non-finite training loss".into()
    })?;
    gate(r.faults.is_empty(), || {
        format!("run reported faults: {:?}", r.faults)
    })?;
    let target = target_sparsity(cfg);
    gate(
        (r.final_sparsity - target).abs() <= DENSITY_TOLERANCE,
        || {
            format!(
                "final weight density {:.5} is not the target {:.5}",
                1.0 - r.final_sparsity,
                1.0 - target
            )
        },
    )
}

/// Gates a repeat of the same seed: the same trajectory, bit for bit.
fn check_same(a: &RunResult, b: &RunResult, what: &str) -> Gate {
    gate(epochs_equal(&a.epochs, &b.epochs), || {
        format!("{what}: per-epoch records differ")
    })?;
    gate(
        a.final_test_acc.to_bits() == b.final_test_acc.to_bits(),
        || {
            format!(
                "{what}: test accuracy {} vs {}",
                a.final_test_acc, b.final_test_acc
            )
        },
    )?;
    gate(a.mask_digest == b.mask_digest, || {
        format!(
            "{what}: mask digest {:#x} vs {:#x}",
            a.mask_digest, b.mask_digest
        )
    })?;
    gate(a.final_live_weights == b.final_live_weights, || {
        format!(
            "{what}: live weights {} vs {}",
            a.final_live_weights, b.final_live_weights
        )
    })
}

/// f32 bytes of the trained model's nonzero parameters, in KiB.
fn model_kb(r: &RunResult) -> f64 {
    let dense_sparsifiable = (r.final_live_weights as f64 / (1.0 - r.final_sparsity)).round();
    let other = r.num_params as f64 - dense_sparsifiable;
    (other + r.final_live_weights as f64) * 4.0 / 1024.0
}

fn ops(r: &RunResult) -> (u64, u64) {
    let failed = r.faults.len() as u64;
    (r.timings.batches + failed, failed)
}

/// The untraced measurement: set-up time and complete training runs.
pub fn measure(cfg: &RunConfig, seconds: f64) -> Gate<Outcome> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = setup_once(cfg)?;
        setups.push(t0.elapsed().as_secs_f64());
        data = Some(d);
    }
    let (train, test) = data.expect("SETUP_REPS >= 1");
    warm_up(cfg, &train, &test)?;

    let start = Instant::now();
    let jiffies = report::cpu_jiffies();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<RunResult> = None;
    let (mut attempted, mut failed) = (0, 0);
    while walls.len() < MIN_RUNS || start.elapsed().as_secs_f64() + median(&walls) <= seconds {
        let (r, (wall, cpu)) = timed(|| run(cfg, &train, &test))?;
        cpus.push(cpu);
        check_result(cfg, &r)?;
        let (a, f) = ops(&r);
        attempted += a;
        failed += f;
        match &first {
            Some(f) => check_same(f, &r, "repeat of the same seed")?,
            None => first = Some(r),
        }
        walls.push(wall);
    }
    let steal = report::steal_pct(jiffies, report::cpu_jiffies());
    let r = first.expect("at least one run");
    let samples = (r.timings.batches as usize * cfg.batch_size) as f64;
    let ms_list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.0}", x * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };

    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.put("setup_s", median(&setups), "s");
    out.put("cpu_ms", median(&cpus) * 1e3, "ms");
    out.put("model_kb", model_kb(&r), "KiB");
    out.note("train_run_ms", median(&walls) * 1e3);
    out.note("train_samples_per_s", samples / median(&walls));
    out.note("test_acc_pct", r.final_test_acc);
    out.note("runs", walls.len());
    out.note("run_wall_ms", ms_list(&walls));
    out.note("run_cpu_ms", ms_list(&cpus));
    out.note("steal_pct", format!("{steal:.1}"));
    out.note("setups", setups.len());
    out.note("optimizer_steps_per_run", r.timings.batches);
    out.note("final_sparsity", r.final_sparsity);
    out.note("mask_digest", format!("{:#x}", r.mask_digest));
    Ok(out)
}

/// Counters and results of one traced replay.
#[derive(Debug, Default)]
struct Replay {
    epochs: Vec<EpochRecord>,
    final_test: f64,
    mask_digest: u64,
    final_sparsity: f64,
    live_weights: usize,
    rounds: usize,
    steps: u64,
    forward_ns: u64,
    backward_ns: u64,
    gather_ns: u64,
    gather_steps: u64,
    dense_steps: u64,
    spike_nnz: u64,
    spike_elems: u64,
    neuron_ns: u64,
    norm_ns: u64,
    mask_update_ns: u64,
}

/// Name of the first parameter (gradient or value) that is not finite.
fn first_nonfinite(model: &mut dyn Layer, grads: bool) -> Option<String> {
    let mut bad = None;
    model.for_each_param(&mut |p| {
        let t = if grads { &p.grad } else { &p.value };
        if bad.is_none() && !t.all_finite() {
            bad = Some(p.name.clone());
        }
    });
    bad
}

fn snn_err(e: impl std::fmt::Display) -> GateError {
    GateError(format!("snn: {e}"))
}

fn sparse_err(e: impl std::fmt::Display) -> GateError {
    GateError(format!("sparse engine: {e}"))
}

/// `trainer::run_with_data` for a run without faults, checkpoints or LTH
/// rounds, rebuilt from public layer calls with a span around each.
fn replay(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
    tr: &mut Tracer,
) -> Gate<Replay> {
    let run = tr.begin("core.run");
    let out = replay_body(cfg, train, test, tr);
    tr.end(run);
    out
}

fn replay_body(
    cfg: &RunConfig,
    train: &InMemoryDataset,
    test: &InMemoryDataset,
    tr: &mut Tracer,
) -> Gate<Replay> {
    let mut net = tr.span("snn.build", || network(cfg))?;
    let loader = train_loader(cfg);
    let eval_loader = BatchLoader::eval(cfg.batch_size);
    let total_steps = loader.batches_per_epoch(train) * cfg.epochs;
    let mut engine = tr.span("sparse.init", || engine(cfg, total_steps, &mut net))?;
    let mut opt = Sgd::new(cfg.sgd);
    let schedule = CosineSchedule::new(cfg.sgd.lr, 0.0, cfg.epochs.max(1));
    let mut rep = Replay::default();
    let mut step = 0usize;
    for epoch in 0..cfg.epochs {
        opt.set_lr(schedule.at(epoch));
        net.reset_spike_stats();
        let mut loss_meter = AvgMeter::new();
        let mut acc_meter = AccuracyMeter::new();
        let batches = tr.span("data.loader", || loader.epoch(train, epoch));
        for batch in batches {
            let (stats, fwd, bwd) = tr
                .span("snn.train_batch", || {
                    net.train_batch_instrumented(&batch.images, &batch.labels)
                })
                .map_err(snn_err)?;
            rep.forward_ns += fwd;
            rep.backward_ns += bwd;
            let spike = net.layers.spike_exec_stats();
            net.layers.reset_spike_exec_stats();
            rep.gather_ns += spike.kernel_ns;
            rep.gather_steps += spike.gather_steps;
            rep.dense_steps += spike.dense_steps;
            rep.spike_nnz += spike.nnz;
            rep.spike_elems += spike.elems;
            net.layers.reset_grad_exec_stats();
            let phase = net.layers.phase_ns();
            net.layers.reset_phase_ns();
            rep.neuron_ns += phase.neuron_ns;
            rep.norm_ns += phase.norm_ns;

            gate(stats.loss.is_finite(), || {
                format!("non-finite loss at step {step}")
            })?;
            if let Some(name) = first_nonfinite(&mut net.layers, true) {
                return Err(GateError(format!("non-finite gradient in {name}")));
            }
            tr.span("sparse.before_optim", || {
                engine.before_optim(step, &mut net.layers)
            })
            .map_err(sparse_err)?;
            tr.span("optim.step", || opt.step(&mut net.layers))
                .map_err(snn_err)?;
            tr.span("sparse.after_optim", || {
                engine.after_optim(step, &mut net.layers)
            })
            .map_err(sparse_err)?;
            rep.mask_update_ns += engine.drain_update_ns();
            loss_meter.update(stats.loss as f64, stats.total as u64);
            acc_meter.update(stats.correct, stats.total);
            step += 1;
            rep.steps += 1;
            if let Some(name) = first_nonfinite(&mut net.layers, false) {
                return Err(GateError(format!("non-finite weight in {name}")));
            }
        }
        let train_rate = net.spike_stats().rate();
        let sparsity = engine.sparsity();
        let mut test_meter = AccuracyMeter::new();
        let eval_batches = tr.span("data.loader", || eval_loader.epoch(test, 0));
        for batch in eval_batches {
            let stats = tr
                .span("snn.eval", || net.eval_batch(&batch.images, &batch.labels))
                .map_err(snn_err)?;
            test_meter.update(stats.correct, stats.total);
        }
        net.layers.reset_spike_exec_stats();
        net.layers.reset_grad_exec_stats();
        rep.final_test = test_meter.percent();
        rep.epochs.push(EpochRecord {
            epoch,
            train_loss: loss_meter.mean(),
            train_acc: acc_meter.percent(),
            test_acc: rep.final_test,
            sparsity,
            spike_rate: train_rate,
            lr: opt.lr() as f64,
        });
    }
    let (mut nonzero, mut total) = (0usize, 0usize);
    net.layers.for_each_param(&mut |p| {
        if p.is_sparsifiable() {
            nonzero += p.value.count_nonzero();
            total += p.len();
        }
    });
    rep.live_weights = nonzero;
    rep.final_sparsity = if total == 0 {
        0.0
    } else {
        1.0 - nonzero as f64 / total as f64
    };
    rep.mask_digest = engine.mask_set().map(|m| m.digest()).unwrap_or(0);
    rep.rounds = engine.history().len();
    Ok(rep)
}

/// Gates the replay against the untraced run: same trajectory, accuracy,
/// topology and kernel-dispatch counts.
fn check_replay(r: &RunResult, rep: &Replay) -> Gate {
    gate(epochs_equal(&r.epochs, &rep.epochs), || {
        "traced replay: per-epoch records differ from trainer::run_with_data".into()
    })?;
    gate(
        r.final_test_acc.to_bits() == rep.final_test.to_bits(),
        || {
            format!(
                "traced replay: test accuracy {} vs {}",
                rep.final_test, r.final_test_acc
            )
        },
    )?;
    gate(r.mask_digest == rep.mask_digest, || {
        format!(
            "traced replay: mask digest {:#x} vs {:#x}",
            rep.mask_digest, r.mask_digest
        )
    })?;
    gate(
        r.final_live_weights == rep.live_weights
            && r.final_sparsity.to_bits() == rep.final_sparsity.to_bits(),
        || "traced replay: final weights differ".into(),
    )?;
    let t = &r.timings;
    gate(
        (
            t.batches,
            t.spike_gather_steps,
            t.spike_dense_steps,
            t.spike_nnz,
            t.spike_elems,
        ) == (
            rep.steps,
            rep.gather_steps,
            rep.dense_steps,
            rep.spike_nnz,
            rep.spike_elems,
        ),
        || "traced replay: kernel dispatch counts differ".into(),
    )
}

/// The traced measurement: pairs of (untraced run, traced replay).
pub fn measure_traced(cfg: &RunConfig, seconds: f64, spans_out: &mut Vec<Span>) -> Gate<Outcome> {
    let (train, test) = datasets(cfg);
    warm_up(cfg, &train, &test)?;
    let origin = Instant::now();
    let start = Instant::now();
    // (wall, CPU) seconds of each side.
    let mut untraced: Vec<(f64, f64)> = Vec::new();
    let mut traced: Vec<(f64, f64)> = Vec::new();
    let mut layers = Vec::new();
    let mut last;
    let (mut attempted, mut failed) = (0, 0);
    let mut pair = 0u64;
    loop {
        let mut tr = Tracer::new(origin, pair);
        let run_untraced = || timed(|| run(cfg, &train, &test));
        let mut run_traced = || timed(|| replay(cfg, &train, &test, &mut tr));
        // Alternate which side runs first so neither always runs warm.
        let ((r, u), (rep, t)) = if pair.is_multiple_of(2) {
            let u = run_untraced()?;
            (u, run_traced()?)
        } else {
            let t = run_traced()?;
            (run_untraced()?, t)
        };
        check_result(cfg, &r)?;
        check_replay(&r, &rep)?;
        let (a, f) = ops(&r);
        attempted += a + rep.steps;
        failed += f;
        untraced.push(u);
        traced.push(t);
        layers.push(layer_values(tr.spans(), &rep, &r, t.0));
        trace::append(spans_out, tr.into_spans());
        last = (r, rep);
        pair += 1;
        let pair_s = median_of(&untraced, |x| x.0) + median_of(&traced, |x| x.0);
        if start.elapsed().as_secs_f64() + pair_s > seconds {
            break;
        }
    }
    let (r, rep) = last;
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    for (i, &(name, _, unit)) in layers[0].iter().enumerate() {
        let vals: Vec<f64> = layers.iter().map(|l| l[i].1).collect();
        out.put(name, median(&vals), unit);
    }
    let (wall_u, wall_t) = (median_of(&untraced, |x| x.0), median_of(&traced, |x| x.0));
    let (cpu_u, cpu_t) = (median_of(&untraced, |x| x.1), median_of(&traced, |x| x.1));
    out.put("trace.overhead_ms", (wall_t - wall_u) * 1e3, "ms");
    out.put("trace.overhead_cpu_ms", (cpu_t - cpu_u) * 1e3, "ms");
    out.put("wall.train_run_ms", wall_u * 1e3, "ms");
    out.note("pairs", untraced.len());
    out.note("untraced_run_ms", wall_u * 1e3);
    out.note("traced_run_ms", wall_t * 1e3);
    out.note("mask_rounds", rep.rounds);
    out.note("final_sparsity", r.final_sparsity);
    Ok(out)
}

/// Per-layer values of one traced replay (ms are per-run totals).
fn layer_values(
    spans: &[Span],
    rep: &Replay,
    r: &RunResult,
    wall_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let totals = trace::totals_ns(spans);
    let ms = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let train_batch_s = ms("snn.train_batch") / 1e3;
    let gflop = r.flops.realized / 1e9;
    let samples = rep.steps as f64 * r.config.batch_size as f64;
    let dispatches = rep.gather_steps + rep.dense_steps;
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    let achieved = if train_batch_s > 0.0 {
        gflop * samples / train_batch_s
    } else {
        0.0
    };
    vec![
        ("core.run_ms", wall_s * 1e3, "ms"),
        (
            "core.loop_self_ms",
            ns_ms(trace::self_ns(spans, "core.run")),
            "ms",
        ),
        ("data.loader_ms", ms("data.loader"), "ms"),
        ("snn.build_ms", ms("snn.build"), "ms"),
        ("sparse.init_ms", ms("sparse.init"), "ms"),
        ("snn.train_batch_ms", ms("snn.train_batch"), "ms"),
        ("snn.forward_ms", ns_ms(rep.forward_ns), "ms"),
        ("snn.backward_ms", ns_ms(rep.backward_ns), "ms"),
        ("snn.eval_ms", ms("snn.eval"), "ms"),
        ("optim.step_ms", ms("optim.step"), "ms"),
        ("sparse.before_optim_ms", ms("sparse.before_optim"), "ms"),
        ("sparse.after_optim_ms", ms("sparse.after_optim"), "ms"),
        ("sparse.mask_update_ms", ns_ms(rep.mask_update_ns), "ms"),
        ("tensor.spike_gather_ms", ns_ms(rep.gather_ns), "ms"),
        ("tensor.neuron_ms", ns_ms(rep.neuron_ns), "ms"),
        ("tensor.norm_ms", ns_ms(rep.norm_ns), "ms"),
        (
            "tensor.spike_density",
            rep.spike_nnz as f64 / rep.spike_elems.max(1) as f64,
            "ratio",
        ),
        (
            "tensor.gather_frac",
            rep.gather_steps as f64 / dispatches.max(1) as f64,
            "ratio",
        ),
        ("sparse.rounds", rep.rounds as f64, "count"),
        ("sparse.weight_density", 1.0 - rep.final_sparsity, "ratio"),
        ("snn.test_acc_pct", r.final_test_acc, "%"),
        ("snn.gflop_per_sample", gflop, "GFLOP"),
        ("snn.gflops_achieved", achieved, "GFLOP/s"),
    ]
}
