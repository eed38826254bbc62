//! Paired A/B benchmark of the active-set sparse-gradient backward
//! (DESIGN.md §14) against the two backwards it competes with.
//!
//! Every variant runs the *verbatim* Small-profile VGG-16 workload
//! (CIFAR-10 shapes, batch 32, T = 2) at the paper's θ = 0.9 weight
//! sparsity with a compact-support (Rectangle) surrogate, from identical
//! seed-11 masks. Three backward configurations are timed, each at
//! `NDSNN_THREADS` ∈ {1, 4}:
//!
//! * `densebwd` — weight exec plans disabled and active sets disabled:
//!   the dX chain is the dense tiled GEMM + col2im (the "runs at dense
//!   speed" baseline the active set was built to beat).
//! * `planned`  — weight exec plans at their defaults, active sets
//!   disabled: exactly the pre-PR backward, whose dX already runs
//!   row-sparse over the θ-masked weight (`sp_mm_t`).
//! * `active`   — everything at its shipped defaults: plans as above plus
//!   the active-set dX gather at the default grad-density threshold.
//!
//! At the default active threshold τ = 0.0 all three backwards are
//! bit-identical, so the six rigs must walk ONE loss trajectory bit for
//! bit — checked untimed before any timing.
//!
//! Timing is interleaved: every round times one step
//! of each variant back to back so all variants sample the same machine
//! noise, and per-variant medians compare like with like. A second sweep
//! varies the surrogate window width — which moves the realized backward
//! density — to chart how the speedup scales with density.
//!
//! The summary record appended to `NDSNN_BENCH_JSON`
//! (`results/bench_sparse_backward.json`) carries train-step and
//! backward-phase speedups against both baselines, the realized backward
//! density, the bit-identity verdict, and a `regression` flag (active
//! slower than the shipped `planned` backward at either thread count) for
//! the CI `grad-bench` gate.

use std::io::Write as _;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ndsnn::config::{DatasetKind, MethodSpec, RunConfig};
use ndsnn::profile::Profile;
use ndsnn::trainer::{build_datasets, build_network};
use ndsnn_snn::layers::Layer;
use ndsnn_snn::models::Architecture;
use ndsnn_snn::optim::Sgd;
use ndsnn_snn::surrogate::Surrogate;
use ndsnn_sparse::distribution::Distribution;
use ndsnn_sparse::dynamic::{DynamicConfig, DynamicEngine, GrowthMode, SparsityTrajectory};
use ndsnn_sparse::engine::{configure_grad_execution, SparseEngine};
use ndsnn_sparse::schedule::UpdateSchedule;
use ndsnn_tensor::parallel::set_thread_override;

/// Small-profile VGG-16 at the paper's 90% sparsity with a rectangular
/// surrogate window. Compact support is what makes the active set real:
/// the default arctangent surrogate never produces exact-zero derivatives,
/// so its backward is structurally dense (`always_active_at(0.0)`).
fn bench_cfg(width: f32) -> RunConfig {
    let mut cfg = Profile::Small.run_config(
        Architecture::Vgg16,
        DatasetKind::Cifar10,
        MethodSpec::Ndsnn {
            initial_sparsity: 0.9,
            final_sparsity: 0.9,
        },
    );
    cfg.surrogate = Surrogate::Rectangle { width };
    cfg
}

/// The three backward configurations under test.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Plans off, active sets off: dense tiled dX + col2im.
    DenseBwd,
    /// Plans at defaults, active sets off: the pre-PR `sp_mm_t` dX.
    Planned,
    /// Shipped defaults: plans plus the active-set dX gather.
    Active,
}

struct Rig {
    net: ndsnn_snn::network::SpikingNetwork,
    engine: DynamicEngine,
    opt: Sgd,
    step: usize,
}

/// Builds one arm. Every rig pins the same constant-θ seed-11 engine so
/// all variants start from identical masks; the arms differ only in the
/// execution knobs named above, never in a single computed value.
fn build_rig(cfg: &RunConfig, arm: Arm) -> Rig {
    let mut net = build_network(cfg).unwrap();
    let mut engine = DynamicEngine::with_label(
        "bench",
        DynamicConfig {
            initial_sparsity: 0.9,
            final_sparsity: 0.9,
            trajectory: SparsityTrajectory::Constant,
            death_initial: 0.3,
            death_min: 0.1,
            update: UpdateSchedule::new(0, 1_000_000, 2_000_000).unwrap(),
            growth: GrowthMode::Gradient,
            distribution: Distribution::Erk,
            seed: 11,
        },
    )
    .unwrap();
    if arm == Arm::DenseBwd {
        engine.set_density_threshold(-1.0);
    }
    engine.init(&mut net.layers).unwrap();
    if arm != Arm::Active {
        // Active-set emission off; τ stays at the bit-identical 0.0.
        configure_grad_execution(&mut net.layers, -1.0, 0.0);
    }
    Rig {
        net,
        engine,
        opt: Sgd::new(cfg.sgd),
        step: 0,
    }
}

/// One full train step; returns the loss and the backward-phase span.
fn step_once(rig: &mut Rig, batch: &ndsnn_data::loader::Batch) -> (f32, u64) {
    let (stats, _fwd_ns, bwd_ns) = rig
        .net
        .train_batch_instrumented(&batch.images, &batch.labels)
        .unwrap();
    rig.engine
        .before_optim(rig.step, &mut rig.net.layers)
        .unwrap();
    rig.opt.step(&mut rig.net.layers).unwrap();
    rig.engine
        .after_optim(rig.step, &mut rig.net.layers)
        .unwrap();
    rig.step += 1;
    (stats.loss, bwd_ns)
}

/// Aggregated backward-dispatch stats across every layer of the net.
fn drain_grad_stats(rig: &mut Rig) -> ndsnn_snn::layers::SpikeExecStats {
    let stats = rig.net.layers.grad_exec_stats();
    rig.net.layers.reset_grad_exec_stats();
    stats
}

fn median_of(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

fn bench_sparse_backward(c: &mut Criterion) {
    let cfg = bench_cfg(1.0);
    let (train, _) = build_datasets(&cfg);
    let loader = ndsnn_data::loader::BatchLoader::eval(cfg.batch_size);
    let batch = loader.epoch(&train, 0).remove(0);

    let variants: [(&str, Arm, usize); 6] = [
        ("densebwd_t1", Arm::DenseBwd, 1),
        ("planned_t1", Arm::Planned, 1),
        ("active_t1", Arm::Active, 1),
        ("densebwd_t4", Arm::DenseBwd, 4),
        ("planned_t4", Arm::Planned, 4),
        ("active_t4", Arm::Active, 4),
    ];

    // ---- Bit-identity gate (untimed): all six rigs must walk one shared
    // loss trajectory bit for bit — plans, threads, and the active-set
    // gather may never change a single computed value.
    let mut losses_bit_identical = true;
    {
        let mut rigs: Vec<Rig> = variants
            .iter()
            .map(|&(_, arm, threads)| {
                set_thread_override(Some(threads));
                build_rig(&cfg, arm)
            })
            .collect();
        for _ in 0..3 {
            let mut ref_bits: Option<u32> = None;
            for (rig, &(label, _, threads)) in rigs.iter_mut().zip(&variants) {
                set_thread_override(Some(threads));
                let (loss, _) = step_once(rig, &batch);
                match ref_bits {
                    None => ref_bits = Some(loss.to_bits()),
                    Some(bits) => {
                        if loss.to_bits() != bits {
                            losses_bit_identical = false;
                            eprintln!(
                                "sparse_backward: loss diverged at {label}: \
                                 {loss} vs {}",
                                f32::from_bits(bits)
                            );
                        }
                    }
                }
            }
        }
        set_thread_override(None);
    }
    println!("sparse_backward: losses_bit_identical={losses_bit_identical}");

    // ---- Interleaved timing over fresh rigs (the gate advanced weights).
    const ROUNDS: usize = 30;
    let mut rigs: Vec<Rig> = variants
        .iter()
        .map(|&(_, arm, threads)| {
            set_thread_override(Some(threads));
            build_rig(&cfg, arm)
        })
        .collect();
    // Warm-up: fault in every code path and spawn the pool workers.
    for (rig, &(_, _, threads)) in rigs.iter_mut().zip(&variants) {
        set_thread_override(Some(threads));
        for _ in 0..2 {
            black_box(step_once(rig, &batch));
        }
        drain_grad_stats(rig);
    }
    let mut step_ns: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); variants.len()];
    let mut bwd_ns: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); variants.len()];
    for _ in 0..ROUNDS {
        for (vi, &(_, _, threads)) in variants.iter().enumerate() {
            set_thread_override(Some(threads));
            let t0 = std::time::Instant::now();
            let (loss, bwd) = step_once(&mut rigs[vi], &batch);
            black_box(loss);
            step_ns[vi].push(t0.elapsed().as_nanos() as f64);
            bwd_ns[vi].push(bwd as f64);
        }
    }
    set_thread_override(None);

    let mut med_step = [0.0f64; 6];
    let mut med_bwd = [0.0f64; 6];
    let mut step_lines = String::new();
    let mut density = 1.0f64;
    for (vi, &(label, arm, _)) in variants.iter().enumerate() {
        med_step[vi] = median_of(&step_ns[vi]);
        med_bwd[vi] = median_of(&bwd_ns[vi]);
        let stats = drain_grad_stats(&mut rigs[vi]);
        if arm == Arm::Active && stats.elems > 0 {
            density = stats.nnz as f64 / stats.elems as f64;
        }
        println!(
            "bench sparse_backward/vgg16_small_s90/{label}: median {:.1} ns/step \
             (backward {:.1} ns), {ROUNDS} interleaved rounds",
            med_step[vi], med_bwd[vi]
        );
        step_lines.push_str(&format!(
            "{{\"id\":\"sparse_backward/vgg16_small_s90/{label}\",\
             \"median_ns\":{:.1},\"median_backward_ns\":{:.1},\"rounds\":{ROUNDS}}}\n",
            med_step[vi], med_bwd[vi]
        ));
    }
    // Indices into `variants`: 0..3 = t1 triple, 3..6 = t4 triple.
    let speedup_t1 = med_step[0] / med_step[2];
    let speedup_t4 = med_step[3] / med_step[5];
    let speedup_planned_t1 = med_step[1] / med_step[2];
    let speedup_planned_t4 = med_step[4] / med_step[5];
    let bwd_speedup_t1 = med_bwd[0] / med_bwd[2];
    let bwd_speedup_t4 = med_bwd[3] / med_bwd[5];
    let regression = speedup_planned_t1 < 1.0 || speedup_planned_t4 < 1.0;
    println!(
        "sparse_backward: step speedup vs dense backward t1={speedup_t1:.3} \
         t4={speedup_t4:.3}; vs weight-plan backward t1={speedup_planned_t1:.3} \
         t4={speedup_planned_t4:.3}; backward-phase t1={bwd_speedup_t1:.3} \
         t4={bwd_speedup_t4:.3}; density={density:.4} regression={regression}"
    );

    // ---- Density sweep: window width moves the realized backward density.
    // Few rounds each — this charts the scaling curve, not the headline. ----
    let mut sweep_lines = String::new();
    for width in [0.5f32, 1.0, 2.0, 4.0] {
        let wcfg = bench_cfg(width);
        set_thread_override(Some(4));
        let mut arms = [
            build_rig(&wcfg, Arm::DenseBwd),
            build_rig(&wcfg, Arm::Active),
        ];
        for rig in arms.iter_mut() {
            black_box(step_once(rig, &batch));
            drain_grad_stats(rig);
        }
        const SWEEP_ROUNDS: usize = 8;
        let mut t = [Vec::new(), Vec::new()];
        for _ in 0..SWEEP_ROUNDS {
            for (ai, rig) in arms.iter_mut().enumerate() {
                let t0 = std::time::Instant::now();
                black_box(step_once(rig, &batch));
                t[ai].push(t0.elapsed().as_nanos() as f64);
            }
        }
        set_thread_override(None);
        let stats = drain_grad_stats(&mut arms[1]);
        let d = if stats.elems > 0 {
            stats.nnz as f64 / stats.elems as f64
        } else {
            1.0
        };
        let sp = median_of(&t[0]) / median_of(&t[1]);
        println!(
            "bench sparse_backward/density_sweep width={width}: \
             backward_density {d:.4}, speedup {sp:.3}"
        );
        sweep_lines.push_str(&format!(
            "{{\"id\":\"sparse_backward/density_sweep/w{width}\",\
             \"backward_density\":{d:.4},\"speedup\":{sp:.3},\
             \"rounds\":{SWEEP_ROUNDS}}}\n"
        ));
    }

    // ---- Summary record for results/. ----
    let line = format!(
        "{{\"id\":\"sparse_backward/summary\",\"sparsity\":0.9,\
         \"profile\":\"small_vgg16\",\"batch\":{},\"timesteps\":{},\
         \"speedup_t1\":{speedup_t1:.3},\"speedup_t4\":{speedup_t4:.3},\
         \"speedup_vs_weight_plan_t1\":{speedup_planned_t1:.3},\
         \"speedup_vs_weight_plan_t4\":{speedup_planned_t4:.3},\
         \"backward_speedup_t1\":{bwd_speedup_t1:.3},\
         \"backward_speedup_t4\":{bwd_speedup_t4:.3},\
         \"backward_density\":{density:.4},\
         \"losses_bit_identical\":{losses_bit_identical},\
         \"regression\":{regression}}}\n",
        cfg.batch_size, cfg.timesteps
    );
    print!("sparse_backward summary: {line}");
    if let Ok(path) = std::env::var("NDSNN_BENCH_JSON") {
        if !path.is_empty() {
            let payload = format!("{step_lines}{sweep_lines}{line}");
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(payload.as_bytes()));
            if let Err(e) = written {
                eprintln!("sparse_backward: could not append summary to {path}: {e}");
            }
        }
    }

    // Token Criterion group so the bench integrates with the harness.
    let mut group = c.benchmark_group("sparse_backward");
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(600));
    group.sample_size(10);
    set_thread_override(Some(4));
    let mut rig = build_rig(&cfg, Arm::Active);
    group.bench_function("active_t4_step", |b| {
        b.iter(|| black_box(step_once(&mut rig, &batch)))
    });
    set_thread_override(None);
    group.finish();
}

criterion_group!(benches, bench_sparse_backward);
criterion_main!(benches);
