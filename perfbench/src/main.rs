//! The NDSNN benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload train_dense|train_ndsnn99|serve_zipf --seed N \
//!           --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the traced variant and prints the per-layer metrics. Earlier stdout
//! lines describe the hardware and the run; the last line is the result.
//! A failed correctness gate exits with code 1 and prints no result.

mod report;
mod serve;
mod trace;
mod train;

use ndsnn::config::MethodSpec;
use report::{json_object, result_line, GateError, Metric, Outcome};

/// End-to-end metrics every `--trace 0` run prints.
const END_TO_END: [&str; 4] = ["setup_s", "cpu_ms", "model_kb", "peak_rss_mb"];

/// Per-layer metrics every `--trace 1` run prints; a layer a workload does
/// not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.run_ms", "ms"),
    ("core.loop_self_ms", "ms"),
    ("data.loader_ms", "ms"),
    ("snn.build_ms", "ms"),
    ("sparse.init_ms", "ms"),
    ("snn.train_batch_ms", "ms"),
    ("snn.forward_ms", "ms"),
    ("snn.backward_ms", "ms"),
    ("snn.eval_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("sparse.before_optim_ms", "ms"),
    ("sparse.after_optim_ms", "ms"),
    ("sparse.mask_update_ms", "ms"),
    ("tensor.spike_gather_ms", "ms"),
    ("tensor.neuron_ms", "ms"),
    ("tensor.norm_ms", "ms"),
    ("tensor.spike_density", "ratio"),
    ("tensor.gather_frac", "ratio"),
    ("sparse.rounds", "count"),
    ("sparse.weight_density", "ratio"),
    ("snn.gflop_per_sample", "GFLOP"),
    ("snn.gflops_achieved", "GFLOP/s"),
    ("snn.test_acc_pct", "%"),
    ("synth.params_ms", "ms"),
    ("infer.compile_ms", "ms"),
    ("infer.encode_ms", "ms"),
    ("registry.register_ms", "ms"),
    ("fleet.start_ms", "ms"),
    ("infer.exec_f32_ms", "ms"),
    ("infer.exec_int8_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("router.overhead_us", "us"),
    ("serve.batch_mean", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_cpu_ms", "ms"),
    ("wall.train_run_ms", "ms"),
    ("wall.serve_rps", "1/s"),
    ("wall.serve_p50_ms", "ms"),
    ("wall.serve_p99_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Caps the kernel thread count at the available parallelism and returns
/// (available, requested, in effect).
fn configure_threads() -> (usize, Option<usize>, usize) {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let requested = std::env::var("NDSNN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    let effective = requested.unwrap_or(avail).clamp(1, avail);
    ndsnn_tensor::parallel::set_thread_override(Some(effective));
    (avail, requested, effective)
}

fn cpu_features() -> Vec<(String, String)> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        let detected = [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
            (
                "avx512vnni",
                std::arch::is_x86_feature_detected!("avx512vnni"),
            ),
            (
                "avx512vpopcntdq",
                std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
            ),
        ];
        for (name, on) in detected {
            out.push((name.to_string(), on.to_string()));
        }
    }
    out
}

fn run(args: &Args, clients: usize, spans: &mut Vec<trace::Span>) -> Result<Outcome, GateError> {
    let train_cfg = |method| train::config(method, args.seed);
    let ndsnn99 = MethodSpec::Ndsnn {
        initial_sparsity: 0.7,
        final_sparsity: 0.99,
    };
    match (args.workload.as_str(), args.trace) {
        ("train_dense", false) => train::measure(&train_cfg(MethodSpec::Dense), args.seconds),
        ("train_dense", true) => {
            train::measure_traced(&train_cfg(MethodSpec::Dense), args.seconds, spans)
        }
        ("train_ndsnn99", false) => train::measure(&train_cfg(ndsnn99), args.seconds),
        ("train_ndsnn99", true) => train::measure_traced(&train_cfg(ndsnn99), args.seconds, spans),
        ("serve_zipf", false) => serve::measure(args.seed, args.seconds, clients),
        ("serve_zipf", true) => serve::measure_traced(args.seed, args.seconds, clients, spans),
        (other, _) => Err(GateError(format!(
            "unknown workload {other} (train_dense, train_ndsnn99, serve_zipf)"
        ))),
    }
}

/// The metrics the result line carries: the end-to-end set, or the
/// per-layer set (with the `infer.op.*` split) padded with zeros.
fn select(out: &Outcome, trace: bool) -> Result<Vec<Metric>, GateError> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|name| {
                out.metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .cloned()
                    .ok_or_else(|| GateError(format!("workload did not measure {name}")))
            })
            .collect();
    }
    let mut sel: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                })
        })
        .collect();
    for prec in ["f32", "int8"] {
        let groups = (0..serve::CONV_LAYERS)
            .map(|i| format!("conv{i}"))
            .chain(serve::OP_KINDS.iter().map(|k| k.to_string()));
        for g in groups {
            let name = format!("infer.op.{prec}.{g}_us");
            let value = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            sel.push(Metric {
                name,
                value,
                unit: "us",
            });
        }
    }
    Ok(sel)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (avail, requested, threads) = configure_threads();
    let clients = avail;
    let mut hw = vec![
        ("line".to_string(), "hardware".to_string()),
        ("available_parallelism".into(), avail.to_string()),
        (
            "ndsnn_threads_env".into(),
            requested.map_or("unset".into(), |r| r.to_string()),
        ),
        ("ndsnn_threads".into(), threads.to_string()),
        ("target".into(), env!("PERFBENCH_TARGET").into()),
        ("target_cpu".into(), env!("PERFBENCH_TARGET_CPU").into()),
    ];
    hw.extend(cpu_features());
    println!("{}", json_object(&hw));

    let mut spans = Vec::new();
    let outcome = run(&args, clients, &mut spans).and_then(|mut out| {
        if !args.trace {
            out.put("peak_rss_mb", report::peak_rss_mb(), "MB");
        }
        let sel = select(&out, args.trace)?;
        Ok((out, sel))
    });
    let (out, metrics) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            std::process::exit(1);
        }
    };
    let mut info = vec![
        ("line".to_string(), "run".to_string()),
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
    ];
    if args.trace {
        // Spans go next to the build output, which stays inside the checkout.
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = format!(
            "{dir}/perfbench-spans/{}-{}.jsonl",
            args.workload, args.seed
        );
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("perfbench: could not write spans to {path}: {e}");
            std::process::exit(1);
        }
        info.push(("spans".into(), path));
    }
    info.extend(out.info.iter().cloned());
    println!("{}", json_object(&info));
    println!("{}", result_line(out.attempted, out.failed, &metrics));
}
