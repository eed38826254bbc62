//! Records the build target and `target-cpu` for the hardware line.

fn main() {
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let cpu = flags
        .split('\x1f')
        .find_map(|f| f.split_once("target-cpu=").map(|(_, cpu)| cpu.to_string()))
        .unwrap_or_else(|| "default".into());
    println!("cargo:rustc-env=PERFBENCH_TARGET={target}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
