//! Property tests pinning the tiled kernel core's bit-identity contract.
//!
//! The tiled GEMM/conv core promises the *same f32 accumulation chain* as a
//! naive `+0.0`-seeded ascending-k loop, for every shape (including ragged
//! edges that exercise panel zero-padding), every thread count, and with or
//! without a fused epilogue (the contract is stated in `ops/tile.rs`). These
//! tests check `to_bits()` equality — not an epsilon — against naive
//! references written from that contract, which call none of the kernels
//! under test, across forced tile-parallel dispatch.

use std::sync::Mutex;

use ndsnn_tensor::ops::conv::{
    conv2d_backward, conv2d_forward, conv2d_forward_with_epilogue, Conv2dGeometry,
};
use ndsnn_tensor::ops::matmul::{matmul, matmul_a_bt, matmul_a_bt_epilogue, matmul_at_b};
use ndsnn_tensor::ops::tile::{set_min_tile_work_override, BiasCol, BiasRow};
use ndsnn_tensor::parallel::set_thread_override;
use ndsnn_tensor::scratch::ScratchPool;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// The thread/min-work overrides are process globals; property tests run on
/// multiple test threads, so every test that flips them holds this lock.
static OVERRIDES: Mutex<()> = Mutex::new(());

/// RAII reset so a failing case does not leak forced-parallel dispatch into
/// other tests.
struct ForceTiling;

impl ForceTiling {
    fn new(threads: usize) -> ForceTiling {
        set_thread_override(Some(threads));
        set_min_tile_work_override(Some(0));
        ForceTiling
    }
}

impl Drop for ForceTiling {
    fn drop(&mut self) {
        set_thread_override(None);
        set_min_tile_work_override(None);
    }
}

/// The contract's reference: `+0.0`-seeded, ascending-k serial chain.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// The input pixel that output position `o` reads through kernel tap `k`
/// along one axis of length `len`, or `None` inside the zero padding (whose
/// products are exact no-ops on a `+0.0`-seeded chain).
fn tap(o: usize, k: usize, g: &Conv2dGeometry, len: usize) -> Option<usize> {
    (o * g.stride + k)
        .checked_sub(g.padding)
        .filter(|&i| i < len)
}

/// Flat index of `W[f][c][kh][kw]`.
fn w_idx(g: &Conv2dGeometry, f: usize, c: usize, kh: usize, kw: usize) -> usize {
    ((f * g.in_channels + c) * g.kernel_h + kh) * g.kernel_w + kw
}

/// Conv forward reference on a `(b, C, hw, hw)` input: per output element,
/// a `+0.0`-seeded chain over `(c, kh, kw)` ascending (the im2col row
/// order), then the bias added once.
fn naive_conv_fwd(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    g: &Conv2dGeometry,
    b: usize,
    hw: usize,
) -> Vec<f32> {
    let (oh, ow) = g.output_hw(hw, hw).unwrap();
    let (cin, fout) = (g.in_channels, g.out_channels);
    let mut y = vec![0.0f32; b * fout * oh * ow];
    for s in 0..b {
        for f in 0..fout {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..cin {
                        for kh in 0..g.kernel_h {
                            for kw in 0..g.kernel_w {
                                if let (Some(iy), Some(ix)) =
                                    (tap(oy, kh, g, hw), tap(ox, kw, g, hw))
                                {
                                    acc += w[w_idx(g, f, c, kh, kw)]
                                        * x[((s * cin + c) * hw + iy) * hw + ix];
                                }
                            }
                        }
                    }
                    y[((s * fout + f) * oh + oy) * ow + ox] = acc + bias[f];
                }
            }
        }
    }
    y
}

/// Conv backward reference `(dX, dW, dBias)`. dX: every col-gradient
/// element is a `+0.0`-seeded chain over filters ascending, scattered into
/// a zeroed dX in `(c, kh, kw, oy, ox)` order. dW and dBias: each sample's
/// own ascending-position chain, added to the running total in sample
/// order — the whole contract while `b <= 8`, where every backward block
/// holds one sample.
fn naive_conv_bwd(
    x: &[f32],
    w: &[f32],
    gy: &[f32],
    g: &Conv2dGeometry,
    b: usize,
    hw: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (oh, ow) = g.output_hw(hw, hw).unwrap();
    let (cin, fout) = (g.in_channels, g.out_channels);
    let mut dx = vec![0.0f32; b * cin * hw * hw];
    let mut dw = vec![0.0f32; w.len()];
    let mut db = vec![0.0f32; fout];
    for s in 0..b {
        let gy_at = |f: usize, oy: usize, ox: usize| gy[((s * fout + f) * oh + oy) * ow + ox];
        let x_at = |c: usize, iy: usize, ix: usize| x[((s * cin + c) * hw + iy) * hw + ix];
        for c in 0..cin {
            for kh in 0..g.kernel_h {
                for kw in 0..g.kernel_w {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            if let (Some(iy), Some(ix)) = (tap(oy, kh, g, hw), tap(ox, kw, g, hw)) {
                                let mut dcol = 0.0f32;
                                for f in 0..fout {
                                    dcol += w[w_idx(g, f, c, kh, kw)] * gy_at(f, oy, ox);
                                }
                                dx[((s * cin + c) * hw + iy) * hw + ix] += dcol;
                            }
                        }
                    }
                }
            }
        }
        for f in 0..fout {
            for c in 0..cin {
                for kh in 0..g.kernel_h {
                    for kw in 0..g.kernel_w {
                        let mut acc = 0.0f32;
                        for oy in 0..oh {
                            for ox in 0..ow {
                                if let (Some(iy), Some(ix)) =
                                    (tap(oy, kh, g, hw), tap(ox, kw, g, hw))
                                {
                                    acc += gy_at(f, oy, ox) * x_at(c, iy, ix);
                                }
                            }
                        }
                        dw[w_idx(g, f, c, kh, kw)] += acc;
                    }
                }
            }
            let mut acc = 0.0f32;
            for oy in 0..oh {
                for ox in 0..ow {
                    acc += gy_at(f, oy, ox);
                }
            }
            db[f] += acc;
        }
    }
    (dx, dw, db)
}

fn assert_bits(label: &str, got: &[f32], want: &[f32]) -> std::result::Result<(), TestCaseError> {
    prop_assert!(got.len() == want.len(), "{}: length mismatch", label);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{}: bit divergence at {} ({} vs {})",
            label,
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three tiled matmul entry points must be bit-identical to the
    /// naive chain on arbitrary (odd) shapes, serial and under forced
    /// tile-parallel dispatch.
    #[test]
    fn tiled_matmul_bit_identical_to_naive(
        m in 1usize..90, k in 1usize..70, n in 1usize..90, seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
        let b = ndsnn_tensor::init::uniform([k, n], -1.0, 1.0, &mut rng);
        let at = a.transpose2d().unwrap();
        let bt = b.transpose2d().unwrap();
        // Aᵀ·B and A·Bᵀ over the transposed copies are the same product A·B.
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);
            assert_bits("matmul", matmul(&a, &b).unwrap().as_slice(), &naive)?;
            assert_bits("matmul_at_b", matmul_at_b(&at, &b).unwrap().as_slice(), &naive)?;
            assert_bits("matmul_a_bt", matmul_a_bt(&a, &bt).unwrap().as_slice(), &naive)?;
        }
    }

    /// Implicit-GEMM conv forward and backward must be bit-identical to the
    /// naive references on odd geometries, serial and under forced
    /// tile-parallel dispatch. `b < 5` keeps one sample per backward block.
    #[test]
    fn tiled_conv_fwd_bwd_bit_identical_to_naive(
        b in 1usize..5, cin in 1usize..4, f in 1usize..6,
        hw in 5usize..10, stride in 1usize..3, padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let g = Conv2dGeometry::square(cin, f, 3, stride, padding);
        prop_assume!(g.output_hw(hw, hw).is_ok());
        let (oh, ow) = g.output_hw(hw, hw).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = ndsnn_tensor::init::uniform([b, cin, hw, hw], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let bias = ndsnn_tensor::init::uniform([f], -1.0, 1.0, &mut rng);
        let gy = ndsnn_tensor::init::uniform([b, f, oh, ow], -1.0, 1.0, &mut rng);
        let (xs, ws) = (x.as_slice(), w.as_slice());
        let want_fwd = naive_conv_fwd(xs, ws, bias.as_slice(), &g, b, hw);
        let (want_dx, want_dw, want_db) = naive_conv_bwd(xs, ws, gy.as_slice(), &g, b, hw);

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);
            let fwd = conv2d_forward(&x, &w, Some(&bias), &g).unwrap();
            assert_bits("conv fwd", fwd.as_slice(), &want_fwd)?;
            let bwd = conv2d_backward(&x, &w, &gy, &g).unwrap();
            assert_bits("conv dW", bwd.weight_grad.as_slice(), &want_dw)?;
            assert_bits("conv dX", bwd.input_grad.as_slice(), &want_dx)?;
            assert_bits("conv db", bwd.bias_grad.as_slice(), &want_db)?;
        }
    }

    /// A fused epilogue must produce exactly the bits of the unfused
    /// kernel-then-post-pass sequence: the epilogue runs after each output
    /// element's full k-accumulation, precisely where the post pass ran.
    #[test]
    fn fused_epilogues_bit_identical_to_unfused(
        m in 1usize..40, k in 1usize..50, n in 1usize..40, seed in 0u64..1000,
    ) {
        let _guard = OVERRIDES.lock().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
        let bt = ndsnn_tensor::init::uniform([n, k], -1.0, 1.0, &mut rng);
        let bias = ndsnn_tensor::init::uniform([n], -1.0, 1.0, &mut rng);

        let g = Conv2dGeometry::square(2, 3, 3, 1, 1);
        let x = ndsnn_tensor::init::uniform([2, 2, 7, 7], -1.0, 1.0, &mut rng);
        let w = ndsnn_tensor::init::uniform(g.weight_dims(), -1.0, 1.0, &mut rng);
        let cbias = ndsnn_tensor::init::uniform([3], -1.0, 1.0, &mut rng);
        let pool = ScratchPool::new();

        for threads in [1usize, 2, 4] {
            let _force = ForceTiling::new(threads);

            // Linear: fused per-column bias vs unfused matmul + bias pass.
            let fused = matmul_a_bt_epilogue(&a, &bt, &BiasCol(bias.as_slice())).unwrap();
            let mut unfused = matmul_a_bt(&a, &bt).unwrap();
            for row in unfused.as_mut_slice().chunks_mut(n) {
                for (o, &bv) in row.iter_mut().zip(bias.as_slice()) {
                    *o += bv;
                }
            }
            assert_bits("BiasCol", fused.as_slice(), unfused.as_slice())?;

            // Conv: fused per-channel bias vs unfused conv + bias pass.
            let fused = conv2d_forward_with_epilogue(
                &x, &w, &g, &BiasRow(cbias.as_slice()), &pool,
            ).unwrap();
            let unfused = conv2d_forward(&x, &w, Some(&cbias), &g).unwrap();
            assert_bits("BiasRow", fused.as_slice(), unfused.as_slice())?;
        }
    }
}

/// A deliberately ragged shape (every dimension coprime to the 8/64/256
/// block sizes) under forced parallelism — the canonical regression shape
/// for panel-edge zero padding.
#[test]
fn ragged_shape_under_forced_parallelism() {
    let _guard = OVERRIDES.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let (m, k, n) = (131, 259, 67);
    let a = ndsnn_tensor::init::uniform([m, k], -1.0, 1.0, &mut rng);
    let b = ndsnn_tensor::init::uniform([k, n], -1.0, 1.0, &mut rng);
    let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
    for threads in [1usize, 2, 4] {
        let _force = ForceTiling::new(threads);
        let c = matmul(&a, &b).unwrap();
        assert!(
            c.as_slice()
                .iter()
                .zip(&naive)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "threads={threads} diverged from the naive chain"
        );
    }
}
