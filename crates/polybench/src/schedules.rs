//! Reference schedules and their address traces (the PLuTo + Dinero
//! substitute for Figure 6).
//!
//! For a representative subset of the suite, `trace` generates the
//! word-granular address trace of a *tiled* schedule (or of the natural
//! streaming schedule for bandwidth-bound kernels). Feeding the trace to the
//! LRU simulator of `iolb-cachesim` yields the achieved operational intensity
//! `OI_tiled` that Figure 6 plots against `OI_up` and the machine balance.
//!
//! Traces are generated at a scaled-down problem size with a proportionally
//! scaled fast memory so that whole-suite simulation stays fast; because the
//! comparison is between intensities (flops per word), the scaling preserves
//! the qualitative picture.

use iolb_cachesim::TraceBuilder;

/// A simulated schedule: its address trace and its operation count.
#[derive(Debug)]
pub struct ScheduleTrace {
    /// Word-granular address trace.
    pub trace: Vec<u64>,
    /// Number of arithmetic operations performed by the schedule.
    pub ops: f64,
    /// Human-readable description of the schedule.
    pub description: &'static str,
}

/// Returns the simulated schedule for a kernel, if one is implemented.
///
/// `n` is the problem-size scale (each kernel maps it onto its own
/// parameters) and `tile` the tile edge used by tiled schedules.
pub fn trace(kernel: &str, n: u64, tile: u64) -> Option<ScheduleTrace> {
    match kernel {
        "gemm" => Some(gemm_tiled(n, tile)),
        "2mm" => Some(two_mm_tiled(n, tile)),
        "3mm" => Some(three_mm_tiled(n, tile)),
        "syrk" => Some(syrk_tiled(n, tile)),
        "syr2k" => Some(syr2k_tiled(n, tile)),
        "trmm" => Some(trmm_tiled(n, tile)),
        "symm" => Some(symm_tiled(n, tile)),
        "covariance" | "correlation" => Some(covariance_tiled(n, tile)),
        "doitgen" => Some(doitgen_tiled(n / 4, tile)),
        "floyd-warshall" => Some(floyd_untiled(n / 2)),
        "cholesky" => Some(cholesky_untiled(n)),
        "lu" | "ludcmp" => Some(lu_untiled(n)),
        "jacobi-1d" => Some(jacobi_1d(n * 8, n)),
        "jacobi-2d" => Some(jacobi_2d(n, 20)),
        "seidel-2d" => Some(seidel_2d(n, 20)),
        "heat-3d" => Some(heat_3d(n / 4, 10)),
        "fdtd-2d" => Some(fdtd_2d(n, 20)),
        "atax" => Some(atax(n)),
        "bicg" => Some(bicg(n)),
        "mvt" => Some(mvt(n)),
        "gemver" => Some(gemver(n)),
        "gesummv" => Some(gesummv(n)),
        "trisolv" => Some(trisolv(n)),
        "adi" => Some(adi(n, 20)),
        "durbin" => Some(durbin(n)),
        "gramschmidt" => Some(gramschmidt(n)),
        "nussinov" => Some(nussinov(n)),
        "deriche" => Some(deriche(n)),
        _ => None,
    }
}

fn gemm_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let b = tb.array("B", &[n, n]);
    let c = tb.array("C", &[n, n]);
    for ii in (0..n).step_by(tile as usize) {
        for jj in (0..n).step_by(tile as usize) {
            for kk in (0..n).step_by(tile as usize) {
                for i in ii..(ii + tile).min(n) {
                    for k in kk..(kk + tile).min(n) {
                        for j in jj..(jj + tile).min(n) {
                            tb.touch(&a, &[i, k]);
                            tb.touch(&b, &[k, j]);
                            tb.touch(&c, &[i, j]);
                        }
                    }
                }
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 2.0 * (n as f64).powi(3),
        description: "rectangular i/j/k tiling",
    }
}

fn two_mm_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut first = gemm_tiled(n, tile);
    let second = gemm_tiled(n, tile);
    first.trace.extend(second.trace);
    ScheduleTrace {
        trace: first.trace,
        ops: 2.0 * first.ops,
        description: "two tiled matrix products",
    }
}

fn three_mm_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut t = gemm_tiled(n, tile);
    for _ in 0..2 {
        t.trace.extend(gemm_tiled(n, tile).trace);
    }
    ScheduleTrace {
        trace: t.trace,
        ops: 3.0 * t.ops,
        description: "three tiled matrix products",
    }
}

fn syrk_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let c = tb.array("C", &[n, n]);
    let mut ops = 0.0;
    for ii in (0..n).step_by(tile as usize) {
        for jj in (0..=ii).step_by(tile as usize) {
            for kk in (0..n).step_by(tile as usize) {
                for i in ii..(ii + tile).min(n) {
                    for k in kk..(kk + tile).min(n) {
                        for j in jj..(jj + tile).min(i + 1) {
                            tb.touch(&a, &[i, k]);
                            tb.touch(&a, &[j, k]);
                            tb.touch(&c, &[i, j]);
                            ops += 2.0;
                        }
                    }
                }
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "tiled triangular rank-k update",
    }
}

fn syr2k_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut t = syrk_tiled(n, tile);
    let again = syrk_tiled(n, tile);
    t.trace.extend(again.trace);
    ScheduleTrace {
        trace: t.trace,
        ops: 2.0 * t.ops,
        description: "tiled symmetric rank-2k update",
    }
}

fn trmm_tiled(n: u64, tile: u64) -> ScheduleTrace {
    syrk_tiled(n, tile)
}

fn symm_tiled(n: u64, tile: u64) -> ScheduleTrace {
    gemm_tiled(n, tile)
}

fn covariance_tiled(n: u64, tile: u64) -> ScheduleTrace {
    syrk_tiled(n, tile)
}

fn doitgen_tiled(n: u64, tile: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n, n]);
    let c4 = tb.array("C4", &[n, n]);
    let sum = tb.array("Sum", &[n, n, n]);
    let mut ops = 0.0;
    for r in 0..n {
        for q in 0..n {
            for pp in (0..n).step_by(tile as usize) {
                for ss in (0..n).step_by(tile as usize) {
                    for p0 in pp..(pp + tile).min(n) {
                        for s in ss..(ss + tile).min(n) {
                            tb.touch(&a, &[r, q, s]);
                            tb.touch(&c4, &[s, p0]);
                            tb.touch(&sum, &[r, q, p0]);
                            ops += 2.0;
                        }
                    }
                }
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "tiled batched product",
    }
}

fn floyd_untiled(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let p = tb.array("P", &[n, n]);
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                tb.touch(&p, &[i, k]);
                tb.touch(&p, &[k, j]);
                tb.touch(&p, &[i, j]);
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 2.0 * (n as f64).powi(3),
        description: "untiled k/i/j sweep (PLuTo cannot tile the original code)",
    }
}

fn cholesky_untiled(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let mut ops = 0.0;
    for k in 0..n {
        tb.touch(&a, &[k, k]);
        for i in (k + 1)..n {
            tb.touch(&a, &[i, k]);
            tb.touch(&a, &[k, k]);
            for j in (k + 1)..=i {
                tb.touch(&a, &[i, j]);
                tb.touch(&a, &[i, k]);
                tb.touch(&a, &[j, k]);
                ops += 2.0;
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "right-looking untiled factorisation",
    }
}

fn lu_untiled(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let mut ops = 0.0;
    for k in 0..n {
        for i in (k + 1)..n {
            tb.touch(&a, &[i, k]);
            tb.touch(&a, &[k, k]);
            for j in (k + 1)..n {
                tb.touch(&a, &[i, j]);
                tb.touch(&a, &[i, k]);
                tb.touch(&a, &[k, j]);
                ops += 2.0;
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "right-looking untiled factorisation",
    }
}

fn jacobi_1d(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n]);
    let b = tb.array("B", &[n]);
    for _t in 0..t_steps {
        for i in 1..(n - 1) {
            tb.touch(&a, &[i - 1]);
            tb.touch(&a, &[i]);
            tb.touch(&a, &[i + 1]);
            tb.touch(&b, &[i]);
        }
        for i in 1..(n - 1) {
            tb.touch(&b, &[i]);
            tb.touch(&a, &[i]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 6.0 * (n as f64) * (t_steps as f64),
        description: "untiled time sweep (array fits cache per sweep)",
    }
}

fn jacobi_2d(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let b = tb.array("B", &[n, n]);
    for _t in 0..t_steps {
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                for (di, dj) in [(0i64, 0i64), (1, 0), (-1, 0), (0, 1), (0, -1)] {
                    tb.touch(&a, &[(i as i64 + di) as u64, (j as i64 + dj) as u64]);
                }
                tb.touch(&b, &[i, j]);
            }
        }
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                tb.touch(&b, &[i, j]);
                tb.touch(&a, &[i, j]);
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 10.0 * (n as f64).powi(2) * (t_steps as f64),
        description: "untiled time sweep over the 2-D grid",
    }
}

fn seidel_2d(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    for _t in 0..t_steps {
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                for (di, dj) in [
                    (-1i64, -1i64),
                    (-1, 0),
                    (-1, 1),
                    (0, -1),
                    (0, 0),
                    (0, 1),
                    (1, -1),
                    (1, 0),
                    (1, 1),
                ] {
                    tb.touch(&a, &[(i as i64 + di) as u64, (j as i64 + dj) as u64]);
                }
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 9.0 * (n as f64).powi(2) * (t_steps as f64),
        description: "in-place Gauss-Seidel sweeps",
    }
}

fn heat_3d(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n, n]);
    let b = tb.array("B", &[n, n, n]);
    for _t in 0..t_steps {
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                for k in 1..(n - 1) {
                    for (di, dj, dk) in [
                        (0i64, 0i64, 0i64),
                        (1, 0, 0),
                        (-1, 0, 0),
                        (0, 1, 0),
                        (0, -1, 0),
                        (0, 0, 1),
                        (0, 0, -1),
                    ] {
                        tb.touch(
                            &a,
                            &[
                                (i as i64 + di) as u64,
                                (j as i64 + dj) as u64,
                                (k as i64 + dk) as u64,
                            ],
                        );
                    }
                    tb.touch(&b, &[i, j, k]);
                }
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 30.0 * (n as f64).powi(3) * (t_steps as f64),
        description: "untiled 3-D time sweep",
    }
}

fn fdtd_2d(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let ex = tb.array("ex", &[n, n]);
    let ey = tb.array("ey", &[n, n]);
    let hz = tb.array("hz", &[n, n]);
    for _t in 0..t_steps {
        for i in 0..n {
            for j in 1..n {
                tb.touch(&ex, &[i, j]);
                tb.touch(&hz, &[i, j]);
                tb.touch(&hz, &[i, j - 1]);
            }
        }
        for i in 1..n {
            for j in 0..n {
                tb.touch(&ey, &[i, j]);
                tb.touch(&hz, &[i, j]);
                tb.touch(&hz, &[i - 1, j]);
            }
        }
        for i in 0..(n - 1) {
            for j in 0..(n - 1) {
                tb.touch(&hz, &[i, j]);
                tb.touch(&ex, &[i, j + 1]);
                tb.touch(&ex, &[i, j]);
                tb.touch(&ey, &[i + 1, j]);
                tb.touch(&ey, &[i, j]);
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 11.0 * (n as f64).powi(2) * (t_steps as f64),
        description: "untiled field-update sweeps",
    }
}

fn atax(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let x = tb.array("x", &[n]);
    let y = tb.array("y", &[n]);
    let tmp = tb.array("tmp", &[n]);
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&x, &[j]);
            tb.touch(&tmp, &[i]);
        }
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&tmp, &[i]);
            tb.touch(&y, &[j]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 4.0 * (n as f64).powi(2),
        description: "fused streaming A^T(Ax)",
    }
}

fn bicg(n: u64) -> ScheduleTrace {
    atax(n)
}

fn mvt(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let x1 = tb.array("x1", &[n]);
    let x2 = tb.array("x2", &[n]);
    let y1 = tb.array("y1", &[n]);
    let y2 = tb.array("y2", &[n]);
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&y1, &[j]);
            tb.touch(&x1, &[i]);
            tb.touch(&a, &[j, i]);
            tb.touch(&y2, &[j]);
            tb.touch(&x2, &[i]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 4.0 * (n as f64).powi(2),
        description: "fused dual matrix-vector product",
    }
}

fn gemver(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let vecs = tb.array("v", &[8, n]);
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&vecs, &[0, i]);
            tb.touch(&vecs, &[1, j]);
        }
    }
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[j, i]);
            tb.touch(&vecs, &[2, j]);
            tb.touch(&vecs, &[3, i]);
        }
    }
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&vecs, &[3, j]);
            tb.touch(&vecs, &[4, i]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 10.0 * (n as f64).powi(2),
        description: "three streaming passes over A",
    }
}

fn gesummv(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let b = tb.array("B", &[n, n]);
    let x = tb.array("x", &[n]);
    let y = tb.array("y", &[n]);
    for i in 0..n {
        for j in 0..n {
            tb.touch(&a, &[i, j]);
            tb.touch(&b, &[i, j]);
            tb.touch(&x, &[j]);
            tb.touch(&y, &[i]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 4.0 * (n as f64).powi(2),
        description: "single streaming pass over A and B",
    }
}

fn trisolv(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let l = tb.array("L", &[n, n]);
    let x = tb.array("x", &[n]);
    let mut ops = 0.0;
    for i in 0..n {
        for j in 0..i {
            tb.touch(&l, &[i, j]);
            tb.touch(&x, &[j]);
            tb.touch(&x, &[i]);
            ops += 2.0;
        }
        tb.touch(&l, &[i, i]);
        tb.touch(&x, &[i]);
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "forward substitution",
    }
}

fn adi(n: u64, t_steps: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let u = tb.array("u", &[n, n]);
    let v = tb.array("v", &[n, n]);
    let p = tb.array("p", &[n, n]);
    let q = tb.array("q", &[n, n]);
    for _t in 0..t_steps {
        // Column sweep.
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                tb.touch(&u, &[j, i]);
                tb.touch(&u, &[j, i - 1]);
                tb.touch(&u, &[j, i + 1]);
                tb.touch(&p, &[i, j]);
                tb.touch(&q, &[i, j]);
                tb.touch(&v, &[j, i]);
            }
        }
        // Row sweep.
        for i in 1..(n - 1) {
            for j in 1..(n - 1) {
                tb.touch(&v, &[i, j]);
                tb.touch(&v, &[i - 1, j]);
                tb.touch(&v, &[i + 1, j]);
                tb.touch(&p, &[i, j]);
                tb.touch(&q, &[i, j]);
                tb.touch(&u, &[i, j]);
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 30.0 * (n as f64).powi(2) * (t_steps as f64),
        description: "alternating column/row sweeps",
    }
}

fn durbin(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let r = tb.array("r", &[n]);
    let y = tb.array("y", &[n]);
    let z = tb.array("z", &[n]);
    let mut ops = 0.0;
    for k in 1..n {
        tb.touch(&r, &[k]);
        for i in 0..k {
            tb.touch(&r, &[k - i - 1]);
            tb.touch(&y, &[i]);
            ops += 2.0;
        }
        for i in 0..k {
            tb.touch(&y, &[i]);
            tb.touch(&y, &[k - i - 1]);
            tb.touch(&z, &[i]);
            ops += 2.0;
        }
        for i in 0..k {
            tb.touch(&z, &[i]);
            tb.touch(&y, &[i]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "Levinson-Durbin recursion",
    }
}

fn gramschmidt(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let a = tb.array("A", &[n, n]);
    let r = tb.array("R", &[n, n]);
    let q = tb.array("Q", &[n, n]);
    let mut ops = 0.0;
    for k in 0..n {
        for i in 0..n {
            tb.touch(&a, &[i, k]);
            tb.touch(&q, &[i, k]);
        }
        for j in (k + 1)..n {
            for i in 0..n {
                tb.touch(&q, &[i, k]);
                tb.touch(&a, &[i, j]);
                tb.touch(&r, &[k, j]);
                ops += 2.0;
            }
            for i in 0..n {
                tb.touch(&a, &[i, j]);
                tb.touch(&q, &[i, k]);
                tb.touch(&r, &[k, j]);
                ops += 2.0;
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "modified Gram-Schmidt sweeps",
    }
}

fn nussinov(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let table = tb.array("T", &[n, n]);
    let mut ops = 0.0;
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            for k in i..j {
                tb.touch(&table, &[i, k]);
                tb.touch(&table, &[k + 1, j]);
                tb.touch(&table, &[i, j]);
                ops += 2.0;
            }
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops,
        description: "triangular dynamic-programming sweep",
    }
}

fn deriche(n: u64) -> ScheduleTrace {
    let mut tb = TraceBuilder::new();
    let img = tb.array("img", &[n, n]);
    let y1 = tb.array("y1", &[n, n]);
    let y2 = tb.array("y2", &[n, n]);
    let out = tb.array("out", &[n, n]);
    for i in 0..n {
        for j in 0..n {
            tb.touch(&img, &[i, j]);
            tb.touch(&y1, &[i, j]);
        }
        for j in (0..n).rev() {
            tb.touch(&img, &[i, j]);
            tb.touch(&y2, &[i, j]);
        }
        for j in 0..n {
            tb.touch(&y1, &[i, j]);
            tb.touch(&y2, &[i, j]);
            tb.touch(&out, &[i, j]);
        }
    }
    ScheduleTrace {
        trace: tb.into_trace(),
        ops: 32.0 * (n as f64).powi(2),
        description: "directional IIR passes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolb_cachesim::simulate_lru;

    #[test]
    fn tiled_gemm_achieves_high_oi() {
        let t = gemm_tiled(64, 16);
        // Cache holds three 16x16 tiles comfortably.
        let stats = simulate_lru(&t.trace, 1024);
        let oi = stats.operational_intensity(t.ops);
        // Tiled matmul should comfortably exceed 2 flops/word.
        assert!(oi > 4.0, "tiled gemm OI too low: {oi}");
    }

    #[test]
    fn streaming_atax_oi_is_bounded_by_4() {
        let t = atax(128);
        let stats = simulate_lru(&t.trace, 1024);
        let oi = stats.operational_intensity(t.ops);
        assert!(oi <= 4.5, "atax OI cannot exceed its ratio: {oi}");
        assert!(oi > 1.0);
    }

    #[test]
    fn every_kernel_with_a_trace_produces_accesses() {
        for name in [
            "gemm",
            "2mm",
            "3mm",
            "syrk",
            "syr2k",
            "trmm",
            "symm",
            "covariance",
            "correlation",
            "doitgen",
            "floyd-warshall",
            "cholesky",
            "lu",
            "ludcmp",
            "jacobi-1d",
            "jacobi-2d",
            "seidel-2d",
            "heat-3d",
            "fdtd-2d",
            "atax",
            "bicg",
            "mvt",
            "gemver",
            "gesummv",
            "trisolv",
            "adi",
            "durbin",
            "gramschmidt",
            "nussinov",
            "deriche",
        ] {
            let t = trace(name, 48, 16).unwrap_or_else(|| panic!("no trace for {name}"));
            assert!(!t.trace.is_empty(), "{name} trace empty");
            assert!(t.ops > 0.0, "{name} ops zero");
        }
    }

    #[test]
    fn unknown_kernel_has_no_trace() {
        assert!(trace("not-a-kernel", 32, 8).is_none());
    }
}
