//! Figure-reproduction harness for the paper's evaluation (§6).
//!
//! The paper's quantitative results are Figures 4–8 (there are no
//! numbered tables). `polymem figures [N]` regenerates each figure's
//! series on the simulated GeForce 8800 GTX and prints the same rows
//! the paper plots; `EXPERIMENTS.md` records the paper-vs-measured
//! comparison. This library holds the shared
//! series/reporting machinery plus the per-figure generators, so the
//! CLI stays thin and integration tests can assert the *shapes*
//! (who wins, by what factor, where optima fall) directly.

use polymem_kernels::{jacobi, me};
use polymem_machine::MachineConfig;

pub mod harness;

/// One plotted series: a label and (x, y) points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, time-in-ms)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// The y value at a given x (exact match), if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// The x of the minimal y.
    pub fn argmin(&self) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(x, _)| *x)
    }
}

/// A whole figure: title, axis labels and series.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure identifier, e.g. `"Figure 4"`.
    pub id: String,
    /// Title echoing the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// All series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as an aligned text table (one row per x, one column per
    /// series) — the form the binaries print and EXPERIMENTS.md quotes.
    pub fn to_table(&self) -> String {
        let mut out = format!("# {} — {}\n", self.id, self.title);
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|(x, _)| *x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        out.push_str(&format!("{:>16}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("  {:>24}", s.label));
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("{:>16}", fmt_size(x)));
            for s in &self.series {
                match s.at(x) {
                    Some(y) => out.push_str(&format!("  {:>21.3} ms", y)),
                    None => out.push_str(&format!("  {:>24}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Human-friendly size formatting (k/M suffixes) for x values.
fn fmt_size(x: f64) -> String {
    let v = x as u64;
    if v >= 1 << 20 && v.is_multiple_of(1 << 20) {
        format!("{}M", v >> 20)
    } else if v >= 1 << 10 && v.is_multiple_of(1 << 10) {
        format!("{}k", v >> 10)
    } else {
        format!("{v}")
    }
}

/// Figure 4: ME execution time vs problem size for GPU without
/// scratchpad, GPU with scratchpad, and CPU (paper: smem ≈ 8× over
/// DRAM-only, >100× over CPU).
pub fn figure4() -> Figure {
    let gpu = MachineConfig::geforce_8800_gtx();
    let cpu = MachineConfig::host_cpu();
    let sizes: Vec<u64> = vec![
        256 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        9 << 20,
        16 << 20,
        64 << 20,
    ];
    let mut dram = Series {
        label: "GPU w/o scratchpad".into(),
        points: vec![],
    };
    let mut smem = Series {
        label: "GPU with scratchpad".into(),
        points: vec![],
    };
    let mut host = Series {
        label: "CPU".into(),
        points: vec![],
    };
    for &total in &sizes {
        let s = me::MeSize::square(total, 16);
        let x = total as f64;
        let pd = me::profile(&s, (32, 16), 32, 256, false, &gpu);
        let ps = me::profile(&s, (32, 16), 32, 256, true, &gpu);
        dram.points
            .push((x, pd.estimate(&gpu).expect("fits").total_ms));
        smem.points
            .push((x, ps.estimate(&gpu).expect("fits").total_ms));
        host.points.push((x, pd.estimate_cpu(&cpu).total_ms));
    }
    Figure {
        id: "Figure 4".into(),
        title: "Execution time of Mpeg4 ME for various problem sizes".into(),
        x_label: "Problem Size".into(),
        series: vec![dram, smem, host],
    }
}

/// Figure 5: 1-D Jacobi execution time vs problem size (paper: smem ≈
/// 10× over DRAM-only, 15× over CPU).
pub fn figure5() -> Figure {
    let gpu = MachineConfig::geforce_8800_gtx();
    let cpu = MachineConfig::host_cpu();
    let sizes: Vec<u64> = vec![
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
        512 << 10,
    ];
    let mut dram = Series {
        label: "GPU w/o scratchpad".into(),
        points: vec![],
    };
    let mut smem = Series {
        label: "GPU with scratchpad".into(),
        points: vec![],
    };
    let mut host = Series {
        label: "CPU".into(),
        points: vec![],
    };
    for &n in &sizes {
        let s = jacobi::JacobiSize {
            n: n as i64,
            t: 4096,
        };
        let x = n as f64;
        let pd = jacobi::profile_tiled(&s, 32, 256, 128, 64, false, &gpu);
        let ps = jacobi::profile_tiled(&s, 32, 256, 128, 64, true, &gpu);
        dram.points
            .push((x, pd.estimate(&gpu).expect("fits").total_ms));
        smem.points
            .push((x, ps.estimate(&gpu).expect("fits").total_ms));
        host.points
            .push((x, jacobi::profile_cpu(&s).estimate_cpu(&cpu).total_ms));
    }
    Figure {
        id: "Figure 5".into(),
        title: "Execution time of 1-D Jacobi for various problem sizes".into(),
        x_label: "Problem Size".into(),
        series: vec![dram, smem, host],
    }
}

/// Figure 6: ME execution time for varying tile sizes across problem
/// sizes 8M–64M (paper: the §4.3 search's (32,16,16,16) wins).
pub fn figure6() -> Figure {
    let gpu = MachineConfig::geforce_8800_gtx();
    let sizes: Vec<u64> = vec![8 << 20, 16 << 20, 32 << 20, 64 << 20];
    let tile_options: Vec<(i64, i64)> =
        vec![(8, 8), (16, 8), (16, 16), (32, 16), (32, 32), (64, 16)];
    let mut series: Vec<Series> = tile_options
        .iter()
        .map(|(ti, tj)| Series {
            label: format!("Tile Size = {ti},{tj},16,16"),
            points: vec![],
        })
        .collect();
    for &total in &sizes {
        let s = me::MeSize::square(total, 16);
        for (k, &(ti, tj)) in tile_options.iter().enumerate() {
            let p = me::profile(&s, (ti, tj), 32, 256, true, &gpu);
            series[k]
                .points
                .push((total as f64, p.estimate(&gpu).expect("fits").total_ms));
        }
    }
    Figure {
        id: "Figure 6".into(),
        title: "Execution time of Mpeg4 ME kernel for varying tile sizes".into(),
        x_label: "Problem Size".into(),
        series,
    }
}

/// Figure 7: 1-D Jacobi, scratchpad-resident sizes, execution time vs
/// thread-block count (paper: U-shape; sync cost dominates at high
/// block counts).
pub fn figure7() -> Figure {
    let gpu = MachineConfig::geforce_8800_gtx();
    let block_counts: Vec<u64> = vec![25, 50, 75, 100, 128, 150, 175, 200, 225, 256];
    let sizes: Vec<i64> = vec![8 << 10, 16 << 10, 32 << 10];
    let mut series: Vec<Series> = sizes
        .iter()
        .map(|n| Series {
            label: format!("N = {}", fmt_size(*n as f64)),
            points: vec![],
        })
        .collect();
    for (k, &n) in sizes.iter().enumerate() {
        let s = jacobi::JacobiSize { n, t: 4096 };
        for &b in &block_counts {
            let p = jacobi::profile_resident(&s, 32, b, 64, &gpu);
            series[k]
                .points
                .push((b as f64, p.estimate(&gpu).expect("fits").total_ms));
        }
    }
    Figure {
        id: "Figure 7".into(),
        title: "1-D Jacobi, smaller problem sizes, varying thread blocks".into(),
        x_label: "Thread Blocks".into(),
        series,
    }
}

/// Figure 8: 1-D Jacobi, larger problem sizes, execution time vs
/// (time, space) tile size under M_up = 2^9 words (paper: the search's
/// (32, 256) wins).
pub fn figure8() -> Figure {
    let gpu = MachineConfig::geforce_8800_gtx();
    let sizes: Vec<i64> = vec![64 << 10, 128 << 10, 256 << 10, 512 << 10];
    let tile_options: Vec<(i64, i64)> = vec![(32, 64), (32, 128), (16, 256), (32, 256), (64, 256)];
    let mut series: Vec<Series> = tile_options
        .iter()
        .map(|(tt, si)| Series {
            label: format!("Tile Size = {tt},{si}"),
            points: vec![],
        })
        .collect();
    for &n in &sizes {
        let s = jacobi::JacobiSize { n, t: 4096 };
        for (k, &(tt, si)) in tile_options.iter().enumerate() {
            let p = jacobi::profile_tiled(&s, tt, si, 128, 64, true, &gpu);
            series[k]
                .points
                .push((n as f64, p.estimate(&gpu).expect("fits").total_ms));
        }
    }
    Figure {
        id: "Figure 8".into(),
        title: "1-D Jacobi, larger problem sizes, varying tile sizes".into(),
        x_label: "Problem Size".into(),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(fig: &Figure, a: usize, b: usize, x: f64) -> f64 {
        fig.series[a].at(x).unwrap() / fig.series[b].at(x).unwrap()
    }

    #[test]
    fn figure4_shape_matches_paper() {
        let f = figure4();
        let x = (16u64 << 20) as f64;
        // Paper: scratchpad ≈ 8x over DRAM-only, CPU >100x over smem.
        let dram_over_smem = ratio(&f, 0, 1, x);
        let cpu_over_smem = ratio(&f, 2, 1, x);
        assert!(
            (3.0..30.0).contains(&dram_over_smem),
            "dram/smem = {dram_over_smem}"
        );
        assert!(cpu_over_smem > 30.0, "cpu/smem = {cpu_over_smem}");
        // Time grows with problem size.
        for s in &f.series {
            assert!(s.points.last().unwrap().1 > s.points[0].1);
        }
    }

    #[test]
    fn figure5_shape_matches_paper() {
        let f = figure5();
        let x = (256u64 << 10) as f64;
        let dram_over_smem = ratio(&f, 0, 1, x);
        let cpu_over_smem = ratio(&f, 2, 1, x);
        // Paper: ≈10x and ≈15x.
        assert!(
            (3.0..40.0).contains(&dram_over_smem),
            "dram/smem = {dram_over_smem}"
        );
        assert!(cpu_over_smem > 4.0, "cpu/smem = {cpu_over_smem}");
    }

    #[test]
    fn figure6_search_tiles_win() {
        let f = figure6();
        let x = (16u64 << 20) as f64;
        let best_label = f
            .series
            .iter()
            .min_by(|a, b| a.at(x).unwrap().total_cmp(&b.at(x).unwrap()))
            .unwrap()
            .label
            .clone();
        assert_eq!(best_label, "Tile Size = 32,16,16,16");
    }

    #[test]
    fn figure7_has_u_shape() {
        let f = figure7();
        for s in &f.series {
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            let min = s
                .points
                .iter()
                .map(|(_, y)| *y)
                .fold(f64::INFINITY, f64::min);
            assert!(min < first, "{}: no initial descent", s.label);
            assert!(min < last, "{}: no final ascent", s.label);
            // The optimum is interior.
            let arg = s.argmin().unwrap();
            assert!(arg > 25.0 && arg < 256.0, "{}: argmin {arg}", s.label);
        }
    }

    #[test]
    fn figure8_search_tiles_win() {
        let f = figure8();
        let x = (256u64 << 10) as f64;
        let best_label = f
            .series
            .iter()
            .min_by(|a, b| a.at(x).unwrap().total_cmp(&b.at(x).unwrap()))
            .unwrap()
            .label
            .clone();
        assert_eq!(best_label, "Tile Size = 32,256");
    }

    #[test]
    fn tables_render_all_series() {
        let f = figure4();
        let t = f.to_table();
        assert!(t.contains("GPU with scratchpad"), "{t}");
        assert!(t.contains("CPU"), "{t}");
        assert!(t.contains("64M"), "{t}");
        assert_eq!(fmt_size(8192.0), "8k");
        assert_eq!(fmt_size((64u64 << 20) as f64), "64M");
        assert_eq!(fmt_size(100.0), "100");
    }
}
