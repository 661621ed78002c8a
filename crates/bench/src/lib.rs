//! # ivl-bench
//!
//! Benchmark and figure-reproduction harness. Each binary in `src/bin`
//! regenerates one figure (or analytic result) of the paper's evaluation
//! and writes a CSV under `figures/`; the `benches/` directory holds
//! criterion throughput benchmarks. See `EXPERIMENTS.md` at the
//! workspace root for the figure-by-figure index.

#![warn(missing_docs)]

pub mod width;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A series of `(x, y)` points with a name, for CSV output and ASCII
/// plotting.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (also the CSV column name).
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// Resolves the output directory for figure CSVs: `$FIGURES_DIR` or
/// `figures/` under the workspace root (created if absent).
#[must_use]
pub fn figures_dir() -> PathBuf {
    let dir = std::env::var_os("FIGURES_DIR")
        .map_or_else(|| workspace_root().join("figures"), PathBuf::from);
    fs::create_dir_all(&dir).expect("can create figures directory");
    dir
}

/// Where a bench harness reads and writes its JSON baseline
/// (`BENCH_<suite>.json`), decided from the harness's arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct Baseline {
    /// `--test` (the one-iteration smoke): every measurement runs once.
    pub test_mode: bool,
    /// The committed baseline the regression gates compare against:
    /// the file in `$BENCH_DIR`, or at the workspace root.
    pub committed: PathBuf,
    /// Where this run's numbers go: the committed file on a full run,
    /// `target/bench/` under the workspace root in `--test` mode, so a
    /// smoke run never rewrites a tracked baseline with one-iteration
    /// numbers.
    pub output: PathBuf,
}

impl Baseline {
    /// The baseline `file` of this bench run, or `None` on a
    /// name-filtered run, which should neither pay for the baseline
    /// suite nor clobber its numbers.
    #[must_use]
    pub fn for_run(file: &str) -> Option<Baseline> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Baseline::from_args(file, &args)
    }

    /// [`for_run`](Baseline::for_run) over explicit arguments (without
    /// the program name). A bare argument counts as a filter only when
    /// it does not directly follow a `--option` that may be consuming it
    /// as a value; cargo's own `--bench` and `--test` flags take none.
    fn from_args(file: &str, args: &[String]) -> Option<Baseline> {
        let takes_value = |o: &str| o.starts_with("--") && o != "--bench" && o != "--test";
        let filtered = args.iter().enumerate().any(|(i, a)| {
            let follows_option = i > 0 && takes_value(&args[i - 1]);
            !a.is_empty() && !a.starts_with("--") && !follows_option
        });
        if filtered {
            return None;
        }
        let test_mode = args.iter().any(|a| a == "--test");
        let committed = std::env::var_os("BENCH_DIR")
            .map_or_else(workspace_root, PathBuf::from)
            .join(file);
        let output = if test_mode {
            workspace_root().join("target/bench").join(file)
        } else {
            committed.clone()
        };
        Some(Baseline {
            test_mode,
            committed,
            output,
        })
    }

    /// Writes this run's baseline JSON to [`output`](Baseline::output).
    pub fn write(&self, json: &str) {
        if let Some(dir) = self.output.parent() {
            fs::create_dir_all(dir).expect("can create bench output directory");
        }
        fs::write(&self.output, json).expect("can write bench baseline");
        println!("baseline written to {}", self.output.display());
    }
}

/// Writes series as a long-format CSV (`series,x,y`) into
/// `figures/<name>.csv` and returns the path.
pub fn write_csv(name: &str, x_label: &str, y_label: &str, series: &[Series]) -> PathBuf {
    let mut out = String::new();
    let _ = writeln!(out, "series,{x_label},{y_label}");
    for s in series {
        for (x, y) in &s.points {
            let _ = writeln!(out, "{},{x},{y}", s.label);
        }
    }
    let path = figures_dir().join(format!("{name}.csv"));
    fs::write(&path, out).expect("can write figure CSV");
    path
}

/// Renders series as a compact ASCII scatter plot (distinct markers per
/// series, shared axes).
#[must_use]
pub fn ascii_plot(series: &[Series], width: usize, height: usize) -> String {
    const MARKS: [char; 8] = ['o', 'x', '+', '*', '#', '@', '%', '&'];
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if pts.is_empty() || width < 8 || height < 3 {
        return String::from("(no data)\n");
    }
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if x1 <= x0 {
        x1 = x0 + 1.0;
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    // zero line if visible
    if y0 < 0.0 && y1 > 0.0 {
        let row = ((y1) / (y1 - y0) * (height - 1) as f64).round() as usize;
        if row < height {
            for c in grid[row].iter_mut() {
                *c = '·';
            }
        }
    }
    for (si, s) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for &(x, y) in &s.points {
            let col = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let row = ((y1 - y) / (y1 - y0) * (height - 1) as f64).round() as usize;
            if row < height && col < width {
                grid[row][col] = mark;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "  {y1:>10.3} ┐");
    for row in &grid {
        let _ = writeln!(out, "             │{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "  {y0:>10.3} ┘");
    let _ = writeln!(
        out,
        "              x ∈ [{x0:.3}, {x1:.3}]   legend: {}",
        series
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}={}", MARKS[i % MARKS.len()], s.label))
            .collect::<Vec<_>>()
            .join("  ")
    );
    out
}

/// `true` when the environment variable `name` is set to a non-empty
/// value other than `0` (the truthiness rule shared by all figure-bin
/// knobs).
#[must_use]
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// `true` when `IVL_FAST_FIGS` is on — figure bins then shrink their
/// sweeps so CI can exercise the full pipeline on every push.
#[must_use]
pub fn fast_figs() -> bool {
    env_flag("IVL_FAST_FIGS")
}

/// Prints a standard figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!("==========================================================");
    println!("{figure}: {caption}");
    println!("==========================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("ivl-bench-test-figs");
        std::env::set_var("FIGURES_DIR", &dir);
        let s = Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]);
        let path = write_csv("unit_test_fig", "x", "y", &[s]);
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("series,x,y"));
        assert!(content.contains("a,1,2"));
        std::env::remove_var("FIGURES_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn smoke_runs_write_under_target_and_filtered_runs_not_at_all() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let smoke = Baseline::from_args("BENCH_x.json", &args(&["--bench", "--test"])).unwrap();
        assert!(smoke.test_mode);
        assert_eq!(
            smoke.output,
            workspace_root().join("target/bench/BENCH_x.json")
        );
        assert_ne!(smoke.output, smoke.committed);
        let full = Baseline::from_args("BENCH_x.json", &args(&["--bench"])).unwrap();
        assert!(!full.test_mode);
        assert_eq!(full.output, full.committed);
        // `cargo bench -- chain` runs the harness as `<bin> --bench chain`
        let filtered = Baseline::from_args("BENCH_x.json", &args(&["--bench", "chain"]));
        assert_eq!(filtered, None);
        let valued = Baseline::from_args("BENCH_x.json", &args(&["--save-baseline", "x"]));
        assert!(valued.is_some());
    }

    #[test]
    fn ascii_plot_has_axes_and_marks() {
        let s = vec![
            Series::new("up", vec![(0.0, -1.0), (5.0, 1.0)]),
            Series::new("down", vec![(2.5, 0.5)]),
        ];
        let art = ascii_plot(&s, 40, 10);
        assert!(art.contains('o'));
        assert!(art.contains('x'));
        assert!(art.contains('·'), "zero line expected:\n{art}");
        assert!(art.contains("legend"));
        assert_eq!(ascii_plot(&[], 40, 10), "(no data)\n");
    }
}
