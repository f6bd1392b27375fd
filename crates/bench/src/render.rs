//! Renders sweep results as the paper-style text tables
//! `ccrp-tools sweep --tables` prints.
//!
//! Each renderer takes the structured rows an experiment produced and
//! returns the full report as a `String`, so the `ccrp-tools sweep`
//! command and the golden-file tests share one formatting path.
//! Rendering depends only on the deterministic results, never on
//! timing, so the output is stable across runs and worker counts.

use std::fmt::Write as _;

use ccrp_sim::MemoryModel;

use crate::experiments::clb::{ClbRow, CLB_SIZES};
use crate::experiments::dcache::DcacheRow;
use crate::experiments::fig5::Fig5Row;
use crate::experiments::perf::PerfPoint;
use crate::runner::{ExperimentResults, SweepReport};
use crate::table::Table;
use crate::{fmt_pct, fmt_rel};

/// Renders Tables 1–8 (one table per workload).
pub fn tables_1_to_8(tables: &[(&'static str, Vec<PerfPoint>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nTables 1-8 — 16-entry CLB, 100% data-cache miss rate\n"
    );
    for (index, (name, points)) in tables.iter().enumerate() {
        let _ = writeln!(out, "Table {}: {name}", index + 1);
        let mut table = Table::new(&[
            "Memory",
            "Cache Size",
            "Relative Performance",
            "Cache Miss Rate",
            "Memory Traffic",
        ]);
        for p in points {
            table.row(&[
                p.memory.name(),
                &format!("{} byte", p.cache_bytes),
                &fmt_rel(p.relative_performance),
                &fmt_pct(p.miss_rate),
                &format!("{:.1}%", p.memory_traffic * 100.0),
            ]);
        }
        let _ = writeln!(out, "{table}");
    }
    out
}

/// Renders Figure 5 (per-program bars plus the weighted average).
pub fn fig5(rows: &[Fig5Row], weighted: &Fig5Row) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nFigure 5 — Four Compression Methods (size, % of original)\n"
    );
    let mut table = Table::new(&[
        "Program",
        "Bytes",
        "Unix compress",
        "Traditional Huffman",
        "Bounded Huffman",
        "Preselected Bounded",
    ]);
    for row in rows.iter().chain(std::iter::once(weighted)) {
        table.row(&[
            row.name,
            &row.original_bytes.to_string(),
            &format!("{:.1}%", row.compress_pct),
            &format!("{:.1}%", row.traditional_pct),
            &format!("{:.1}%", row.bounded_pct),
            &format!("{:.1}%", row.preselected_pct),
        ]);
    }
    let _ = writeln!(out, "{table}");
    let _ = writeln!(
        out,
        "Paper's qualitative result: compress < traditional <= bounded <= preselected,\n\
         with every method leaving the program well under its original size."
    );
    out
}

/// Renders Tables 9–10 (CLB size effects).
pub fn tables_9_10(tables: &[(&'static str, Vec<ClbRow>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nTables 9-10 — CLB size effects, 100% data-cache miss rate\n"
    );
    for (index, (name, rows)) in tables.iter().enumerate() {
        let _ = writeln!(out, "Table {}: {name}", index + 9);
        let mut table = Table::new(&[
            "Memory",
            "Cache Size",
            &format!("Rel. Perf {} CLB", CLB_SIZES[0]),
            &format!("Rel. Perf {} CLB", CLB_SIZES[1]),
            &format!("Rel. Perf {} CLB", CLB_SIZES[2]),
        ]);
        for row in rows {
            table.row(&[
                row.memory.name(),
                &format!("{} byte", row.cache_bytes),
                &fmt_rel(row.relative[0]),
                &fmt_rel(row.relative[1]),
                &fmt_rel(row.relative[2]),
            ]);
        }
        let _ = writeln!(out, "{table}");
    }
    let _ = writeln!(
        out,
        "Paper's observation (§4.2.2): only minor variations with respect to CLB\n\
         size over this range."
    );
    out
}

/// Renders Tables 11–13 (data-cache miss-rate effects).
pub fn tables_11_13(tables: &[(&'static str, Vec<DcacheRow>)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nTables 11-13 — Effect of Data Cache Miss Rate, 16-entry CLB\n"
    );
    for (index, (name, rows)) in tables.iter().enumerate() {
        let _ = writeln!(
            out,
            "Table {}: {name} (1024-byte instruction cache)",
            index + 11
        );
        let mut table = Table::new(&["Memory", "Dcache Miss Rate", "Relative Performance"]);
        for row in rows {
            table.row(&[
                row.memory.name(),
                &format!("{}%", row.dcache_miss_pct),
                &fmt_rel(row.relative),
            ]);
        }
        let _ = writeln!(out, "{table}");
    }
    let _ = writeln!(
        out,
        "Paper's observation (§4.2.4): as the data cache miss rate increases,\n\
         the effect of the CCRP on performance is reduced."
    );
    out
}

fn scatter_marker(memory: MemoryModel) -> char {
    match memory {
        MemoryModel::Eprom => 'x',
        MemoryModel::BurstEprom => 'o',
        MemoryModel::ScDram => '+',
    }
}

/// Renders Figure 9 (per-model tables plus the ASCII scatter).
pub fn fig9(points: &[(&'static str, PerfPoint)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nFigure 9 — Performance vs Instruction Cache Miss Rate\n"
    );
    for memory in MemoryModel::ALL {
        let _ = writeln!(out, "{} model:", memory.name());
        let mut table = Table::new(&["Workload", "Cache", "Miss Rate", "Relative Performance"]);
        let mut sorted: Vec<_> = points.iter().filter(|(_, p)| p.memory == memory).collect();
        sorted.sort_by(|a, b| a.1.miss_rate.total_cmp(&b.1.miss_rate));
        for (name, p) in sorted {
            table.row(&[
                name,
                &format!("{}B", p.cache_bytes),
                &fmt_pct(p.miss_rate),
                &fmt_rel(p.relative_performance),
            ]);
        }
        let _ = writeln!(out, "{table}");
    }

    // A text rendering of the scatter's trend per memory model.
    let _ = writeln!(
        out,
        "ASCII scatter (x = miss rate, y = relative performance):"
    );
    for memory in MemoryModel::ALL {
        let _ = writeln!(out, "  {} = {}", scatter_marker(memory), memory.name());
    }
    let max_miss = points
        .iter()
        .map(|(_, p)| p.miss_rate)
        .fold(0.0f64, f64::max);
    let rows = 18;
    let cols = 64;
    let mut grid = vec![vec![' '; cols]; rows];
    for (_, p) in points {
        let x = ((p.miss_rate / max_miss.max(1e-9)) * (cols - 1) as f64) as usize;
        // y axis: 0.85 (bottom) .. 1.45 (top)
        let y_norm = ((p.relative_performance - 0.85) / 0.60).clamp(0.0, 1.0);
        let y = rows - 1 - (y_norm * (rows - 1) as f64) as usize;
        grid[y][x] = scatter_marker(p.memory);
    }
    let _ = writeln!(out, "1.45 +{}", "-".repeat(cols));
    for row in &grid {
        let _ = writeln!(out, "     |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "0.85 +{}", "-".repeat(cols));
    let _ = writeln!(
        out,
        "      0%{:>width$.2}%",
        max_miss * 100.0,
        width = cols - 2
    );
    let _ = writeln!(
        out,
        "\nPaper's reading (§4.2.3): for slow memories the compressed code model\n\
         outperforms more at higher miss rates (x slopes down); the opposite\n\
         holds for faster memory (o and + slope up)."
    );
    out
}

/// Renders whatever a [`SweepReport`] holds, dispatching to the
/// experiment's table renderer.
pub fn report(report: &SweepReport) -> String {
    match &report.results {
        ExperimentResults::Fig5 { rows, weighted } => fig5(rows, weighted),
        ExperimentResults::Tables1To8(tables) => tables_1_to_8(tables),
        ExperimentResults::Tables9To10(tables) => tables_9_10(tables),
        ExperimentResults::Fig9(points) => fig9(points),
        ExperimentResults::Tables11To13(tables) => tables_11_13(tables),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccrp_sim::MemoryModel;

    #[test]
    fn renderers_are_pure_functions_of_rows() {
        let point = PerfPoint {
            cache_bytes: 1024,
            memory: MemoryModel::Eprom,
            relative_performance: 0.9,
            miss_rate: 0.05,
            memory_traffic: 0.7,
        };
        let tables = vec![("demo", vec![point])];
        let a = tables_1_to_8(&tables);
        let b = tables_1_to_8(&tables);
        assert_eq!(a, b);
        assert!(a.contains("Table 1: demo"));
        assert!(a.contains("0.900"));
        assert!(a.contains("5.00%"));

        let scatter = fig9(&[("demo", point)]);
        assert!(scatter.contains("EPROM model:"));
        assert!(scatter.contains("1.45 +"));
    }
}
