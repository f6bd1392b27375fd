//! Ablations of design choices the paper argues but does not tabulate:
//! Figure 1's block alignment, §3.2's LAT encodings, and §3.4's decoder
//! throughput.

use ccrp_bench::experiments::ablate::{
    alignment_ablation, bus_bandwidth_study, compact_lat_extension, decoder_ablation, lat_ablation,
    positional_extension, DECODE_RATES,
};
use ccrp_bench::{fmt_rel, suite, Table};

fn main() {
    let s = suite();

    println!("\nAblation A — block alignment (Figure 1): stored bytes incl. LAT\n");
    let mut table = Table::new(&[
        "Workload",
        "Original",
        "Byte-aligned",
        "Word-aligned",
        "Delta",
    ]);
    for row in alignment_ablation(s) {
        table.row(&[
            row.name,
            &row.original.to_string(),
            &format!(
                "{} ({:.1}%)",
                row.byte_aligned,
                f64::from(row.byte_aligned) / f64::from(row.original) * 100.0
            ),
            &format!(
                "{} ({:.1}%)",
                row.word_aligned,
                f64::from(row.word_aligned) / f64::from(row.original) * 100.0
            ),
            &format!(
                "+{:.1}%",
                f64::from(row.word_aligned - row.byte_aligned) / f64::from(row.original) * 100.0
            ),
        ]);
    }
    println!("{table}");
    println!(
        "Paper (§2.1): byte alignment compresses slightly better; word alignment\n\
         simplifies the fetch hardware.\n"
    );

    println!("Ablation B — LAT encoding (§3.2): table bytes per workload\n");
    let mut table = Table::new(&[
        "Workload",
        "Original",
        "Naive 4B/line",
        "Grouped 8B/8 lines",
    ]);
    for row in lat_ablation(s) {
        table.row(&[
            row.name,
            &row.original.to_string(),
            &format!("{} (12.5%)", row.naive_bytes),
            &format!("{} (3.125%)", row.grouped_bytes),
        ]);
    }
    println!("{table}");

    println!("Ablation C — decoder rate (§3.4): espresso, 256-byte cache\n");
    let rows = decoder_ablation(s.get("espresso"));
    let mut table = Table::new(&[
        "Memory",
        &format!("{} B/cy", DECODE_RATES[0]),
        &format!("{} B/cy (paper)", DECODE_RATES[1]),
        &format!("{} B/cy", DECODE_RATES[2]),
        &format!("{} B/cy", DECODE_RATES[3]),
    ]);
    for memory in ccrp_sim::MemoryModel::ALL {
        let series: Vec<String> = rows
            .iter()
            .filter(|r| r.memory == memory)
            .map(|r| fmt_rel(r.relative))
            .collect();
        let cells: Vec<&str> = std::iter::once(memory.name())
            .chain(series.iter().map(String::as_str))
            .collect();
        table.row(&cells);
    }
    println!("{table}");
    println!(
        "Paper (§3.4): \"The decode speed is a major limiting factor in the\n\
         performance of a CCRP system\" — visible on the fast-memory rows.\n"
    );

    println!("Extension D — positional preselected code (§5 future work)\n");
    let mut table = Table::new(&[
        "Workload",
        "Single code (bits/B)",
        "Positional (bits/B)",
        "Saving",
    ]);
    for row in positional_extension(s) {
        table.row(&[
            row.name,
            &format!("{:.3}", row.single_bits_per_byte),
            &format!("{:.3}", row.positional_bits_per_byte),
            &format!(
                "{:+.1}%",
                (row.positional_bits_per_byte / row.single_bits_per_byte - 1.0) * 100.0
            ),
        ]);
    }
    println!("{table}");
    println!(
        "Conditioning the code on the byte's position within the instruction\n\
         word (a 4-way hardwired table mux) buys extra compression for free.\n"
    );

    println!("Extension E — compact word-granular LAT (§5 future work)\n");
    let mut table = Table::new(&["Workload", "Standard 8B/8 lines", "Compact 7B/8 lines"]);
    for row in compact_lat_extension(s) {
        table.row(&[
            row.name,
            &format!("{} (3.125%)", row.standard_bytes),
            &format!("{} (2.734%)", row.compact_bytes),
        ]);
    }
    println!("{table}");
    println!("Addressing verified entry-by-entry equivalent to the standard LAT.\n");

    println!("Extension F — shared instruction bus (§5's multiprocessor question)\n");
    let mut table = Table::new(&[
        "Workload",
        "Std demand (B/cy)",
        "CCRP demand (B/cy)",
        "Std cores @4B/cy",
        "CCRP cores @4B/cy",
    ]);
    for row in bus_bandwidth_study(s) {
        table.row(&[
            row.name,
            &format!("{:.4}", row.standard_demand),
            &format!("{:.4}", row.ccrp_demand),
            &format!("{:.1}", row.standard_cores),
            &format!("{:.1}", row.ccrp_cores),
        ]);
    }
    println!("{table}");
    println!(
        "The traffic reduction §4.3 measures translates directly into more\n\
         cores per shared instruction bus — the impact §5 asks about.\n"
    );
}
