//! Every deterministic row of `hawk_bench::ROWS`, in process, at
//! `--quick` and a small `--jobs`: once bare and — where the row declares
//! extra flags — once with all of them.
//!
//! Checked per run: a non-empty header (`saturation_smoke` alone prints
//! no TSV), every line at the header's arity, no `NaN` / `inf` cell, and
//! a second run byte-equal outside the `wall_ms` column (`proto_vs_sim`
//! and `chaos_sweep` print one). `fig16_17` runs live threads on the wall
//! clock (`Row::wall_clock`) and is skipped.
//!
//! Mutations this fails on (each tried): dropping the last cell from
//! `table1`'s second `push` (the line is off the header: `Table::push`
//! panics); dividing `fig14`'s sums by zero (an `inf` cell); seeding
//! `ablation_burstiness`'s arrival RNG from the clock instead of
//! `opts.seed` (the second run differs). A smoke row's own `assert!`
//! going false at this scale fails it too.

use hawk_bench::{HarnessOpts, Row, RunMode, Table, ROWS};

/// Small enough for the whole file to run in well under 30 s in a debug
/// build, large enough that every row still sees long jobs.
const JOBS: usize = 250;

fn run(row: &Row, flags: &[String]) -> Table {
    let opts = HarnessOpts {
        mode: RunMode::Quick,
        jobs: (!row.pinned).then_some(JOBS),
        ..HarnessOpts::default()
    };
    let mut table = (row.run)(&opts, flags);
    if let Some(wall) = table.columns.iter().position(|c| *c == "wall_ms") {
        for line in &mut table.rows {
            line[wall].clear();
        }
    }
    table
}

#[test]
fn every_deterministic_row_prints_a_clean_reproducible_table() {
    for row in ROWS.iter().filter(|row| !row.wall_clock) {
        let all_extras: Vec<String> = row.extra.iter().map(|(f, _)| f.to_string()).collect();
        let mut variants = vec![Vec::new()];
        if !all_extras.is_empty() {
            variants.push(all_extras);
        }
        for flags in variants {
            let table = run(row, &flags);
            let what = format!("{} {flags:?}", row.name);
            if row.name == "saturation_smoke" {
                assert_eq!(table, Table::default(), "{what}");
                continue;
            }
            assert!(!table.columns.is_empty(), "{what}: no header");
            assert!(!table.rows.is_empty(), "{what}: no data");
            for line in &table.rows {
                assert_eq!(line.len(), table.columns.len(), "{what}: {line:?}");
                for cell in line {
                    let lower = cell.to_lowercase();
                    assert!(
                        !lower.contains("nan") && !lower.contains("inf"),
                        "{what}: cell {cell:?} in {line:?}"
                    );
                }
            }
            assert_eq!(table, run(row, &flags), "{what}: second run differs");
        }
    }
}
