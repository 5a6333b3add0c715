//! Every deterministic row of `hawk_bench::ROWS`, in process, at
//! `--quick` and a small `--jobs`: once bare and — where the row declares
//! extra flags — once with all of them.
//!
//! Checked per run: a non-empty header, every line at the header's
//! arity, no `NaN` / `inf` cell, and a byte-equal second run. `fig16_17`
//! runs live threads on the wall clock (`Row::wall_clock`) and is skipped.
//!
//! Mutations this fails on (each tried): dropping the last cell from
//! `table1`'s second `push` (the line is off the header: `Table::push`
//! panics); dividing `fig14`'s sums by zero (an `inf` cell); seeding
//! `fig06`'s trace generation from the clock instead of `opts.seed` (the
//! second run differs).

use hawk_bench::{HarnessOpts, Row, RunMode, Table, ROWS};

/// Small enough for the whole file to run in well under 30 s in a debug
/// build, large enough that every row still sees long jobs.
const JOBS: usize = 250;

fn run(row: &Row, flags: &[String]) -> Table {
    let opts = HarnessOpts {
        mode: RunMode::Quick,
        jobs: Some(JOBS),
        ..HarnessOpts::default()
    };
    (row.run)(&opts, flags)
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
