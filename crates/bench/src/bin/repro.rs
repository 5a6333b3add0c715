//! `repro <row> [flags]` prints one study of the evaluation — a row of
//! [`hawk_bench::ROWS`] — as TSV on stdout, commentary on stderr.
//! `repro all [flags]` runs every row in this process into
//! `results/<row>.tsv`, so `repro all --quick` smoke-runs the whole
//! evaluation and `repro all --full-trace` reproduces the paper's full
//! configuration (a pinned row runs its frozen cell whatever `--jobs` /
//! `--seed` say). No arguments, `--help`, an unknown row or a flag the row
//! does not take print the row list and exit 2.

use std::fs;
use std::path::Path;

use hawk_bench::{parse_args_with, ROWS};

fn usage() -> ! {
    eprintln!("repro: one study of the Hawk evaluation as TSV on stdout");
    eprintln!("usage: repro <row> [--quick | --full-trace] [--jobs N] [--seed S] [row flags]");
    eprintln!("       repro all   [--quick | --full-trace] [--jobs N] [--seed S]");
    eprintln!("rows:");
    for row in ROWS {
        eprintln!("  {:<28}{}", row.name, row.about);
        if row.pinned {
            eprintln!("      pinned cell: takes no --jobs / --seed");
        }
        for (flag, help) in row.extra {
            eprintln!("      {flag}: {help}");
        }
    }
    std::process::exit(2);
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        usage()
    };
    if name == "all" {
        let Some((opts, _)) = parse_args_with(rest, &[], false) else {
            usage()
        };
        let out_dir = Path::new("results");
        fs::create_dir_all(out_dir)?;
        for row in ROWS {
            let path = out_dir.join(format!("{}.tsv", row.name));
            eprintln!("repro: running {} -> {}", row.name, path.display());
            fs::write(path, (row.run)(&opts, &[]).to_string())?;
        }
        eprintln!("repro: all outputs written to {}", out_dir.display());
    } else {
        let Some(row) = ROWS.iter().find(|row| row.name == name) else {
            usage()
        };
        let Some((opts, flags)) = parse_args_with(rest, row.extra, row.pinned) else {
            usage()
        };
        print!("{}", (row.run)(&opts, &flags));
    }
    Ok(())
}
