//! The experiment runner: regenerates every theorem-shaped table of the
//! reproduction.
//!
//! ```text
//! experiments [--full|--smoke] [--json] [--csv DIR] [ids…]
//!
//!   ids        experiment ids to run (e1 … e13, a1 … a4, v1); default: all
//!   --full     publication sizes (minutes)
//!   --smoke    minimal sizes (CI)
//!   --json     additionally print one JSON record per experiment
//!   --csv DIR  additionally write DIR/<id>.csv with each table's rows
//! ```

use msp_bench::{all_experiments, Scale};

/// The usage line plus the known experiment ids.
fn usage() -> String {
    format!(
        "usage: experiments [--full|--smoke] [--json] [--csv DIR] [ids…]\nids: {}",
        all_experiments()
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>()
            .join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut emit_json = false;
    let mut csv_dir: Option<String> = None;
    let mut expect_csv_dir = false;
    let mut wanted: Vec<String> = Vec::new();
    for a in &args {
        if expect_csv_dir {
            csv_dir = Some(a.clone());
            expect_csv_dir = false;
            continue;
        }
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--smoke" => scale = Scale::Smoke,
            "--json" => emit_json = true,
            "--csv" => expect_csv_dir = true,
            "--help" | "-h" => {
                eprintln!("{}", usage());
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if expect_csv_dir {
        eprintln!("--csv needs a directory\n{}", usage());
        std::process::exit(2);
    }

    let suite = all_experiments();
    let selected: Vec<_> = if wanted.is_empty() {
        suite
    } else {
        let unknown: Vec<_> = wanted
            .iter()
            .filter(|w| !suite.iter().any(|(id, _)| id == w))
            .collect();
        if !unknown.is_empty() {
            eprintln!("unknown experiment ids: {unknown:?}");
            std::process::exit(2);
        }
        suite
            .into_iter()
            .filter(|(id, _)| wanted.iter().any(|w| w == id))
            .collect()
    };

    println!("# Mobile Server Problem — experiment suite ({scale:?} scale)\n");
    for (id, f) in selected {
        let start = std::time::Instant::now();
        let report = f(scale);
        print!("{}", report.to_markdown());
        if emit_json {
            println!("```json\n{}\n```\n", report.json.to_string());
        }
        if let Some(dir) = &csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(format!("{dir}/{id}.csv"), report.table.to_csv()))
            {
                eprintln!("failed to write {dir}/{id}.csv: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("[{id} finished in {:.1}s]", start.elapsed().as_secs_f64());
    }
}
