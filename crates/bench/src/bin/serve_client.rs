//! The sweep-service client binary.
//!
//! ```text
//! serve_client <addr> ping
//! serve_client <addr> stats
//! serve_client <addr> shutdown
//! serve_client <addr> sweep [spec flags]
//! ```
//!
//! `sweep` reads the spec flags of `vfc_serve::WireSpec`, the same ones
//! the local `sweep` binary takes (`--workloads all` and `--seeds a..b`
//! included), and checks every token before it connects. It then
//! submits the spec, streams per-cell results as they land, and
//! survives connection drops and server restarts by resubmitting: cells
//! are keyed by config hashes, so a resumed pass pays only for cells
//! that never finished.

use vfc::serve::{CellOutcome, ServeClient, WireSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (addr, command) = match (args.get(1), args.get(2)) {
        (Some(addr), Some(command)) => (addr.clone(), command.clone()),
        _ => usage("missing <addr> and command"),
    };
    let client = ServeClient::new(addr);

    match command.as_str() {
        "ping" => match client.ping() {
            Ok(rtt) => println!("pong in {rtt:?}"),
            Err(e) => fail(&format!("ping: {e}")),
        },
        "stats" => match client.stats() {
            Ok(s) => {
                println!(
                    "connections {} | sheds {} | deadline aborts {} | journal replays {}",
                    s.connections, s.sheds, s.deadline_aborts, s.journal_replays
                );
                println!(
                    "jobs {} | executed {} | cache hits {} | dedup joins {}",
                    s.jobs, s.executed, s.cache_hits, s.dedup_joins
                );
            }
            Err(e) => fail(&format!("stats: {e}")),
        },
        "shutdown" => match client.shutdown_server() {
            Ok(()) => println!("server is draining"),
            Err(e) => fail(&format!("shutdown: {e}")),
        },
        "sweep" => run_sweep(&client, parse_spec(&args[3..])),
        other => usage(&format!("unknown command `{other}`")),
    }
}

fn run_sweep(client: &ServeClient, spec: WireSpec) {
    println!("submitting {} cells", spec.cell_count());
    let on_cell = |cell: &CellOutcome| match &cell.result {
        Ok(report) => println!(
            "cell {:>3} [{:016x}]{} Tmax {:.2} C, {:.2} threads/s",
            cell.index,
            cell.key,
            if cell.cached { " (cached)" } else { "" },
            report.max_temperature.value(),
            report.throughput,
        ),
        Err(message) => println!(
            "cell {:>3} [{:016x}] FAILED: {message}",
            cell.index, cell.key
        ),
    };
    match client.run_sweep_with(&spec, on_cell) {
        Ok(outcome) => {
            let failed = outcome.cells.iter().filter(|c| c.result.is_err()).count();
            let cached = outcome.cells.iter().filter(|c| c.cached).count();
            println!(
                "done: {} cells ({} cached, {} failed, {} reconnects)",
                outcome.cells.len(),
                cached,
                failed,
                outcome.reconnects
            );
            if failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => fail(&format!("sweep: {e}")),
    }
}

fn parse_spec(args: &[String]) -> WireSpec {
    let mut spec = WireSpec::default();
    let mut rest = args.iter().cloned();
    while let Some(flag) = rest.next() {
        match spec.apply_flag(&flag, &mut rest) {
            Ok(true) => {}
            Ok(false) => usage(&format!("unknown sweep flag `{flag}`")),
            Err(e) => usage(&e),
        }
    }
    if let Err(e) = spec.to_sweep_spec() {
        usage(&e);
    }
    spec
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

fn usage(offender: &str) -> ! {
    eprintln!(
        "{offender}\n\
         usage: serve_client <addr> <ping|stats|shutdown|sweep [spec flags]>\n\n{}",
        WireSpec::FLAGS_HELP
    );
    std::process::exit(2);
}
