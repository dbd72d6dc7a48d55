//! `rtx-frontd` — the line-protocol front-end daemon for the sharded
//! session runtime.
//!
//! ```text
//! rtx-frontd [--addr 127.0.0.1:7171] [--shards N] [--queue-depth N] [--smoke]
//! ```
//!
//! `--smoke` binds an ephemeral port, runs the scripted
//! [`rtx_front::run_smoke`] exchange against itself and exits non-zero on
//! any mismatch — the CI end-to-end check.

use rtx_front::{flag_value, run_smoke, FrontConfig, FrontServer};
use std::num::NonZeroUsize;
use std::process::ExitCode;

const USAGE: &str = "usage: rtx-frontd [--addr A] [--shards N] [--queue-depth N] [--smoke]";

/// The parsed command line: listen address, server configuration, smoke
/// mode.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(String, FrontConfig, bool), String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = FrontConfig::default();
    let mut smoke = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = flag_value(&arg, args.next())?,
            "--shards" => config.shards = flag_value::<NonZeroUsize>(&arg, args.next())?.get(),
            "--queue-depth" => {
                config.queue_depth = flag_value::<NonZeroUsize>(&arg, args.next())?.get()
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((addr, config, smoke))
}

fn main() -> ExitCode {
    let (mut addr, config, smoke) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(detail) => {
            eprintln!("rtx-frontd: {detail}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    if smoke {
        addr = "127.0.0.1:0".to_string();
    }
    let server = match FrontServer::bind(&addr, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("rtx-frontd: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr().expect("bound listener has an address");
    println!(
        "rtx-frontd: serving on {bound} with {} shards (queue depth {})",
        config.shards, config.queue_depth
    );

    if smoke {
        let client = std::thread::spawn(move || run_smoke(bound));
        if let Err(e) = server.serve() {
            eprintln!("rtx-frontd: serve: {e}");
            return ExitCode::FAILURE;
        }
        return match client.join().expect("smoke client panicked") {
            Ok(()) => {
                println!("rtx-frontd: smoke exchange passed");
                ExitCode::SUCCESS
            }
            Err(detail) => {
                eprintln!("rtx-frontd: smoke exchange failed: {detail}");
                ExitCode::FAILURE
            }
        };
    }

    match server.serve() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtx-frontd: serve: {e}");
            ExitCode::FAILURE
        }
    }
}
