//! `cbi` — cooperative bug isolation from the command line.
//!
//! Run `cbi` with no arguments to print the usage text: every
//! subcommand with its flags, then a paragraph per area (sampling and
//! bytecode, remote collection, the ground-truth corpus, isolation, the
//! fleet, health monitoring and the paper experiments).  The text is the
//! `USAGE` constant in `commands.rs`, its one copy.

mod args;
mod commands;
mod experiments;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(raw) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped reading (`| head`) is not an error.
        Err(message) if message == commands::STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
