//! `gx-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics on stderr and, as the last line of stdout, one JSON
//! object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits
//! nonzero when any output or repeat check fails.

use gx_e2ebench::inputs::Workload;
use gx_e2ebench::run::{run, Settings};
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Settings, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match args.iter().any(|a| a == "--trace") {
        false => false,
        true => match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Settings {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: gx-e2ebench --workload <light_stream|dp_stream|jobs_nmsl> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = run(settings);
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
