//! `enginebench`: one engine-bound workload per process.
//!
//! ```text
//! enginebench --workload <oltp_mix|federated_analytics|adhoc_compile>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced (half the time each) and reports the
//! per-layer metrics. The last line of standard output is one JSON object.
//! See `README.md` next to this crate.

mod calibrate;
mod fixture;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;
use workloads::Kind;

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or(format!("unknown workload '{workload}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        kind,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::traced_run(&args)
    } else {
        run::measured_run(&args)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("enginebench: {e}");
            ExitCode::FAILURE
        }
    }
}
