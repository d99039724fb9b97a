//! `advisor_bench`: the end-to-end StencilMART advisor benchmark.
//!
//! ```text
//! advisor_bench --workload nn2d_hot|gbdt3d_novel --seed N --seconds S --trace 0|1 [--small]
//! ```
//!
//! Each run is one advisor lifecycle: train the models and save a
//! bundle (in a child process), start the program's `advisord` on it
//! several times, stream it a fixed closed-loop request list over
//! loopback, sized to last about `S` seconds, check the answers, score
//! the bundle on held-out stencils, and print one JSON result line. See
//! README.md beside this crate.
//!
//! `train` is the child-process entry point the run starts itself with.

mod client;
mod daemon;
mod host;
mod probes;
mod report;
mod run;
mod score;
mod trace;
mod train;
mod workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("train") => train::child_main(&args[1..]),
        _ => run::main(&args),
    };
    std::process::exit(code);
}

/// Command-line options shared by the run and the training child.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// Seconds of request streaming.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Small sizes for the benchmark's own tests.
    pub small: bool,
    /// Bundle path (training child only).
    pub bundle: Option<String>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--small]
    /// [--bundle PATH]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            seconds: 10,
            ..Args::default()
        };
        let mut seen_workload = false;
        let mut seen_seed = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--small" {
                out.small = true;
                continue;
            }
            let val = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let number = || {
                val.parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got {val:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    out.workload = val.to_string();
                    seen_workload = true;
                }
                "--seed" => {
                    out.seed = number()?;
                    seen_seed = true;
                }
                "--seconds" => out.seconds = number()?.max(1),
                "--trace" => {
                    out.trace = match val {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                    }
                }
                "--bundle" => out.bundle = Some(val.to_string()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if !seen_workload || !seen_seed {
            return Err(format!(
                "usage: advisor_bench --workload {} --seed N --seconds S --trace 0|1 [--small]",
                workload::NAMES.join("|")
            ));
        }
        Ok(out)
    }

    /// The flags that reproduce these options in a child process.
    pub fn to_flags(&self) -> Vec<String> {
        let mut v = vec![
            "--workload".to_string(),
            self.workload.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            if self.trace { "1" } else { "0" }.to_string(),
        ];
        if self.small {
            v.push("--small".to_string());
        }
        v
    }
}
