//! Minimal command-line parsing shared by the experiment binaries.
//! Hand-rolled (four flags) to keep the dependency set to the sanctioned
//! crates.

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct Args {
    /// Node-count scale applied to the Table-I-sized datasets.
    pub scale: f64,
    /// Repetitions per cell (the paper uses 10).
    pub runs: usize,
    /// Base RNG seed; run `r` uses `seed + r`.
    pub seed: u64,
    /// Optional JSON output path.
    pub out: Option<String>,
}

impl Args {
    /// Parses `--scale`, `--runs`, `--seed`, `--out` from `std::env::args`,
    /// falling back to the given defaults. Unknown flags abort with usage.
    pub fn parse(default_scale: f64, default_runs: usize) -> Self {
        Self::parse_from(
            std::env::args().skip(1).collect(),
            default_scale,
            default_runs,
        )
    }

    /// Testable core of [`Args::parse`].
    ///
    /// # Panics
    /// On an unknown flag, a flag without its value, a value that does not
    /// parse, a `--scale` that is not positive or a `--runs` of 0.
    pub fn parse_from(argv: Vec<String>, default_scale: f64, default_runs: usize) -> Self {
        let mut args = Self {
            scale: default_scale,
            runs: default_runs,
            seed: 2025,
            out: None,
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => args.scale = value("--scale").parse().expect("--scale takes a float"),
                "--runs" => args.runs = value("--runs").parse().expect("--runs takes an integer"),
                "--seed" => args.seed = value("--seed").parse().expect("--seed takes an integer"),
                "--out" => args.out = Some(value("--out")),
                "--help" | "-h" => {
                    eprintln!("flags: --scale <f64> --runs <n> --seed <n> --out <path>");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; see --help"),
            }
        }
        assert!(args.scale > 0.0, "--scale must be positive");
        assert!(args.runs >= 1, "--runs must be ≥ 1");
        args
    }

    /// Writes a serializable record to `--out` if given (pretty JSON).
    ///
    /// # Panics
    /// If the file cannot be written.
    pub fn write_out<T: fairwos_obs::json::ToJson + ?Sized>(&self, record: &T) {
        if let Some(path) = &self.out {
            let json = fairwos_obs::json::to_string_pretty(record);
            std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse_from(vec![], 0.05, 3);
        assert_eq!(a.scale, 0.05);
        assert_eq!(a.runs, 3);
        assert_eq!(a.seed, 2025);
        assert!(a.out.is_none());
    }

    #[test]
    fn flags_override() {
        let a = Args::parse_from(
            argv(&[
                "--scale", "0.5", "--runs", "10", "--seed", "7", "--out", "x.json",
            ]),
            0.05,
            3,
        );
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.runs, 10);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out.as_deref(), Some("x.json"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = Args::parse_from(argv(&["--bogus"]), 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "--scale must be positive")]
    fn zero_scale_rejected() {
        let _ = Args::parse_from(argv(&["--scale", "0"]), 1.0, 1);
    }
}
