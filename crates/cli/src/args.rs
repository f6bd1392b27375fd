//! A small, dependency-free argument parser: positional operands plus
//! `--flag value` / `--switch` options.
//!
//! Two options are shared by every subcommand and parsed here rather
//! than declared per command: `--out FILE` (the command's artifact path,
//! or a redirect of its report for commands that only print) and
//! `--json` (switch the report to machine-readable JSON). The old
//! `--output`/`--out-file`/`--out-dir` aliases, deprecated since the
//! shared options landed, are no longer accepted (see CHANGELOG.md).
//!
//! The campaign options that several commands read the same way —
//! `--seed`, `--jobs` and a trial count — are parsed once here too
//! ([`parse_seed`], [`parse_jobs`], [`parse_trials`]).

use std::collections::BTreeMap;

use crate::error::CliError;

/// Value options every subcommand accepts without declaring them.
pub const SHARED_VALUE_OPTIONS: &[&str] = &["out"];

/// Switches every subcommand accepts without declaring them.
pub const SHARED_SWITCHES: &[&str] = &["json"];

/// Parsed arguments for one subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `value_options` lists the option names that
    /// consume a following value; any other `--name` is a switch. The
    /// shared options (`SHARED_VALUE_OPTIONS`, `SHARED_SWITCHES`) are
    /// accepted on top of both lists.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for an option missing its value or an unknown
    /// option.
    pub fn parse(
        raw: &[String],
        value_options: &[&str],
        switch_options: &[&str],
    ) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if value_options.contains(&name) || SHARED_VALUE_OPTIONS.contains(&name) {
                    let value = iter.next().ok_or_else(|| {
                        CliError::Usage(format!("option --{name} expects a value"))
                    })?;
                    args.options.insert(name.to_string(), value.clone());
                } else if switch_options.contains(&name) || SHARED_SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    return Err(CliError::Usage(format!("unknown option --{name}")));
                }
            } else {
                args.positional.push(arg.clone());
            }
        }
        Ok(args)
    }

    /// The `index`-th positional operand.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when absent.
    pub fn positional(&self, index: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("missing {what}")))
    }

    /// An option's value, if given.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An option parsed as an integer (decimal or 0x-hex).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] on malformed numbers.
    pub fn option_u32(&self, name: &str, default: u32) -> Result<u32, CliError> {
        match self.option(name) {
            None => Ok(default),
            Some(text) => parse_u32(text)
                .ok_or_else(|| CliError::Usage(format!("--{name}: bad number `{text}`"))),
        }
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The shared `--out` path.
    pub fn out(&self) -> Option<&str> {
        self.option("out")
    }

    /// Whether the shared `--json` switch was given.
    pub fn json(&self) -> bool {
        self.switch("json")
    }
}

/// Parses decimal or `0x` hexadecimal.
pub fn parse_u32(text: &str) -> Option<u32> {
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        text.parse().ok()
    }
}

/// A campaign's `--seed`: a decimal `u64`, `default` when absent.
pub(crate) fn parse_seed(args: &Args, default: u64) -> Result<u64, CliError> {
    match args.option("seed") {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| CliError::Usage(format!("--seed: bad number `{text}`"))),
    }
}

/// `--jobs`: the host's available parallelism when absent, never 0.
pub(crate) fn parse_jobs(args: &Args) -> Result<usize, CliError> {
    at_least_one(args, "jobs", ccrp_bench::available_jobs() as u32)
}

/// A campaign's trial count (`--trials`, `--programs`): never 0.
pub(crate) fn parse_trials(args: &Args, name: &str) -> Result<usize, CliError> {
    at_least_one(args, name, 1000)
}

/// `--{name}` as a count, `default` when absent; 0 is refused.
fn at_least_one(args: &Args, name: &str, default: u32) -> Result<usize, CliError> {
    match args.option_u32(name, default)? {
        0 => Err(CliError::Usage(format!("--{name} must be at least 1"))),
        n => Ok(n as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed() {
        let args = Args::parse(
            &strings(&["input.s", "--cache", "1024", "--verbose", "out.bin"]),
            &["cache"],
            &["verbose"],
        )
        .unwrap();
        assert_eq!(args.positional(0, "input").unwrap(), "input.s");
        assert_eq!(args.positional(1, "output").unwrap(), "out.bin");
        assert_eq!(args.option_u32("cache", 0).unwrap(), 1024);
        assert!(args.switch("verbose"));
        assert!(!args.switch("quiet"));
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(Args::parse(&strings(&["--bogus"]), &[], &[]).is_err());
        assert!(Args::parse(&strings(&["--cache"]), &["cache"], &[]).is_err());
    }

    #[test]
    fn shared_options_need_no_declaration() {
        let args = Args::parse(&strings(&["--out", "x.json", "--json"]), &[], &[]).unwrap();
        assert_eq!(args.out(), Some("x.json"));
        assert!(args.json());
        assert!(Args::parse(&strings(&["--out"]), &[], &[]).is_err());
    }

    #[test]
    fn removed_aliases_are_rejected() {
        // The --output/--out-file/--out-dir aliases were deprecated for
        // several releases and are now gone; they must fail loudly
        // rather than be silently ignored.
        for alias in ["--output", "--out-file", "--out-dir"] {
            let err = Args::parse(&strings(&[alias, "f.bin"]), &[], &[]).unwrap_err();
            assert!(err.to_string().contains(&alias[2..]), "{alias}");
        }
    }

    #[test]
    fn numbers_decimal_and_hex() {
        assert_eq!(parse_u32("256"), Some(256));
        assert_eq!(parse_u32("0x100"), Some(256));
        assert_eq!(parse_u32("xyz"), None);
        let args = Args::parse(&strings(&["--base", "0x400"]), &["base"], &[]).unwrap();
        assert_eq!(args.option_u32("base", 0).unwrap(), 0x400);
        let args = Args::parse(&strings(&["--base", "zz"]), &["base"], &[]).unwrap();
        assert!(args.option_u32("base", 0).is_err());
    }

    #[test]
    fn missing_positional_reports_name() {
        let args = Args::parse(&[], &[], &[]).unwrap();
        let err = args.positional(0, "input file").unwrap_err();
        assert!(err.to_string().contains("input file"));
    }
}
