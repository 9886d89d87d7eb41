//! The one command-line parser behind every entry point: each
//! `powerscale` subcommand and every experiment binary.
//!
//! [`Args::parse`] splits argv into positionals, `--name` switches and
//! `--name value` pairs (a flag takes the next token as its value unless
//! that token starts with `--`). The typed accessors mark what they
//! read, and [`Args::finish`] rejects the rest — an unknown, misspelled
//! or irrelevant flag, or a stray positional — so a typo can never
//! silently measure the wrong configuration. Commands read every flag
//! and call `finish` before doing any work.

use std::cell::Cell;
use std::str::FromStr;

/// A command-line failure and the exit status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A malformed command line: an unknown, valueless or repeated flag,
    /// a stray positional, or a value given to a switch. Exit status 2.
    Usage(String),
    /// Anything else, a bad flag value included. Exit status 1.
    Failed(String),
}

impl CliError {
    /// The process exit status.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (CliError::Usage(m) | CliError::Failed(m)) = self;
        f.write_str(m)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Failed(message.to_string())
    }
}

/// A parsed command line; see the module docs.
pub struct Args {
    positionals: Vec<String>,
    /// Commands read positionals in order, so a count marks them.
    positionals_read: Cell<usize>,
    /// `(name, value, read)`.
    flags: Vec<(String, Option<String>, Cell<bool>)>,
}

impl Args {
    /// Split `argv` (program name removed); a repeated flag is a usage error.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
        let (mut positionals, mut flags) = (Vec::new(), Vec::<(String, _, _)>::new());
        let mut tokens = argv.into_iter().peekable();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                positionals.push(token);
            } else if flags.iter().any(|(name, ..)| *name == token) {
                return Err(CliError::Usage(format!("{token} given more than once")));
            } else {
                let value = tokens.next_if(|v| !v.starts_with("--"));
                flags.push((token, value, Cell::new(false)));
            }
        }
        Ok(Args { positionals, positionals_read: Cell::new(0), flags })
    }

    /// The `index`-th positional argument, if given.
    pub fn positional(&self, index: usize) -> Option<&str> {
        let text = self.positionals.get(index)?;
        self.positionals_read.set(self.positionals_read.get().max(index + 1));
        Some(text)
    }

    /// The flag's value (`Some(None)` for a bare switch), if present.
    fn flag(&self, name: &str) -> Option<Option<&str>> {
        let (_, value, read) = self.flags.iter().find(|(n, ..)| n == name)?;
        read.set(true);
        Some(value.as_deref())
    }

    /// Whether the switch `name` (a flag without a value) is present.
    pub fn switch(&self, name: &str) -> Result<bool, CliError> {
        match self.flag(name) {
            Some(Some(v)) => Err(CliError::Usage(format!("{name} takes no value, got '{v}'"))),
            present => Ok(present.is_some()),
        }
    }

    /// The value of `--name value`, if the flag is present.
    pub fn value(&self, name: &str) -> Result<Option<&str>, CliError> {
        match self.flag(name) {
            Some(None) => Err(CliError::Usage(format!("{name} needs a value"))),
            value => Ok(value.flatten()),
        }
    }

    /// The value of `--name value` parsed as a `T`, if the flag is
    /// present; a value that does not parse is an error (exit 1).
    pub fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| v.parse().map_err(|_| format!("invalid value for {name}: '{v}'"));
        Ok(self.value(name)?.map(parse).transpose()?)
    }

    /// Reject every positional and flag nothing read.
    pub fn finish(&self) -> Result<(), CliError> {
        if let Some(p) = self.positionals.get(self.positionals_read.get()) {
            return Err(CliError::Usage(format!("unexpected argument '{p}'")));
        }
        match self.flags.iter().find(|(_, _, read)| !read.get()) {
            Some((name, ..)) => Err(CliError::Usage(format!("unexpected flag '{name}'"))),
            None => Ok(()),
        }
    }

    /// A command's `result`, checked by [`Args::finish`]. A stray
    /// positional outranks a failure: commands read positionals before
    /// any flag, so an unread one is the mistake even when the command
    /// failed part-way (`run ep` reports `ep`, not the missing `--bench`).
    pub fn conclude<T>(&self, result: Result<T, CliError>) -> Result<T, CliError> {
        if result.is_ok() || self.positionals.len() > self.positionals_read.get() {
            self.finish()?;
        }
        result
    }
}

/// Parse the process command line, hand it to `read`, and
/// [`Args::conclude`]. On failure print one `error:` line and exit with
/// the error's status: the experiment binaries' entry point.
pub fn read_env<T>(read: impl FnOnce(&Args) -> Result<T, CliError>) -> T {
    let parsed = Args::parse(std::env::args().skip(1)).and_then(|args| args.conclude(read(&args)));
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code().into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, CliError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn splits_positionals_switches_and_pairs() {
        let a = args(&["run", "--test", "--gear", "3", "--delay", "-0.5", "extra"]).unwrap();
        assert_eq!(a.positional(0), Some("run"));
        assert!(a.switch("--test").unwrap());
        assert!(!a.switch("--quick").unwrap());
        assert_eq!(a.num::<usize>("--gear").unwrap(), Some(3));
        assert_eq!(a.num::<f64>("--delay").unwrap(), Some(-0.5));
        assert_eq!(a.value("--out").unwrap(), None);
        assert_eq!(a.finish(), Err(CliError::Usage("unexpected argument 'extra'".into())));
        assert_eq!(a.positional(1), Some("extra"));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn shape_errors_are_usage_errors() {
        let dup = args(&["--gear", "2", "--gear", "5"]).err().unwrap();
        assert_eq!(dup, CliError::Usage("--gear given more than once".into()));
        assert_eq!(dup.exit_code(), 2);

        let a = args(&["--gear", "--test"]).unwrap();
        assert_eq!(a.value("--gear"), Err(CliError::Usage("--gear needs a value".into())));
        let a = args(&["--quick", "3"]).unwrap();
        assert_eq!(
            a.switch("--quick"),
            Err(CliError::Usage("--quick takes no value, got '3'".into()))
        );

        let a = args(&["--gaer", "6"]).unwrap();
        assert_eq!(a.num::<usize>("--gear").unwrap(), None);
        assert_eq!(a.finish(), Err(CliError::Usage("unexpected flag '--gaer'".into())));
    }

    #[test]
    fn bad_values_fail_with_status_one() {
        let a = args(&["--seed", "x"]).unwrap();
        let e = a.num::<u64>("--seed").err().unwrap();
        assert_eq!(e, CliError::Failed("invalid value for --seed: 'x'".into()));
        assert_eq!(e.exit_code(), 1);
        assert_eq!(a.finish(), Ok(()), "a flag whose value failed to parse was still read");

        // A stray positional outranks the failure it caused.
        let a = args(&["run", "ep"]).unwrap();
        assert_eq!(a.positional(0), Some("run"));
        let failed: Result<(), _> = Err(CliError::Failed("missing --bench <NAME>".into()));
        assert_eq!(a.conclude(failed), Err(CliError::Usage("unexpected argument 'ep'".into())));
    }
}
