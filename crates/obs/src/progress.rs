//! Progress notes on stderr, behind `--quiet`.

/// Print a progress/note line to stderr unless `quiet`.
///
/// Every `exp_*` binary routes its ad-hoc notes through this one function, so
/// `--quiet` silences all of them uniformly while errors (which use
/// `eprintln!` directly) stay visible.
pub fn progress(quiet: bool, message: &str) {
    if !quiet {
        eprintln!("{message}");
    }
}
