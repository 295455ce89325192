//! The registry's contracts: one rejection site, a complete table, and a
//! flag parser that is order-invariant.

use local_bench::registry::{check_flags, find, Caps};
use local_bench::{Cli, CliError};
use proptest::prelude::*;

fn cli(args: &[&str]) -> Cli {
    Cli::try_parse(args.iter().map(|s| (*s).to_string())).expect("valid args")
}

#[test]
fn registry_lists_all_fifteen_experiments() {
    let ids: Vec<&str> = local_bench::experiments::all()
        .iter()
        .map(|e| e.id())
        .collect();
    assert_eq!(
        ids,
        [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
            "E14", "A1"
        ]
    );
    for id in &ids {
        assert!(find(id).is_some(), "{id} must resolve through find()");
    }
    assert!(find("E99").is_none());
}

#[test]
fn every_experiment_supports_trace() {
    for exp in local_bench::experiments::all() {
        assert!(exp.caps().trace, "{} must accept --trace", exp.id());
    }
}

#[test]
fn only_the_resumable_sweeps_support_checkpoint() {
    for exp in local_bench::experiments::all() {
        let expected = matches!(exp.id(), "E12" | "E13" | "E14");
        assert_eq!(
            exp.caps().checkpoint,
            expected,
            "{} checkpoint capability",
            exp.id()
        );
    }
}

/// `caps().checkpoint` and `checkpoint_scopes()` must agree: a resumable
/// sweep without scopes would skip the driver's drift check, so a mismatch
/// would silently reuse a stale journal — pin it here instead.
#[test]
fn the_checkpoint_capability_matches_the_scopes() {
    for exp in local_bench::experiments::all() {
        let scopes = exp.checkpoint_scopes(&cli(&[]));
        assert_eq!(
            scopes.is_some(),
            exp.caps().checkpoint,
            "{} checkpoint_scopes() presence",
            exp.id()
        );
        if let Some(scopes) = scopes {
            assert!(!scopes.is_empty(), "{} names its scopes", exp.id());
        }
    }
}

#[test]
fn every_default_config_is_an_object() {
    for exp in local_bench::experiments::all() {
        for args in [&[][..], &["--full"][..]] {
            let value = exp.default_config(&cli(args));
            assert!(
                matches!(value, serde::Value::Object(_)),
                "{} config must serialize as an object",
                exp.id()
            );
        }
    }
}

/// THE rejection messages, pinned: the driver emits them from exactly one
/// place ([`check_flags`]), so this is the only text a user can ever see.
#[test]
fn rejection_messages_name_the_experiment_and_the_gap() {
    let no_caps = Caps::default();
    assert_eq!(
        check_flags(&cli(&["--trace", "t.jsonl"]), "E6", no_caps),
        Err("E6 does not support --trace (no traced run path)".to_string())
    );
    assert_eq!(
        check_flags(&cli(&["--checkpoint", "c.ckpt"]), "E4", Caps::TRACE_ONLY),
        Err("E4 does not support --checkpoint (no resumable trial loop)".to_string())
    );
    assert_eq!(
        check_flags(
            &cli(&["--trace", "t.jsonl", "--checkpoint", "c.ckpt"]),
            "E12",
            Caps::TRACE_AND_CHECKPOINT,
        ),
        Err("--trace and --checkpoint are mutually exclusive on E12".to_string())
    );
}

#[test]
fn supported_flags_pass_the_capability_check() {
    assert_eq!(check_flags(&cli(&[]), "E1", Caps::default()), Ok(()));
    assert_eq!(
        check_flags(&cli(&["--trace", "t.jsonl"]), "E1", Caps::TRACE_ONLY),
        Ok(())
    );
    assert_eq!(
        check_flags(
            &cli(&["--checkpoint", "c.ckpt"]),
            "E12",
            Caps::TRACE_AND_CHECKPOINT,
        ),
        Ok(())
    );
}

/// The flag vocabulary, as (spelled-out arguments, canonical flag name)
/// pairs a strategy can shuffle.
fn flag_pool() -> Vec<(Vec<String>, &'static str)> {
    vec![
        (vec!["--full".into()], "--full"),
        (vec!["--json".into()], "--json"),
        (vec!["--quiet".into()], "--quiet"),
        (vec!["--trials".into(), "7".into()], "--trials"),
        (vec!["--seed".into(), "42".into()], "--seed"),
        (vec!["--checkpoint".into(), "c.ckpt".into()], "--checkpoint"),
        (vec!["--trace".into(), "t.jsonl".into()], "--trace"),
    ]
}

/// The flag-pool size ([`flag_pool`] entries; the permutation and the
/// subset mask both range over it).
const POOL: usize = 7;

/// A seed-driven permutation of `0..POOL` (Fisher–Yates with a tiny LCG).
fn permutation(seed: u64) -> [usize; POOL] {
    let mut order = [0usize; POOL];
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i;
    }
    let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    for i in (1..POOL).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    /// Any subset of the flag vocabulary parses to the same [`Cli`] no
    /// matter the order the flags appear in.
    #[test]
    fn try_parse_is_flag_order_invariant(mask in 0usize..(1 << POOL), seed in 0u64..1 << 32) {
        let pool = flag_pool();
        let forward: Vec<String> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .flat_map(|(_, (args, _))| args.clone())
            .collect();
        let shuffled: Vec<String> = permutation(seed)
            .iter()
            .filter(|&&i| mask & (1 << i) != 0)
            .flat_map(|&i| pool[i].0.clone())
            .collect();
        prop_assert_eq!(Cli::try_parse(forward), Cli::try_parse(shuffled));
    }

    /// Unknown flags are always a hard parse error (the binaries turn this
    /// into exit status 2; see the `json_envelope` integration test for the
    /// process-level check). `--zz…` never collides with the vocabulary.
    #[test]
    fn unknown_flags_are_rejected(letters in proptest::collection::vec(0u8..26, 6)) {
        let name: String = letters.iter().map(|&b| char::from(b'a' + b)).collect();
        let flag = format!("--zz{name}");
        prop_assert!(matches!(Cli::try_parse([flag]), Err(CliError::Bad(_))));
    }
}
