//! Property pins for the string surfaces the CLI parses through:
//! `FromStr` inverts `Display` for every [`Scheme`] under arbitrary
//! per-character casing, and unknown names never parse.

use proptest::prelude::*;

use sgx_preload_core::Scheme;

const SCHEMES: [Scheme; 6] = [
    Scheme::Baseline,
    Scheme::Dfp,
    Scheme::DfpStop,
    Scheme::Sip,
    Scheme::Hybrid,
    Scheme::UserLevel,
];

/// The full alias vocabulary `Scheme::from_str` accepts (lower-cased).
const SCHEME_ALIASES: [&str; 10] = [
    "baseline",
    "dfp",
    "dfp-stop",
    "dfpstop",
    "sip",
    "hybrid",
    "sip+dfp",
    "user-level",
    "userlevel",
    "eleos",
];

/// Re-cases `s` per character according to the bits of `mask`.
fn mangle_case(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, ch)| {
            if mask >> (i % 64) & 1 == 1 {
                ch.to_ascii_uppercase()
            } else {
                ch.to_ascii_lowercase()
            }
        })
        .collect()
}

proptest! {
    /// `parse(display(x)) == x` for every scheme, however it is cased.
    #[test]
    fn scheme_parse_inverts_display(i in 0usize..SCHEMES.len(), mask in any::<u64>()) {
        let s = SCHEMES[i];
        prop_assert_eq!(s.to_string().parse::<Scheme>().unwrap(), s);
        let mangled = mangle_case(&s.to_string(), mask);
        prop_assert_eq!(
            mangled.parse::<Scheme>().unwrap(), s,
            "mangled form {:?}", mangled
        );
    }

    /// Random letter soup parses if and only if it lands on a documented
    /// name or alias — the parser never guesses.
    #[test]
    fn unknown_names_are_rejected(n in 1usize..12, raw in any::<u64>()) {
        let s: String = (0..n)
            .map(|i| (b'a' + ((raw >> (i * 5)) % 26) as u8) as char)
            .collect();
        prop_assert_eq!(
            s.parse::<Scheme>().is_ok(),
            SCHEME_ALIASES.contains(&s.as_str()),
            "scheme input {:?}", s
        );
    }
}
