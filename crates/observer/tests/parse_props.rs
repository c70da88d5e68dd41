//! Property pins for the observatory's string surfaces: `FromStr`
//! inverts `Display` for every [`SecretPair`] and [`SecretBit`] under
//! arbitrary per-character casing, and unknown names never parse.

use proptest::prelude::*;

use sgx_workloads::{SecretBit, SecretPair};

/// The full alias vocabulary `SecretPair::from_str` accepts
/// (lower-cased). The soup generator never emits '-', so only the
/// unpunctuated aliases can match there.
const PAIR_ALIASES: [&str; 9] = [
    "branch-halves",
    "branchhalves",
    "branch",
    "lookup-order",
    "lookuporder",
    "order",
    "dfp-echo",
    "dfpecho",
    "echo",
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
    /// `parse(display(x)) == x` for every secret pair, however cased.
    #[test]
    fn pair_parse_inverts_display(
        i in 0usize..SecretPair::ALL.len(),
        mask in any::<u64>(),
    ) {
        let p = SecretPair::ALL[i];
        prop_assert_eq!(p.to_string().parse::<SecretPair>().unwrap(), p);
        let mangled = mangle_case(p.name(), mask);
        prop_assert_eq!(
            mangled.parse::<SecretPair>().unwrap(), p,
            "mangled form {:?}", mangled
        );
    }

    /// `parse(display(x)) == x` for both secret bits, however cased.
    #[test]
    fn secret_bit_parse_inverts_display(b in any::<bool>(), mask in any::<u64>()) {
        let s = if b { SecretBit::B } else { SecretBit::A };
        prop_assert_eq!(s.to_string().parse::<SecretBit>().unwrap(), s);
        let mangled = mangle_case(s.name(), mask);
        prop_assert_eq!(mangled.parse::<SecretBit>().unwrap(), s);
    }

    /// Random letter soup parses if and only if it lands on a documented
    /// name or alias — the parsers never guess.
    #[test]
    fn unknown_names_are_rejected(n in 1usize..12, raw in any::<u64>()) {
        let s: String = (0..n)
            .map(|i| (b'a' + ((raw >> (i * 5)) % 26) as u8) as char)
            .collect();
        prop_assert_eq!(
            s.parse::<SecretPair>().is_ok(),
            PAIR_ALIASES.contains(&s.as_str()),
            "pair input {:?}", s
        );
        prop_assert_eq!(
            s.parse::<SecretBit>().is_ok(),
            ["a", "b"].contains(&s.as_str()),
            "bit input {:?}", s
        );
    }
}
