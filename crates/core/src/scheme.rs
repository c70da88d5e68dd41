//! The preloading schemes under evaluation.

use std::fmt;
use std::str::FromStr;

/// Which preloading machinery a run enables — the paper's experimental
/// arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// No preloading: the vanilla SGX driver (every figure's baseline).
    #[default]
    Baseline,
    /// Dynamic fault-history-based preloading without the safety valve
    /// (plain "DFP" in Fig. 8).
    Dfp,
    /// DFP with the misprediction safety valve ("DFP-stop", Fig. 8; the
    /// configuration the paper enables by default afterwards).
    DfpStop,
    /// Source-level instrumentation-based preloading only (Fig. 10).
    Sip,
    /// SIP and DFP-stop cooperating ("SIP+DFP", Figs. 12–13); Class-2
    /// sites are left to DFP during instrumentation selection.
    Hybrid,
    /// The §6 comparator: an Eleos/CoSMIX-style user-level paging runtime
    /// inside the enclave (not one of the paper's arms; excluded from
    /// [`Scheme::ALL`]).
    UserLevel,
    /// EDMM-style dynamic EPC sizing without any preloader: enclaves grow
    /// by EAUG on first-touch faults instead of swapping, up to the
    /// configured ceiling (the SGX2 rival scheme; not a paper arm, so
    /// excluded from [`Scheme::ALL`]).
    Edmm,
    /// Dynamic EPC sizing composed with DFP-stop: growth absorbs the cold
    /// first touches while the valve-guarded preloader hides the refaults
    /// once reclamation starts (excluded from [`Scheme::ALL`]).
    EdmmDfpStop,
}

impl Scheme {
    /// The paper's five experimental arms, baseline first (the
    /// [`Scheme::UserLevel`] comparator is deliberately excluded).
    pub const ALL: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::Dfp,
        Scheme::DfpStop,
        Scheme::Sip,
        Scheme::Hybrid,
    ];

    /// Whether the scheme runs the DFP predictor.
    pub fn uses_dfp(self) -> bool {
        matches!(
            self,
            Scheme::Dfp | Scheme::DfpStop | Scheme::Hybrid | Scheme::EdmmDfpStop
        )
    }

    /// Whether EDMM-style dynamic EPC sizing (the EAUG grow-before-evict
    /// fault path) is enabled.
    pub fn uses_edmm(self) -> bool {
        matches!(self, Scheme::Edmm | Scheme::EdmmDfpStop)
    }

    /// Whether the scheme replaces hardware paging with the user-level
    /// runtime.
    pub fn is_user_level(self) -> bool {
        matches!(self, Scheme::UserLevel)
    }

    /// Whether the DFP-stop safety valve is armed.
    pub fn uses_valve(self) -> bool {
        matches!(self, Scheme::DfpStop | Scheme::Hybrid | Scheme::EdmmDfpStop)
    }

    /// Whether source instrumentation (SIP) is applied.
    pub fn uses_sip(self) -> bool {
        matches!(self, Scheme::Sip | Scheme::Hybrid)
    }

    /// The paper's label for the scheme.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::Dfp => "DFP",
            Scheme::DfpStop => "DFP-stop",
            Scheme::Sip => "SIP",
            Scheme::Hybrid => "SIP+DFP",
            Scheme::UserLevel => "user-level",
            Scheme::Edmm => "edmm",
            Scheme::EdmmDfpStop => "edmm+dfp-stop",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The error [`Scheme::from_str`] reports for an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(String);

impl fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scheme {:?} (baseline|dfp|dfp-stop|sip|hybrid|user-level|edmm|edmm+dfp-stop)",
            self.0
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parses a scheme name, case-insensitively. Accepts the paper labels
    /// ([`Scheme::name`], so `parse(x.to_string()) == x` round-trips) plus
    /// the CLI aliases `dfpstop`, `hybrid`, `userlevel` and `eleos`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Ok(Scheme::Baseline),
            "dfp" => Ok(Scheme::Dfp),
            "dfp-stop" | "dfpstop" => Ok(Scheme::DfpStop),
            "sip" => Ok(Scheme::Sip),
            "hybrid" | "sip+dfp" => Ok(Scheme::Hybrid),
            "user-level" | "userlevel" | "eleos" => Ok(Scheme::UserLevel),
            "edmm" => Ok(Scheme::Edmm),
            "edmm+dfp-stop" | "edmm-dfp-stop" | "edmmdfpstop" => Ok(Scheme::EdmmDfpStop),
            _ => Err(ParseSchemeError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix() {
        assert!(!Scheme::Baseline.uses_dfp());
        assert!(!Scheme::Baseline.uses_sip());
        assert!(Scheme::Dfp.uses_dfp());
        assert!(!Scheme::Dfp.uses_valve());
        assert!(Scheme::DfpStop.uses_valve());
        assert!(!Scheme::DfpStop.uses_sip());
        assert!(Scheme::Sip.uses_sip());
        assert!(!Scheme::Sip.uses_dfp());
        assert!(Scheme::Hybrid.uses_sip());
        assert!(Scheme::Hybrid.uses_dfp());
        assert!(Scheme::Hybrid.uses_valve());
        assert!(Scheme::Edmm.uses_edmm());
        assert!(!Scheme::Edmm.uses_dfp());
        assert!(!Scheme::Edmm.uses_sip());
        assert!(Scheme::EdmmDfpStop.uses_edmm());
        assert!(Scheme::EdmmDfpStop.uses_dfp());
        assert!(Scheme::EdmmDfpStop.uses_valve());
        assert!(!Scheme::EdmmDfpStop.uses_sip());
        for s in Scheme::ALL {
            assert!(!s.uses_edmm(), "paper arms never grow the EPC");
        }
    }

    #[test]
    fn names_are_paper_labels() {
        let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["baseline", "DFP", "DFP-stop", "SIP", "SIP+DFP"]);
        assert_eq!(Scheme::Hybrid.to_string(), "SIP+DFP");
        assert_eq!(Scheme::UserLevel.to_string(), "user-level");
    }

    #[test]
    fn parse_round_trips_every_display_name() {
        for s in Scheme::ALL.iter().copied().chain([
            Scheme::UserLevel,
            Scheme::Edmm,
            Scheme::EdmmDfpStop,
        ]) {
            assert_eq!(s.to_string().parse::<Scheme>(), Ok(s));
        }
    }

    #[test]
    fn parse_accepts_cli_aliases_and_rejects_garbage() {
        assert_eq!("dfpstop".parse::<Scheme>(), Ok(Scheme::DfpStop));
        assert_eq!("hybrid".parse::<Scheme>(), Ok(Scheme::Hybrid));
        assert_eq!("eleos".parse::<Scheme>(), Ok(Scheme::UserLevel));
        assert_eq!("BASELINE".parse::<Scheme>(), Ok(Scheme::Baseline));
        let err = "turbo".parse::<Scheme>().unwrap_err();
        assert!(err.to_string().contains("unknown scheme"));
        assert!(err.to_string().contains("turbo"));
    }

    #[test]
    fn edmm_schemes_are_not_paper_arms() {
        assert!(!Scheme::ALL.contains(&Scheme::Edmm));
        assert!(!Scheme::ALL.contains(&Scheme::EdmmDfpStop));
        assert_eq!("edmm-dfp-stop".parse::<Scheme>(), Ok(Scheme::EdmmDfpStop));
        assert_eq!("EDMM".parse::<Scheme>(), Ok(Scheme::Edmm));
    }

    #[test]
    fn user_level_is_not_a_paper_arm() {
        assert!(!Scheme::ALL.contains(&Scheme::UserLevel));
        assert!(Scheme::UserLevel.is_user_level());
        assert!(!Scheme::UserLevel.uses_dfp());
        assert!(!Scheme::UserLevel.uses_sip());
        assert!(!Scheme::UserLevel.uses_valve());
    }
}
