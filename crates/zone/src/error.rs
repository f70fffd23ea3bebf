use std::fmt;

use lookaside_wire::Name;

/// Errors produced while assembling zones.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ZoneError {
    /// A record's owner name is outside the zone's bailiwick.
    OutOfBailiwick {
        /// The zone apex.
        apex: Name,
        /// The offending owner name.
        name: Name,
    },
    /// A delegation was added at the zone apex.
    DelegationAtApex(Name),
    /// A CNAME was added next to other data at the same name.
    CnameConflict(Name),
    /// A record whose rdata has no type of its own ([`RData::Unknown`],
    /// which only decoding produces) was added at this name.
    ///
    /// [`RData::Unknown`]: lookaside_wire::RData::Unknown
    UntypedRdata(Name),
}

impl fmt::Display for ZoneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZoneError::OutOfBailiwick { apex, name } => {
                write!(f, "name {name} is outside zone {apex}")
            }
            ZoneError::DelegationAtApex(apex) => {
                write!(f, "cannot delegate at the zone apex {apex}")
            }
            ZoneError::CnameConflict(name) => {
                write!(f, "cname at {name} conflicts with existing data")
            }
            ZoneError::UntypedRdata(name) => {
                write!(f, "record at {name} has untyped rdata")
            }
        }
    }
}

impl std::error::Error for ZoneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        let e = ZoneError::OutOfBailiwick {
            apex: Name::parse("com.").unwrap(),
            name: Name::parse("example.org.").unwrap(),
        };
        assert!(e.to_string().contains("example.org."));
        assert!(e.to_string().contains("com."));
    }
}
