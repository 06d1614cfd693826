//! Agent addresses in the paper's `tcp://host:port` syntax.

use std::fmt;

/// Errors from parsing an address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressError {
    MissingScheme,
    UnsupportedScheme(String),
    MissingPort,
    InvalidPort(String),
    EmptyHost,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressError::MissingScheme => write!(f, "address missing '://' scheme separator"),
            AddressError::UnsupportedScheme(s) => write!(f, "unsupported transport scheme '{s}'"),
            AddressError::MissingPort => write!(f, "address missing ':port'"),
            AddressError::InvalidPort(p) => write!(f, "invalid port '{p}'"),
            AddressError::EmptyHost => write!(f, "address has empty host"),
        }
    }
}

impl std::error::Error for AddressError {}

/// A transport address: `tcp://host:port`, the "directions on how to
/// contact the agent (host, port, transport protocol)" of Fig. 8.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AgentAddress {
    pub scheme: String,
    pub host: String,
    pub port: u16,
}

impl AgentAddress {
    pub fn tcp(host: impl Into<String>, port: u16) -> Self {
        AgentAddress { scheme: "tcp".into(), host: host.into(), port }
    }

    /// Parses `scheme://host:port`. Only `tcp` is accepted, matching the
    /// paper's deployments.
    pub fn parse(src: &str) -> Result<AgentAddress, AddressError> {
        let (scheme, rest) = src.split_once("://").ok_or(AddressError::MissingScheme)?;
        if scheme != "tcp" {
            return Err(AddressError::UnsupportedScheme(scheme.to_string()));
        }
        let (host, port) = rest.rsplit_once(':').ok_or(AddressError::MissingPort)?;
        if host.is_empty() {
            return Err(AddressError::EmptyHost);
        }
        let port: u16 = port.parse().map_err(|_| AddressError::InvalidPort(port.to_string()))?;
        Ok(AgentAddress { scheme: scheme.to_string(), host: host.to_string(), port })
    }
}

impl fmt::Display for AgentAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
    }
}

impl std::str::FromStr for AgentAddress {
    type Err = AddressError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AgentAddress::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_address() {
        let a = AgentAddress::parse("tcp://b1.mcc.com:4356").unwrap();
        assert_eq!(a.host, "b1.mcc.com");
        assert_eq!(a.port, 4356);
        assert_eq!(a.to_string(), "tcp://b1.mcc.com:4356");
    }

    #[test]
    fn round_trips() {
        let a = AgentAddress::tcp("localhost", 9000);
        let b: AgentAddress = a.to_string().parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_addresses() {
        assert_eq!(AgentAddress::parse("b1.mcc.com:4356"), Err(AddressError::MissingScheme));
        assert_eq!(
            AgentAddress::parse("http://x:1"),
            Err(AddressError::UnsupportedScheme("http".into()))
        );
        assert_eq!(AgentAddress::parse("tcp://host"), Err(AddressError::MissingPort));
        assert_eq!(
            AgentAddress::parse("tcp://host:notaport"),
            Err(AddressError::InvalidPort("notaport".into()))
        );
        assert_eq!(AgentAddress::parse("tcp://:80"), Err(AddressError::EmptyHost));
        assert!(AgentAddress::parse("tcp://host:70000").is_err());
    }

    #[test]
    fn rejects_more_malformed_addresses() {
        assert_eq!(AgentAddress::parse(""), Err(AddressError::MissingScheme));
        assert_eq!(AgentAddress::parse("tcp://"), Err(AddressError::MissingPort));
        assert_eq!(
            AgentAddress::parse("://host:80"),
            Err(AddressError::UnsupportedScheme(String::new()))
        );
        assert_eq!(
            AgentAddress::parse("udp://host:80"),
            Err(AddressError::UnsupportedScheme("udp".into()))
        );
        assert_eq!(
            AgentAddress::parse("tcp://host:"),
            Err(AddressError::InvalidPort(String::new()))
        );
        assert_eq!(
            AgentAddress::parse("tcp://host:-1"),
            Err(AddressError::InvalidPort("-1".into()))
        );
        assert_eq!(
            AgentAddress::parse("tcp://host:80 "),
            Err(AddressError::InvalidPort("80 ".into()))
        );
    }

    #[test]
    fn ipv6_style_hosts_keep_the_last_colon_as_port() {
        // rsplit_once means the final colon segment is always the port.
        let a = AgentAddress::parse("tcp://::1:4356").unwrap();
        assert_eq!(a.host, "::1");
        assert_eq!(a.port, 4356);
    }

    #[test]
    fn round_trips_every_generated_address() {
        for (host, port) in
            [("b1.mcc.com", 4356u16), ("127.0.0.1", 1), ("localhost", u16::MAX), ("a", 80)]
        {
            let a = AgentAddress::tcp(host, port);
            let b: AgentAddress = a.to_string().parse().unwrap();
            assert_eq!(a, b, "round trip of {a}");
        }
    }

    #[test]
    fn error_messages_name_the_problem() {
        // The Display impls carry the offending fragment for diagnostics.
        let e = AgentAddress::parse("http://x:1").unwrap_err();
        assert!(e.to_string().contains("http"));
        let e = AgentAddress::parse("tcp://host:nope").unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
