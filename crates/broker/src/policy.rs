//! Inter-broker search policies (§4.3).
//!
//! "Our implementation of the inter-broker search policy follows closely
//! those defined for the trading service in CORBA. It is a property list
//! consisting of the following items: hop count … follow option …"

/// How far the matchmaking process should look beyond the local broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowOption {
    /// "only consider the local broker's repository"
    LocalOnly,
    /// "all repositories"
    AllRepositories,
    /// "as many repositories as are needed to find a single match"
    UntilMatch,
}

impl FollowOption {
    pub fn as_str(&self) -> &'static str {
        match self {
            FollowOption::LocalOnly => "local-only",
            FollowOption::AllRepositories => "all-repositories",
            FollowOption::UntilMatch => "until-match",
        }
    }

    pub fn parse(s: &str) -> Option<FollowOption> {
        Some(match s {
            "local-only" => FollowOption::LocalOnly,
            "all-repositories" => FollowOption::AllRepositories,
            "until-match" => FollowOption::UntilMatch,
            _ => None?,
        })
    }
}

/// The policy a requesting agent attaches to a broker query. "This policy
/// needs to be passed along when one broker forwards a message to another
/// broker."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchPolicy {
    /// "the maximum number of hops between brokers that the request will
    /// traverse. … The default is set to one, which limits the search to
    /// the broker's own consortium and other directly-connected brokers."
    pub hop_count: u32,
    pub follow: FollowOption,
}

impl SearchPolicy {
    /// The paper's defaults for a request wanting `max_matches` agents:
    /// hop count 1; "if the request is for a single agent, this defaults to
    /// the 'until you find a single match' policy; otherwise it defaults to
    /// the 'all repositories' policy."
    pub fn default_for(max_matches: Option<usize>) -> SearchPolicy {
        SearchPolicy {
            hop_count: 1,
            follow: match max_matches {
                Some(1) => FollowOption::UntilMatch,
                _ => FollowOption::AllRepositories,
            },
        }
    }

    /// A local-only policy (no inter-broker search).
    pub fn local() -> SearchPolicy {
        SearchPolicy { hop_count: 0, follow: FollowOption::LocalOnly }
    }

    /// The policy to forward to the next broker: one fewer hop.
    pub fn next_hop(&self) -> SearchPolicy {
        SearchPolicy { hop_count: self.hop_count.saturating_sub(1), follow: self.follow }
    }

    /// Whether this broker should expand the search to peers (given how
    /// many matches it already has).
    pub fn should_expand(&self, matches_so_far: usize) -> bool {
        if self.hop_count == 0 {
            return false;
        }
        match self.follow {
            FollowOption::LocalOnly => false,
            FollowOption::AllRepositories => true,
            FollowOption::UntilMatch => matches_so_far == 0,
        }
    }
}

impl Default for SearchPolicy {
    fn default() -> Self {
        SearchPolicy::default_for(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let all = SearchPolicy::default_for(None);
        assert_eq!(all.hop_count, 1);
        assert_eq!(all.follow, FollowOption::AllRepositories);
        let one = SearchPolicy::default_for(Some(1));
        assert_eq!(one.follow, FollowOption::UntilMatch);
        let many = SearchPolicy::default_for(Some(5));
        assert_eq!(many.follow, FollowOption::AllRepositories);
    }

    #[test]
    fn expansion_rules() {
        let all = SearchPolicy { hop_count: 2, follow: FollowOption::AllRepositories };
        assert!(all.should_expand(0));
        assert!(all.should_expand(10));
        let until = SearchPolicy { hop_count: 2, follow: FollowOption::UntilMatch };
        assert!(until.should_expand(0));
        assert!(!until.should_expand(1));
        let local = SearchPolicy { hop_count: 2, follow: FollowOption::LocalOnly };
        assert!(!local.should_expand(0));
        let exhausted = SearchPolicy { hop_count: 0, follow: FollowOption::AllRepositories };
        assert!(!exhausted.should_expand(0));
    }

    #[test]
    fn next_hop_decrements_and_saturates() {
        let p = SearchPolicy { hop_count: 1, follow: FollowOption::AllRepositories };
        assert_eq!(p.next_hop().hop_count, 0);
        assert_eq!(p.next_hop().next_hop().hop_count, 0);
    }

    #[test]
    fn follow_option_text_round_trips() {
        for f in [FollowOption::LocalOnly, FollowOption::AllRepositories, FollowOption::UntilMatch]
        {
            assert_eq!(FollowOption::parse(f.as_str()), Some(f));
        }
        assert_eq!(FollowOption::parse("bogus"), None);
    }
}
