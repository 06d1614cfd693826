//! Rule programs and stratification.

use crate::rule::Rule;
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised when assembling or evaluating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has a cycle through negation and cannot be stratified.
    NotStratifiable { predicate: String },
    /// A rule violates safety (range restriction). `Rule` has public
    /// fields and [`Rule::unchecked`], so a program can contain rules
    /// that never went through [`Rule::checked`]; `validate` (and
    /// therefore `saturate`) catches them here.
    UnsafeRule { detail: String },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NotStratifiable { predicate } => {
                write!(f, "program is not stratifiable: recursion through negation involving '{predicate}'")
            }
            ProgramError::UnsafeRule { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A set of rules with a precomputed stratification.
///
/// Stratum assignment: `stratum(head) >= stratum(p)` for every positive
/// dependency `p`, and `stratum(head) >= stratum(p) + 1` for every negative
/// dependency. A program with recursion through negation has no finite
/// assignment and is rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    rules: Vec<Rule>,
    /// Predicate → stratum index.
    strata: BTreeMap<String, usize>,
    /// Number of strata.
    num_strata: usize,
}

impl Program {
    /// Builds a program from rules, checking stratifiability.
    pub fn new(rules: Vec<Rule>) -> Result<Program, ProgramError> {
        let (strata, num_strata) = Self::stratify(&rules)?;
        Ok(Program { rules, strata, num_strata })
    }

    /// Computes the stratum assignment, or rejects the rule set as
    /// unstratifiable.
    fn stratify(rules: &[Rule]) -> Result<(BTreeMap<String, usize>, usize), ProgramError> {
        let mut strata: BTreeMap<String, usize> = BTreeMap::new();
        for r in rules {
            strata.entry(r.head.pred.clone()).or_insert(0);
            for (dep, _) in r.dependencies() {
                strata.entry(dep.to_string()).or_insert(0);
            }
        }
        let max_stratum = strata.len(); // any valid stratification fits
                                        // Fixpoint over the constraints.
        let mut changed = true;
        while changed {
            changed = false;
            for r in rules {
                let head = r.head.pred.clone();
                for (dep, negated) in r.dependencies() {
                    let dep_s = strata[dep];
                    let needed = if negated { dep_s + 1 } else { dep_s };
                    let head_s = strata.get_mut(&head).expect("head registered");
                    if *head_s < needed {
                        if needed > max_stratum {
                            return Err(ProgramError::NotStratifiable { predicate: head });
                        }
                        *head_s = needed;
                        changed = true;
                    }
                }
            }
        }
        let num_strata = strata.values().copied().max().map(|m| m + 1).unwrap_or(1);
        Ok((strata, num_strata))
    }

    /// Revalidates the program: every rule must be safe (range restricted)
    /// and the rule set stratifiable. The parser and `Program::new` enforce
    /// stratification, but `Rule` has public fields and
    /// [`Rule::unchecked`], so a program can smuggle in unsafe rules that
    /// never saw [`Rule::checked`]. [`Program::saturate`] calls this before
    /// evaluating; external admission pipelines (the broker) call it on
    /// rule deltas before accepting them.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for r in &self.rules {
            r.check_safety().map_err(|e| ProgramError::UnsafeRule { detail: e.to_string() })?;
        }
        Self::stratify(&self.rules)?;
        Ok(())
    }

    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    pub fn num_strata(&self) -> usize {
        self.num_strata
    }

    /// The stratum of a predicate (0 for pure-EDB predicates).
    pub fn stratum_of(&self, pred: &str) -> usize {
        self.strata.get(pred).copied().unwrap_or(0)
    }

    /// Rules whose head predicate lives in the given stratum.
    pub(crate) fn rules_in_stratum(&self, stratum: usize) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| self.stratum_of(&r.head.pred) == stratum)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::parse::parse_rules;

    #[test]
    fn positive_recursion_is_one_stratum() {
        let p = parse_rules("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).").unwrap();
        assert_eq!(p.num_strata(), 1);
        assert_eq!(p.stratum_of("path"), 0);
        assert_eq!(p.stratum_of("edge"), 0);
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let p = parse_rules(
            "reachable(X,Y) :- edge(X,Y). \
             reachable(X,Y) :- edge(X,Z), reachable(Z,Y). \
             unreachable(X,Y) :- node(X), node(Y), not reachable(X,Y).",
        )
        .unwrap();
        assert_eq!(p.stratum_of("reachable"), 0);
        assert_eq!(p.stratum_of("unreachable"), 1);
        assert_eq!(p.num_strata(), 2);
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let err = parse_rules("p(X) :- q(X), not p(X).").unwrap_err();
        assert!(err.to_string().contains("not stratifiable"));
        let err2 = parse_rules("a(X) :- c(X), not b(X). b(X) :- c(X), not a(X).").unwrap_err();
        assert!(err2.to_string().contains("not stratifiable"));
    }

    #[test]
    fn chained_negation_builds_multiple_strata() {
        let p =
            parse_rules("b(X) :- e(X), not a(X). c(X) :- e(X), not b(X). a(X) :- e0(X).").unwrap();
        assert_eq!(p.stratum_of("a"), 0);
        assert_eq!(p.stratum_of("b"), 1);
        assert_eq!(p.stratum_of("c"), 2);
        assert_eq!(p.num_strata(), 3);
    }
}
