//! Glob-style string patterns with a *covering* (language inclusion) test.
//!
//! The paper's subscription schema supports string operators for equality,
//! prefix (`>*`), suffix (`*<`) and containment (`*`), as well as general
//! patterns with interior wildcards such as `N*SE` (Fig. 3) or `m*t`
//! (§3.1). All of these are instances of one pattern language: literal
//! segments separated by `*` wildcards, each wildcard matching any
//! (possibly empty) string.
//!
//! The SACS summary structure relies on deciding whether one constraint
//! *covers* (subsumes) another — e.g. `m*t` covers `microsoft` — which for
//! patterns is the language-inclusion problem `L(q) ⊆ L(p)`.
//! [`Pattern::covers`] decides it exactly for this pattern class:
//!
//! * if `q` is wildcard-free its language is a single string, and inclusion
//!   reduces to a match test;
//! * otherwise every wildcard of `q` can be instantiated adversarially, so
//!   `p` covers `q` iff the literal segments of `p` can be embedded, in
//!   order and without crossing wildcards, into the literal segments of
//!   `q`, with `p`'s anchors respected by `q`'s anchors. A greedy
//!   earliest-placement embedding is optimal by the standard exchange
//!   argument.

use std::fmt;
use std::str::FromStr;

use crate::error::TypeError;

/// A string pattern: literal segments separated by `*` wildcards.
///
/// # Examples
///
/// ```
/// use subsum_types::Pattern;
/// let p: Pattern = "m*t".parse().unwrap();
/// assert!(p.matches("microsoft"));
/// assert!(p.matches("mt"));
/// assert!(!p.matches("microsofts"));
///
/// let q = Pattern::literal("microsoft");
/// assert!(p.covers(&q));
/// assert!(!q.covers(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// `true` if the pattern does not begin with a wildcard.
    anchored_start: bool,
    /// `true` if the pattern does not end with a wildcard.
    anchored_end: bool,
    /// Non-empty literal segments, in order.
    segments: Vec<String>,
}

impl Pattern {
    fn normalized(anchored_start: bool, anchored_end: bool, segments: Vec<String>) -> Self {
        debug_assert!(segments.iter().all(|s| !s.is_empty()));
        if segments.is_empty() && !(anchored_start && anchored_end) {
            // `*`, `a*`-minus-segment etc. all collapse to the universal
            // pattern, canonically unanchored on both sides.
            return Pattern {
                anchored_start: false,
                anchored_end: false,
                segments,
            };
        }
        Pattern {
            anchored_start,
            anchored_end,
            segments,
        }
    }

    /// The pattern matching every string (`*`).
    pub fn universal() -> Self {
        Pattern::normalized(false, false, Vec::new())
    }

    /// A wildcard-free pattern matching exactly `s`.
    pub fn literal(s: impl Into<String>) -> Self {
        let s = s.into();
        if s.is_empty() {
            Pattern::normalized(true, true, Vec::new())
        } else {
            Pattern::normalized(true, true, vec![s])
        }
    }

    /// The prefix pattern `s*` (the paper's `>*` operator).
    pub fn prefix(s: impl Into<String>) -> Self {
        let s = s.into();
        if s.is_empty() {
            Pattern::universal()
        } else {
            Pattern::normalized(true, false, vec![s])
        }
    }

    /// The suffix pattern `*s` (the paper's `*<` operator).
    pub fn suffix(s: impl Into<String>) -> Self {
        let s = s.into();
        if s.is_empty() {
            Pattern::universal()
        } else {
            Pattern::normalized(false, true, vec![s])
        }
    }

    /// The containment pattern `*s*` (the paper's `*` operator).
    pub fn substring(s: impl Into<String>) -> Self {
        let s = s.into();
        if s.is_empty() {
            Pattern::universal()
        } else {
            Pattern::normalized(false, false, vec![s])
        }
    }

    /// Parses a glob pattern where `*` matches any (possibly empty)
    /// string. Consecutive wildcards collapse. There is no escape
    /// syntax: literal asterisks cannot occur in values.
    ///
    /// # Errors
    ///
    /// Never fails for well-formed UTF-8 input; the `Result` exists for
    /// forward compatibility with an escaped syntax.
    pub fn parse(text: &str) -> Result<Self, TypeError> {
        let raw: Vec<&str> = text.split('*').collect();
        let anchored_start = !raw.first().is_some_and(|s| s.is_empty()) || raw.len() == 1;
        let anchored_end = !raw.last().is_some_and(|s| s.is_empty()) || raw.len() == 1;
        let segments: Vec<String> = raw
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        if text.is_empty() {
            return Ok(Pattern::literal(""));
        }
        Ok(Pattern::normalized(anchored_start, anchored_end, segments))
    }

    /// Returns `true` if the pattern matches every string.
    pub fn is_universal(&self) -> bool {
        self.segments.is_empty() && !self.anchored_start
    }

    /// If the pattern is wildcard-free, returns the single string it
    /// matches.
    pub fn as_literal(&self) -> Option<&str> {
        if self.anchored_start && self.anchored_end {
            match self.segments.as_slice() {
                [] => Some(""),
                [s] => Some(s),
                _ => None,
            }
        } else {
            None
        }
    }

    /// The literal segments, in order.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Whether the pattern is anchored at the start (no leading `*`).
    pub fn anchored_start(&self) -> bool {
        self.anchored_start
    }

    /// Whether the pattern is anchored at the end (no trailing `*`).
    pub fn anchored_end(&self) -> bool {
        self.anchored_end
    }

    /// The rendered length in bytes, used by the paper's per-character
    /// string storage accounting (`s_sv`). Computed from the segment
    /// structure without rendering, so size accounting never allocates;
    /// equals `self.to_string().len()` by construction.
    pub fn wire_size(&self) -> usize {
        if self.segments.is_empty() {
            return usize::from(self.is_universal());
        }
        let literals: usize = self.segments.iter().map(String::len).sum();
        literals
            + (self.segments.len() - 1)
            + usize::from(!self.anchored_start)
            + usize::from(!self.anchored_end)
    }

    /// Tests whether the pattern matches `s`, by greedy segment placement.
    pub fn matches(&self, s: &str) -> bool {
        let segs = &self.segments;
        if segs.is_empty() {
            // Universal, or the empty literal.
            return self.is_universal() || s.is_empty();
        }
        let mut lo = 0usize;
        let mut hi = s.len();
        let mut first = 0usize;
        let mut last = segs.len();
        if self.anchored_start {
            let seg = &segs[0];
            if !s.starts_with(seg.as_str()) {
                return false;
            }
            lo = seg.len();
            first = 1;
        }
        if self.anchored_end {
            if last == first {
                // The only segment was consumed by the start anchor; the
                // pattern is the literal seg[0], so s must end here too.
                return lo == hi;
            }
            let seg = &segs[last - 1];
            if hi - lo < seg.len() || !s[lo..hi].ends_with(seg.as_str()) {
                return false;
            }
            hi -= seg.len();
            last -= 1;
        }
        for seg in &segs[first..last] {
            match s[lo..hi].find(seg.as_str()) {
                Some(p) => lo += p + seg.len(),
                None => return false,
            }
        }
        true
    }

    /// Decides language inclusion: returns `true` iff every string matched
    /// by `other` is matched by `self`.
    ///
    /// This is the covering test of the paper's SACS structure (§3.1): a
    /// row's constraint may be substituted by a more general one exactly
    /// when the new constraint covers it.
    pub fn covers(&self, other: &Pattern) -> bool {
        let (p, q) = (self, other);
        if p.is_universal() {
            return true;
        }
        if let Some(s) = q.as_literal() {
            return p.matches(s);
        }
        if p.as_literal().is_some() {
            // q contains a wildcard, so its language is infinite and
            // cannot be included in a single-string language.
            return false;
        }
        // q contains at least one wildcard, each of which can be
        // instantiated adversarially; p's segments must embed into q's
        // literal chunks.
        if q.is_universal() {
            // p is not universal here, and any non-universal pattern
            // rejects some string.
            return false;
        }
        let chunks = &q.segments;
        let psegs = &p.segments;
        let mut pi = 0usize;
        let mut pend = psegs.len();
        // Current embedding position: (chunk index, byte offset).
        let mut ci = 0usize;
        let mut off = 0usize;

        if p.anchored_start {
            if !q.anchored_start {
                return false;
            }
            // q non-literal with anchored start has at least one chunk.
            let q0 = &chunks[0];
            let p0 = &psegs[0];
            if !q0.starts_with(p0.as_str()) {
                return false;
            }
            off = p0.len();
            pi = 1;
        }

        // Reserve the final segment if p is anchored at the end.
        let mut reserve: Option<(usize, usize)> = None;
        if p.anchored_end {
            if !q.anchored_end {
                return false;
            }
            if pi == pend {
                // p is a literal consumed by the start anchor, but q's
                // language is infinite: cannot be included in one string.
                return false;
            }
            // `q.anchored_end` with empty chunks means q is a bare
            // literal/anchor combination; claiming no coverage is always
            // a safe (conservative) answer for this predicate.
            let Some(qe) = chunks.last() else {
                return false;
            };
            let pe = &psegs[pend - 1];
            if !qe.ends_with(pe.as_str()) {
                return false;
            }
            reserve = Some((chunks.len() - 1, qe.len() - pe.len()));
            pend -= 1;
        }

        // Greedy earliest embedding of the middle segments.
        for seg in &psegs[pi..pend] {
            loop {
                if ci >= chunks.len() {
                    return false;
                }
                if let Some(p) = chunks[ci][off..].find(seg.as_str()) {
                    off += p + seg.len();
                    break;
                }
                ci += 1;
                off = 0;
            }
        }

        // The reserved end segment must start at or after the embedding
        // frontier.
        if let Some((rc, roff)) = reserve {
            if ci > rc || (ci == rc && off > roff) {
                return false;
            }
        }
        true
    }
}

impl FromStr for Pattern {
    type Err = TypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pattern::parse(s)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return f.write_str(if self.is_universal() { "*" } else { "" });
        }
        if !self.anchored_start {
            f.write_str("*")?;
        }
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                f.write_str("*")?;
            }
            f.write_str(seg)?;
        }
        if !self.anchored_end {
            f.write_str("*")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Pattern {
        Pattern::parse(s).unwrap()
    }

    #[test]
    fn parse_normalizes() {
        assert_eq!(p("*"), Pattern::universal());
        assert_eq!(p("**"), Pattern::universal());
        assert_eq!(p("a**b"), p("a*b"));
        assert_eq!(p(""), Pattern::literal(""));
        assert_eq!(p("abc"), Pattern::literal("abc"));
        assert_eq!(p("ab*"), Pattern::prefix("ab"));
        assert_eq!(p("*ab"), Pattern::suffix("ab"));
        assert_eq!(p("*ab*"), Pattern::substring("ab"));
    }

    #[test]
    fn display_roundtrips() {
        for s in ["*", "", "abc", "ab*", "*ab", "*ab*", "a*b*c", "N*SE"] {
            let pat = p(s);
            assert_eq!(p(&pat.to_string()), pat, "roundtrip of {s}");
        }
    }

    #[test]
    fn matches_literal() {
        assert!(p("abc").matches("abc"));
        assert!(!p("abc").matches("abcd"));
        assert!(!p("abc").matches("ab"));
        assert!(p("").matches(""));
        assert!(!p("").matches("x"));
    }

    #[test]
    fn matches_paper_examples() {
        // Fig. 3: exchange matches "N*SE"; Fig. 2 event has NYSE.
        assert!(p("N*SE").matches("NYSE"));
        assert!(p("N*SE").matches("NSE"));
        assert!(!p("N*SE").matches("NYSEX"));
        // Fig. 3: symbol >* OT (prefix); "OTE" matches.
        assert!(p("OT*").matches("OTE"));
        assert!(!p("OT*").matches("XOT"));
        // §3.1: "m*t" covers "microsoft" and "micronet".
        assert!(p("m*t").matches("microsoft"));
        assert!(p("m*t").matches("micronet"));
        assert!(p("m*t").matches("mt"));
        assert!(!p("m*t").matches("microsofts"));
    }

    #[test]
    fn matches_multi_wildcard() {
        let pat = p("a*b*c");
        assert!(pat.matches("abc"));
        assert!(pat.matches("aXbYc"));
        assert!(pat.matches("abbc"));
        assert!(!pat.matches("acb"));
        assert!(!pat.matches("ab"));
        assert!(p("*a*a*").matches("aa"));
        assert!(p("*a*a*").matches("xaxax"));
        assert!(!p("*a*a*").matches("a"));
    }

    #[test]
    fn matches_universal() {
        assert!(p("*").matches(""));
        assert!(p("*").matches("anything"));
    }

    #[test]
    fn matches_greedy_backtrack_free_pitfall() {
        // Greedy earliest placement must still find this: suffix anchor
        // reserves the tail before middles are placed.
        assert!(p("*ab*b").matches("abb"));
        assert!(!p("*ab*b").matches("ab"));
        assert!(p("a*ab").matches("aab"));
        assert!(!p("a*ab").matches("ab"));
    }

    #[test]
    fn covers_literal() {
        assert!(p("m*t").covers(&p("microsoft")));
        assert!(p("m*t").covers(&p("mt")));
        assert!(!p("m*t").covers(&p("mx")));
        assert!(!p("microsoft").covers(&p("m*t")));
        assert!(p("abc").covers(&p("abc")));
    }

    #[test]
    fn covers_universal() {
        assert!(p("*").covers(&p("a*b")));
        assert!(p("*").covers(&p("*")));
        assert!(!p("*a*").covers(&p("*")));
    }

    #[test]
    fn covers_prefix_suffix() {
        assert!(p("OT*").covers(&p("OTE*")));
        assert!(!p("OTE*").covers(&p("OT*")));
        assert!(p("*E").covers(&p("*TE")));
        assert!(!p("*TE").covers(&p("*E")));
        // Prefix does not cover suffix or vice versa.
        assert!(!p("OT*").covers(&p("*OT")));
        assert!(!p("*OT").covers(&p("OT*")));
    }

    #[test]
    fn covers_substring() {
        assert!(p("*a*").covers(&p("*ab*")));
        assert!(p("*a*").covers(&p("ab*")));
        assert!(p("*a*").covers(&p("*ba")));
        assert!(!p("*ab*").covers(&p("*a*b*")));
        assert!(p("*a*b*").covers(&p("*ab*")));
    }

    #[test]
    fn covers_adversarial_gap() {
        // q = "ab*cd": strings ab·X·cd. p = "abc*d" fails on X = "x".
        assert!(!p("abc*d").covers(&p("ab*cd")));
        assert!(p("ab*cd").covers(&p("ab*cd")));
        assert!(p("ab*d").covers(&p("ab*cd")));
        assert!(p("a*cd").covers(&p("ab*cd")));
        assert!(p("a*d").covers(&p("ab*cd")));
        // Segment spilling past an anchored prefix chunk.
        assert!(!p("abx*").covers(&p("ab*x*")));
    }

    #[test]
    fn covers_end_reservation_conflict() {
        // p = "*c*cd": needs a "c" strictly before the final "cd".
        assert!(!p("*c*cd").covers(&p("*acd")));
        assert!(p("*c*cd").covers(&p("*c*acd")));
        assert!(p("*c*d").covers(&p("*cxd")));
    }

    #[test]
    fn covers_is_reflexive() {
        for s in [
            "*", "", "abc", "ab*", "*ab", "*ab*", "a*b*c", "N*SE", "*a*a*",
        ] {
            assert!(p(s).covers(&p(s)), "reflexivity of {s}");
        }
    }

    #[test]
    fn covers_repeated_segments() {
        assert!(p("*a*a*").covers(&p("*aa*")));
        assert!(!p("*aa*").covers(&p("*a*a*")));
        assert!(p("*a*a*").covers(&p("*a*a*")));
        assert!(!p("*a*a*a*").covers(&p("*a*a*")));
    }

    #[test]
    fn covers_empty_literal() {
        assert!(p("*").covers(&p("")));
        assert!(!p("").covers(&p("*")));
        assert!(p("").covers(&p("")));
        assert!(!p("a*").covers(&p("")));
    }

    #[test]
    fn exhaustive_soundness_small_alphabet() {
        // For every pattern pair over {a,b} with ≤2 wildcards and short
        // segments, verify: covers(p, q) implies every string of length ≤ 6
        // matched by q is matched by p.
        let pats: Vec<Pattern> = [
            "*", "", "a", "b", "ab", "ba", "aa", "a*", "*a", "*a*", "b*", "*b", "*b*", "a*b",
            "b*a", "*a*b", "a*b*", "*a*b*", "ab*", "*ab", "*ab*", "aa*", "*aa*", "a*a", "*a*a*",
        ]
        .iter()
        .map(|s| p(s))
        .collect();
        let mut strings = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..6 {
            let mut next = Vec::new();
            for s in &frontier {
                for c in ['a', 'b'] {
                    next.push(format!("{s}{c}"));
                }
            }
            strings.extend(next.iter().cloned());
            frontier = next;
        }
        for pp in &pats {
            for qq in &pats {
                if pp.covers(qq) {
                    for s in &strings {
                        if qq.matches(s) {
                            assert!(
                                pp.matches(s),
                                "covers({pp}, {qq}) but {pp} rejects {s:?} matched by {qq}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn covers_transitive_spot_checks() {
        let a = p("*a*");
        let b = p("*ab*");
        let c = p("ab*c");
        assert!(a.covers(&b));
        assert!(b.covers(&c));
        assert!(a.covers(&c));
    }

    #[test]
    fn utf8_patterns() {
        assert!(p("α*ω").matches("αβγω"));
        assert!(!p("α*ω").matches("βγω"));
        assert!(p("α*").covers(&p("αβ*")));
    }

    #[test]
    fn wire_size_equals_rendered_length() {
        for text in [
            "*", "", "abc", "*abc", "abc*", "*abc*", "a*b", "*a*b*", "α*ω", "a**b", "NYSE",
        ] {
            let pat = p(text);
            assert_eq!(
                pat.wire_size(),
                pat.to_string().len(),
                "pattern {text:?} renders {:?}",
                pat.to_string()
            );
        }
        assert_eq!(Pattern::universal().wire_size(), 1);
        assert_eq!(Pattern::literal("").wire_size(), 0);
    }
}
