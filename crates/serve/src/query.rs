//! The typed query surface and its canonical string tokens.
//!
//! Every request the service answers is one [`Query`]. Each query has a
//! stable textual token (`point:median_run_min`, `fig:fig3`,
//! `ab:powercap:150`, `dq:lossy`) that round-trips through
//! [`Query::parse`], so query traces are replayable from text and the
//! token can serve directly as the `query` field of a
//! [`sc_core::QueryKey`].

use sc_core::{FigureId, PointStat};
use sc_policy::PolicySpec;
use sc_telemetry::corruption::DataQualityProfile;

/// One reliability sub-query (`rel:<name>`): each replays the frozen
/// trace through the failure-injected event loop and renders one
/// figure of the reliability family. Heavy like the policy arms, so
/// the memo cache carries repeat requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RelQuery {
    /// Per-size-class ETTF/ETTR/failure-rate table (`rel:summary`).
    Summary,
    /// Goodput frontier across MTBF settings (`rel:frontier`).
    Frontier,
    /// Young/Daly checkpoint-interval sweep (`rel:sweep`).
    Sweep,
}

impl RelQuery {
    /// Every reliability sub-query, in token order.
    pub const ALL: [RelQuery; 3] = [RelQuery::Summary, RelQuery::Frontier, RelQuery::Sweep];

    /// The token suffix naming this sub-query.
    pub fn name(&self) -> &'static str {
        match self {
            RelQuery::Summary => "summary",
            RelQuery::Frontier => "frontier",
            RelQuery::Sweep => "sweep",
        }
    }

    /// Parses a [`RelQuery::name`] suffix.
    pub fn parse(s: &str) -> Option<RelQuery> {
        RelQuery::ALL.iter().copied().find(|r| r.name() == s)
    }
}

/// One question the service can answer about its frozen world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// A headline scalar (`point:<stat>`), cheap enough to flood.
    Point(PointStat),
    /// One rendered report figure (`fig:<name>`).
    Figure(FigureId),
    /// A policy A/B what-if (`ab:<policy>`): replay the frozen trace
    /// through both arms and render the delta figure.
    PolicyAb(PolicySpec),
    /// A data-quality what-if (`dq:<profile>`): corrupt the frozen
    /// dataset, re-ingest, and render the recovery report.
    DataQuality(DataQualityProfile),
    /// A reliability what-if (`rel:<name>`): replay the frozen trace
    /// under the failure model and render one reliability figure.
    Reliability(RelQuery),
}

impl Query {
    /// The canonical token naming this query — also its cache address.
    pub fn token(&self) -> String {
        match self {
            Query::Point(p) => format!("point:{}", p.name()),
            Query::Figure(id) => format!("fig:{}", id.name()),
            Query::PolicyAb(spec) => format!("ab:{}", spec.label()),
            Query::DataQuality(profile) => format!("dq:{}", profile.label()),
            Query::Reliability(r) => format!("rel:{}", r.name()),
        }
    }

    /// Parses a [`Query::token`] string.
    ///
    /// # Errors
    ///
    /// Returns a message naming the expected grammar when the token has
    /// an unknown prefix or an unknown name under a valid prefix.
    pub fn parse(s: &str) -> Result<Query, String> {
        if let Some(name) = s.strip_prefix("point:") {
            return PointStat::parse(name)
                .map(Query::Point)
                .ok_or_else(|| format!("unknown point statistic {name:?}"));
        }
        if let Some(name) = s.strip_prefix("fig:") {
            return FigureId::parse(name)
                .map(Query::Figure)
                .ok_or_else(|| format!("unknown figure {name:?}"));
        }
        if let Some(name) = s.strip_prefix("ab:") {
            return PolicySpec::parse(name)
                .map(Query::PolicyAb)
                .map_err(|e| format!("query {s:?}: {e}"));
        }
        if let Some(name) = s.strip_prefix("dq:") {
            return DataQualityProfile::parse(name)
                .map(Query::DataQuality)
                .ok_or_else(|| format!("unknown data-quality profile {name:?}"));
        }
        if let Some(name) = s.strip_prefix("rel:") {
            return RelQuery::parse(name)
                .map(Query::Reliability)
                .ok_or_else(|| format!("unknown reliability query {name:?}"));
        }
        Err(format!(
            "unknown query {s:?}: expected point:<stat> | fig:<figure> | ab:<policy> | \
             dq:<profile> | rel:<summary|frontier|sweep>"
        ))
    }

    /// Every point-statistic query, in token order.
    pub fn point_queries() -> Vec<Query> {
        PointStat::ALL.iter().copied().map(Query::Point).collect()
    }

    /// Every figure query, in report order.
    pub fn figure_queries() -> Vec<Query> {
        FigureId::ALL.iter().copied().map(Query::Figure).collect()
    }

    /// The heavy what-if queries: the standard policy arms plus every
    /// non-trivial data-quality profile. These re-run simulation or
    /// ingest work per cold request, so they dominate cold latency.
    pub fn what_if_queries() -> Vec<Query> {
        let mut qs: Vec<Query> =
            PolicySpec::STANDARD_ARMS.iter().copied().map(Query::PolicyAb).collect();
        qs.extend(
            [
                DataQualityProfile::Supercloud,
                DataQualityProfile::Lossy,
                DataQualityProfile::Hostile,
            ]
            .map(Query::DataQuality),
        );
        qs
    }

    /// Every reliability query, in token order. Kept out of
    /// [`Query::standard_queries`] so the CI serve-leg digest (a fold
    /// over the standard surface) stays comparable across releases.
    pub fn reliability_queries() -> Vec<Query> {
        RelQuery::ALL.iter().copied().map(Query::Reliability).collect()
    }

    /// The full standard query surface: points, figures, then what-ifs.
    pub fn standard_queries() -> Vec<Query> {
        let mut qs = Query::point_queries();
        qs.extend(Query::figure_queries());
        qs.extend(Query::what_if_queries());
        qs
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_standard_query_token_round_trips() {
        for q in Query::standard_queries().into_iter().chain(Query::reliability_queries()) {
            let token = q.token();
            assert_eq!(Query::parse(&token), Ok(q), "{token}");
        }
    }

    #[test]
    fn parse_rejects_unknown_tokens() {
        assert!(Query::parse("fig:fig99").is_err());
        assert!(Query::parse("point:vibes").is_err());
        assert!(Query::parse("ab:turbo").is_err());
        assert!(Query::parse("dq:pristine").is_err());
        assert!(Query::parse("rel:ettf").is_err());
        assert!(Query::parse("median_run_min").is_err());
    }

    #[test]
    fn power_cap_queries_below_idle_draw_are_rejected() {
        let err = Query::parse("ab:powercap:1").unwrap_err();
        assert_eq!(
            err,
            "query \"ab:powercap:1\": powercap needs finite watts at or above the V100 idle \
             draw of 20 W, got 1"
        );
        let err = Query::parse("ab:powercap:x").unwrap_err();
        assert!(err.starts_with("query \"ab:powercap:x\": bad watts"), "{err}");
        assert!(!err.contains("--policy"), "{err}");
    }

    #[test]
    fn standard_surface_has_the_expected_shape() {
        assert_eq!(Query::point_queries().len(), PointStat::ALL.len());
        assert_eq!(Query::figure_queries().len(), FigureId::ALL.len());
        // 3 policy arms + 3 corruption profiles.
        assert_eq!(Query::what_if_queries().len(), 6);
        assert_eq!(Query::standard_queries().len(), PointStat::ALL.len() + FigureId::ALL.len() + 6);
    }
}
