//! Loading real datasets from plain-text files.
//!
//! The synthetic generator is one producer of a [`TrustDataset`]; this
//! module is the other: it assembles a dataset from user-supplied parts
//! ([`TrustDataset::from_parts`]) or parses them from the simple text
//! formats real Ciao/Epinions-style dumps are distributed in:
//!
//! * **trust file** — one directed relation per line: `trustor trustee`
//!   (whitespace-separated 0-based user ids; `#`-prefixed comment lines
//!   and blank lines ignored);
//! * **ratings file** — one purchase per line: `user item rating`
//!   (`rating` in 1..=5), from which the same category-histogram features
//!   and attribute lists the generator produces are derived, given an
//!   `item → category` map file with lines `item category`.

use crate::{DataError, TrustDataset};
use ahntp_graph::DiGraph;
use ahntp_tensor::Tensor;

/// A parsed ratings record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rating {
    /// Rating user id.
    pub user: usize,
    /// Rated item id.
    pub item: usize,
    /// Star rating in 1..=5.
    pub rating: u8,
}

fn parse_lines<T>(
    text: &str,
    what: &str,
    mut parse: impl FnMut(&[&str]) -> Option<T>,
) -> Result<Vec<T>, DataError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match parse(&fields) {
            Some(v) => out.push(v),
            None => {
                return Err(DataError::Parse {
                    what: what.to_string(),
                    line: lineno + 1,
                    content: line.to_string(),
                })
            }
        }
    }
    Ok(out)
}

/// Parses a trust edge list (`trustor trustee` per line).
///
/// # Errors
///
/// Returns [`DataError::Parse`] on malformed lines.
pub fn parse_trust_edges(text: &str) -> Result<Vec<(usize, usize)>, DataError> {
    parse_lines(text, "trust edge", |f| match f {
        [a, b] => Some((a.parse().ok()?, b.parse().ok()?)),
        _ => None,
    })
}

/// Parses a ratings file (`user item rating` per line).
///
/// # Errors
///
/// Returns [`DataError::Parse`] on malformed lines or ratings outside 1..=5.
pub fn parse_ratings(text: &str) -> Result<Vec<Rating>, DataError> {
    parse_lines(text, "rating", |f| match f {
        [u, i, r] => {
            let rating: u8 = r.parse().ok()?;
            (1..=5).contains(&rating).then_some(Rating {
                user: u.parse().ok()?,
                item: i.parse().ok()?,
                rating,
            })
        }
        _ => None,
    })
}

/// Parses an item→category map (`item category` per line).
///
/// # Errors
///
/// Returns [`DataError::Parse`] on malformed lines.
pub fn parse_item_categories(text: &str) -> Result<Vec<(usize, usize)>, DataError> {
    parse_lines(text, "item category", |f| match f {
        [i, c] => Some((i.parse().ok()?, c.parse().ok()?)),
        _ => None,
    })
}

impl TrustDataset {
    /// Assembles a dataset from externally produced parts. This is the
    /// entry point for real data: bring your own graph, features, and
    /// attribute lists.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Shape`] when the parts disagree on the user
    /// count.
    pub fn from_parts(
        name: impl Into<String>,
        graph: DiGraph,
        features: Tensor,
        attributes: Vec<Vec<usize>>,
        n_items: usize,
        n_purchases: usize,
    ) -> Result<TrustDataset, DataError> {
        if features.rows() != graph.n() || attributes.len() != graph.n() {
            return Err(DataError::Shape(format!(
                "{} users in graph, {} feature rows, {} attribute lists",
                graph.n(),
                features.rows(),
                attributes.len()
            )));
        }
        let n = graph.n();
        let positives: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| graph.out_neighbors(u).into_iter().map(move |v| (u, v)))
            .collect();
        Ok(TrustDataset {
            name: name.into(),
            graph,
            features,
            attributes,
            communities: vec![Vec::new(); n],
            positives,
            n_items,
            n_purchases,
        })
    }

    /// Builds a dataset from text-format trust edges, ratings, and an
    /// item-category map, deriving the standard behavioural features
    /// (category histogram + activity summaries) and attribute lists
    /// (favourite categories).
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] on parse failures or inconsistent ids.
    pub fn from_text(
        name: impl Into<String>,
        trust_text: &str,
        ratings_text: &str,
        item_categories_text: &str,
    ) -> Result<TrustDataset, DataError> {
        let edges = parse_trust_edges(trust_text)?;
        let ratings = parse_ratings(ratings_text)?;
        let item_cats = parse_item_categories(item_categories_text)?;

        let n_users = edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(ratings.iter().map(|r| r.user))
            .max()
            .map_or(0, |m| m + 1);
        let n_items = item_cats
            .iter()
            .map(|&(i, _)| i)
            .chain(ratings.iter().map(|r| r.item))
            .max()
            .map_or(0, |m| m + 1);
        let n_categories = item_cats.iter().map(|&(_, c)| c).max().map_or(0, |m| m + 1);
        if n_users == 0 {
            return Err(DataError::Shape("no users found in input".into()));
        }

        let mut cat_of = vec![0usize; n_items];
        for &(i, c) in &item_cats {
            cat_of[i] = c;
        }
        for r in &ratings {
            if r.item >= n_items {
                return Err(DataError::Shape(format!(
                    "rating references item {} outside the category map",
                    r.item
                )));
            }
        }

        let graph =
            DiGraph::from_edges(n_users, &edges).map_err(|e| DataError::Shape(e.to_string()))?;

        // Same feature recipe as the generator: L1-normalised category
        // histogram + activity, generosity, spread, breadth.
        let d = n_categories + 4;
        let mut features = Tensor::zeros(n_users, d);
        let mut counts = vec![0usize; n_users];
        let mut sum = vec![0.0f32; n_users];
        let mut sumsq = vec![0.0f32; n_users];
        for r in &ratings {
            features.row_mut(r.user)[cat_of[r.item]] += 1.0;
            counts[r.user] += 1;
            sum[r.user] += f32::from(r.rating);
            sumsq[r.user] += f32::from(r.rating) * f32::from(r.rating);
        }
        let max_count = counts.iter().copied().max().unwrap_or(1).max(1) as f32;
        let mut attributes: Vec<Vec<usize>> = Vec::with_capacity(n_users);
        for u in 0..n_users {
            let c = counts[u] as f32;
            let row = features.row_mut(u);
            if c > 0.0 {
                for v in row[..n_categories].iter_mut() {
                    *v /= c;
                }
            }
            let mean = if c > 0.0 { sum[u] / c } else { 0.0 };
            let var = if c > 0.0 {
                (sumsq[u] / c - mean * mean).max(0.0)
            } else {
                0.0
            };
            row[n_categories] = c.ln_1p() / max_count.ln_1p();
            row[n_categories + 1] = mean / 5.0;
            row[n_categories + 2] = var.sqrt() / 2.0;
            let touched = row[..n_categories].iter().filter(|&&v| v > 0.0).count();
            row[n_categories + 3] = if n_categories > 0 {
                touched as f32 / n_categories as f32
            } else {
                0.0
            };
            // Attributes: top-2 purchased categories.
            let mut cats: Vec<usize> = (0..n_categories).collect();
            let hist: Vec<f32> = features.row(u)[..n_categories].to_vec();
            cats.sort_by(|&a, &b| hist[b].partial_cmp(&hist[a]).expect("finite histogram"));
            let attrs: Vec<usize> = cats
                .into_iter()
                .take(2)
                .filter(|&cidx| hist[cidx] > 0.0)
                .collect();
            attributes.push(if attrs.is_empty() { vec![0] } else { attrs });
        }

        let n_purchases = ratings.len();
        TrustDataset::from_parts(name, graph, features, attributes, n_items, n_purchases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRUST: &str = "# trustor trustee\n0 1\n1 2\n2 0\n\n3 0\n";
    const RATINGS: &str = "0 0 5\n0 1 4\n1 1 3\n2 2 5\n3 0 1\n";
    const CATS: &str = "0 0\n1 1\n2 0\n";

    #[test]
    fn parses_well_formed_files() {
        assert_eq!(
            parse_trust_edges(TRUST).expect("valid"),
            vec![(0, 1), (1, 2), (2, 0), (3, 0)]
        );
        assert_eq!(parse_ratings(RATINGS).expect("valid").len(), 5);
        assert_eq!(parse_item_categories(CATS).expect("valid").len(), 3);
    }

    #[test]
    fn rejects_malformed_lines_with_location() {
        let err = parse_trust_edges("0 1\nbogus line here\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(parse_ratings("0 0 9\n").is_err(), "rating out of range");
        assert!(parse_item_categories("1\n").is_err(), "missing field");
    }

    #[test]
    fn from_text_builds_a_consistent_dataset() {
        let ds = TrustDataset::from_text("mini", TRUST, RATINGS, CATS).expect("valid input");
        assert_eq!(ds.graph.n(), 4);
        assert_eq!(ds.positives.len(), 4);
        assert_eq!(ds.n_items, 3);
        assert_eq!(ds.n_purchases, 5);
        assert_eq!(ds.feature_dim(), 2 + 4);
        assert!(ds.features.all_finite());
        // User 0 bought cat 0 and cat 1 once each → histogram .5/.5.
        assert!((ds.features.get(0, 0) - 0.5).abs() < 1e-6);
        // Dataset is usable downstream: a split works.
        let split = ds.split(0.5, 0.25, 2, 1);
        assert!(!split.train.is_empty());
    }

    #[test]
    fn from_parts_validates_user_counts() {
        let g = DiGraph::from_edges(3, &[(0, 1)]).expect("valid");
        let bad = TrustDataset::from_parts("bad", g, Tensor::zeros(2, 4), vec![vec![0]; 3], 1, 0);
        assert!(matches!(bad, Err(DataError::Shape(_))));
    }
}
