//! The enumerator abstraction.
//!
//! Enumeration algorithms in the `DelayClin` model have two phases: a
//! preprocessing phase (run by constructors) and an enumeration phase that
//! emits answers one at a time. [`Enumerator`] models the second phase;
//! unlike `Iterator` it is object-safe by construction here (fixed item
//! type) so pipelines can mix heterogeneous stages.

use ucq_storage::Tuple;

/// A pull-based producer of answer tuples.
pub trait Enumerator {
    /// Produces the next answer, or `None` when exhausted.
    fn next(&mut self) -> Option<Tuple>;

    /// Tells the producer that the caller means to pull at most `rows`
    /// more answers, so a producer that works ahead in blocks need not
    /// prepare more. A **hint, not a limit**: it is derived from a
    /// request (its answer cap), never enforced — pulling past it stays
    /// correct and still yields every answer, only without the
    /// read-ahead. Producers with nothing to save ignore it.
    fn expect_at_most(&mut self, _rows: usize) {}

    /// Appends up to `max` answers to `out` and returns how many. A return
    /// of `0` for `max > 0` means exhausted; a shorter positive return
    /// does not, so drain by calling until `0`. The default pulls
    /// [`Enumerator::next`] one answer at a time; a producer that decodes
    /// whole blocks writes a block straight into `out` instead.
    fn next_into(&mut self, out: &mut Vec<Tuple>, max: usize) -> usize {
        let start = out.len();
        while out.len() - start < max {
            match self.next() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out.len() - start
    }

    /// Drains everything into a vector (test/bench helper).
    fn collect_all(&mut self) -> Vec<Tuple>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while self.next_into(&mut out, usize::MAX) > 0 {}
        out
    }
}

/// Enumerates a pre-materialized vector.
#[derive(Debug, Clone)]
pub struct VecEnumerator {
    items: std::vec::IntoIter<Tuple>,
}

impl VecEnumerator {
    /// Wraps a vector of answers.
    pub fn new(items: Vec<Tuple>) -> VecEnumerator {
        VecEnumerator {
            items: items.into_iter(),
        }
    }
}

impl Enumerator for VecEnumerator {
    fn next(&mut self) -> Option<Tuple> {
        self.items.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Tuple {
        Tuple::from(&[x][..])
    }

    #[test]
    fn vec_enumerator_yields_in_order() {
        let mut e = VecEnumerator::new(vec![t(1), t(2)]);
        assert_eq!(e.next(), Some(t(1)));
        assert_eq!(e.next(), Some(t(2)));
        assert_eq!(e.next(), None);
        assert_eq!(e.next(), None, "stays exhausted");
    }

    #[test]
    fn default_next_into_appends_at_most_max() {
        let mut e = VecEnumerator::new((1..=5).map(t).collect());
        let mut out = vec![t(0)];
        assert_eq!(e.next_into(&mut out, 0), 0, "max 0 pulls nothing");
        assert_eq!(e.next_into(&mut out, 3), 3);
        assert_eq!(e.next_into(&mut out, 3), 2);
        assert_eq!(e.next_into(&mut out, 3), 0, "exhausted");
        assert_eq!(out, (0..=5).map(t).collect::<Vec<_>>());
    }
}
