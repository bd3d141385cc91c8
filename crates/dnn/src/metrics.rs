//! Classification metrics, including the true-positive / true-negative
//! rates that parameterize the paper's IMpJ application model (Table 1).

/// A confusion matrix over `k` classes.
#[derive(Clone, Debug)]
pub struct Confusion {
    k: usize,
    counts: Vec<u64>, // counts[truth * k + pred]
}

impl Confusion {
    /// An empty matrix over `k` classes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one class");
        Confusion {
            k,
            counts: vec![0; k * k],
        }
    }

    /// Records one prediction.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.k && pred < self.k, "class out of range");
        self.counts[truth * self.k + pred] += 1;
    }

    /// Total recorded examples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.k).map(|c| self.counts[c * self.k + c]).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// True-positive rate for the binary task "is it class `interesting`?"
    /// — `P(pred == interesting | truth == interesting)`, the paper's `tp`.
    ///
    /// Returns 1.0 when no positive examples were recorded.
    pub fn tp_rate(&self, interesting: usize) -> f64 {
        assert!(interesting < self.k, "class out of range");
        let row = &self.counts[interesting * self.k..(interesting + 1) * self.k];
        let pos: u64 = row.iter().sum();
        if pos == 0 {
            1.0
        } else {
            row[interesting] as f64 / pos as f64
        }
    }

    /// True-negative rate for the binary task — `P(pred != interesting |
    /// truth != interesting)`, the paper's `tn`.
    ///
    /// Returns 1.0 when no negative examples were recorded.
    pub fn tn_rate(&self, interesting: usize) -> f64 {
        assert!(interesting < self.k, "class out of range");
        let mut neg = 0u64;
        let mut correct_neg = 0u64;
        for truth in 0..self.k {
            if truth == interesting {
                continue;
            }
            for pred in 0..self.k {
                let n = self.counts[truth * self.k + pred];
                neg += n;
                if pred != interesting {
                    correct_neg += n;
                }
            }
        }
        if neg == 0 {
            1.0
        } else {
            correct_neg as f64 / neg as f64
        }
    }

    /// Count of `(truth, pred)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn count(&self, truth: usize, pred: usize) -> u64 {
        assert!(truth < self.k && pred < self.k, "class out of range");
        self.counts[truth * self.k + pred]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Confusion {
        // 3 classes; class 1 is "interesting".
        let mut c = Confusion::new(3);
        // truth 0: 8 correct, 2 predicted as 1 (false positives).
        for _ in 0..8 {
            c.record(0, 0);
        }
        for _ in 0..2 {
            c.record(0, 1);
        }
        // truth 1: 9 correct, 1 missed to class 2 (false negative).
        for _ in 0..9 {
            c.record(1, 1);
        }
        c.record(1, 2);
        // truth 2: 10 correct.
        for _ in 0..10 {
            c.record(2, 2);
        }
        c
    }

    #[test]
    fn accuracy_counts_diagonal() {
        let c = sample();
        assert_eq!(c.total(), 30);
        assert!((c.accuracy() - 27.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn tp_rate_is_recall_of_interesting_class() {
        let c = sample();
        assert!((c.tp_rate(1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn tn_rate_counts_non_interesting_correctly_rejected() {
        let c = sample();
        // Negatives: 20 samples (classes 0 and 2); 2 were predicted as class
        // 1 ⇒ tn = 18/20.
        assert!((c.tn_rate(1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rates_default_to_one() {
        let c = Confusion::new(2);
        assert_eq!(c.tp_rate(0), 1.0);
        assert_eq!(c.tn_rate(0), 1.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn count_accessor() {
        let c = sample();
        assert_eq!(c.count(0, 1), 2);
        assert_eq!(c.count(1, 2), 1);
    }
}
