//! The correctness oracle: every answer the engine returns is checked
//! against `sknn_core::plain_knn` over the plaintext of the table as it is
//! live at that moment.

use sknn_core::{plain_knn_records, squared_euclidean_distance, Table};
use std::collections::VecDeque;

/// The plaintext mirror of one dataset's live records, in physical
/// (append) order, each tagged with the stable index the engine assigned.
#[derive(Clone, Debug, Default)]
pub struct LiveTable {
    rows: VecDeque<(usize, Vec<u64>)>,
}

impl LiveTable {
    /// A mirror of a freshly registered table: stable index = row number.
    pub fn new(rows: &[Vec<u64>]) -> Self {
        LiveTable {
            rows: rows.iter().cloned().enumerate().collect(),
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Records appended at the given stable indices.
    pub fn append(&mut self, stable: &[usize], rows: &[Vec<u64>]) {
        for (&i, row) in stable.iter().zip(rows) {
            self.rows.push_back((i, row.clone()));
        }
    }

    /// Stable index of the oldest live record.
    pub fn oldest(&self) -> Option<usize> {
        self.rows.front().map(|(i, _)| *i)
    }

    /// Drops the oldest live record (after the engine tombstoned it).
    pub fn pop_oldest(&mut self) {
        self.rows.pop_front();
    }

    /// The live records as a plaintext table, in physical order.
    pub fn table(&self) -> Table {
        Table::new(self.rows.iter().map(|(_, r)| r.clone()).collect())
            .expect("the live table is never empty and rectangular")
    }
}

/// SkNN_b: the key holder breaks distance ties by physical position, as
/// `plain_knn` breaks them by row, so the answer must match exactly —
/// records and order.
pub fn check_basic(table: &Table, point: &[u64], k: usize, got: &[Vec<u64>]) -> Result<(), String> {
    let want = plain_knn_records(table, point, k);
    if got == want.as_slice() {
        Ok(())
    } else {
        Err(format!("SkNN_b answer {got:?} != plaintext kNN {want:?}"))
    }
}

/// SkNN_m: equidistant records may come back in either order (and a tie at
/// the k-th place may pick either record), so the check compares the
/// sorted distance lists, and requires every returned record to be a
/// distinct live record.
pub fn check_secure(
    table: &Table,
    point: &[u64],
    k: usize,
    got: &[Vec<u64>],
) -> Result<(), String> {
    let want = plain_knn_records(table, point, k);
    let dists = |rows: &[Vec<u64>]| {
        let mut d: Vec<u128> = rows
            .iter()
            .map(|r| squared_euclidean_distance(r, point))
            .collect();
        d.sort_unstable();
        d
    };
    if got.len() != k || dists(got) != dists(&want) {
        return Err(format!(
            "SkNN_m distances {:?} != plaintext kNN distances {:?}",
            dists(got),
            dists(&want)
        ));
    }
    // Multiset containment: each returned row consumes one live copy.
    let mut pool: Vec<&Vec<u64>> = table.records().iter().collect();
    for row in got {
        match pool.iter().position(|r| *r == row) {
            Some(i) => {
                pool.swap_remove(i);
            }
            None => return Err(format!("SkNN_m returned {row:?}, not a live record")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        // Distances from (0, 0): 4, 1, 4, 9, 1.
        Table::new(vec![
            vec![2, 0],
            vec![1, 0],
            vec![0, 2],
            vec![3, 0],
            vec![0, 1],
        ])
        .unwrap()
    }

    #[test]
    fn basic_requires_exact_index_tie_order() {
        let t = table();
        // Ties (1: rows 1 and 4; 4: rows 0 and 2) resolve by row number.
        let right = vec![vec![1, 0], vec![0, 1], vec![2, 0]];
        assert!(check_basic(&t, &[0, 0], 3, &right).is_ok());
        let swapped = vec![vec![0, 1], vec![1, 0], vec![2, 0]];
        assert!(check_basic(&t, &[0, 0], 3, &swapped).is_err());
        let other_tie = vec![vec![1, 0], vec![0, 1], vec![0, 2]];
        assert!(check_basic(&t, &[0, 0], 3, &other_tie).is_err());
    }

    #[test]
    fn secure_accepts_any_tie_resolution() {
        let t = table();
        for got in [
            vec![vec![1, 0], vec![0, 1], vec![2, 0]],
            vec![vec![0, 1], vec![1, 0], vec![0, 2]],
            vec![vec![0, 2], vec![0, 1], vec![1, 0]],
        ] {
            assert!(check_secure(&t, &[0, 0], 3, &got).is_ok(), "{got:?}");
        }
    }

    #[test]
    fn secure_rejects_wrong_distances_and_phantoms() {
        let t = table();
        // A farther record in place of a nearer one.
        assert!(check_secure(&t, &[0, 0], 2, &[vec![1, 0], vec![2, 0]]).is_err());
        // Right distances, but the same record twice.
        assert!(check_secure(&t, &[0, 0], 2, &[vec![1, 0], vec![1, 0]]).is_err());
        // Too few records.
        assert!(check_secure(&t, &[0, 0], 2, &[vec![1, 0]]).is_err());
        // Right distance, but a record that is not in the table.
        let small = Table::new(vec![vec![0, 0], vec![5, 5]]).unwrap();
        assert!(check_secure(&small, &[1, 0], 1, &[vec![0, 0]]).is_ok());
        assert!(check_secure(&small, &[1, 0], 1, &[vec![2, 0]]).is_err());
    }

    #[test]
    fn live_table_tracks_churn() {
        let mut live = LiveTable::new(&[vec![1], vec![2]]);
        live.append(&[7], &[vec![3]]);
        assert_eq!(live.oldest(), Some(0));
        live.pop_oldest();
        assert_eq!(live.len(), 2);
        assert_eq!(live.table().records(), &[vec![2], vec![3]]);
    }
}
