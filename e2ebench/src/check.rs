//! Answer checking against the serial oracle.

use aets_common::Timestamp;
use aets_memtable::MemDb;
use aets_replay::{eval_spec, OutputKind, QueryOutput, QuerySpec};

/// Compares a served answer with the oracle's answer to the same specs
/// at the same `qts`. Equality is exact: both sides scan the same rows in
/// key order, so even float sums agree bit for bit.
pub fn compare(live: &[QueryOutput], want: &[QueryOutput]) -> Result<(), String> {
    if live.len() != want.len() {
        return Err(format!("{} outputs served, {} expected", live.len(), want.len()));
    }
    for (i, (l, w)) in live.iter().zip(want).enumerate() {
        if !same(l, w) {
            return Err(format!("spec {i}: served {l:?}, oracle {w:?}"));
        }
    }
    Ok(())
}

fn same(a: &QueryOutput, b: &QueryOutput) -> bool {
    match (a, b) {
        // Bit equality: a NaN equals itself, and 0.0 differs from -0.0.
        (QueryOutput::Aggregate(Some(x)), QueryOutput::Aggregate(Some(y))) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// The oracle's answers to `specs` at `qts`.
pub fn oracle_answer(oracle: &MemDb, specs: &[QuerySpec], qts: Timestamp) -> Vec<QueryOutput> {
    specs.iter().map(|s| eval_spec(oracle, s, qts)).collect()
}

/// Rows `spec` visits at `qts`: the count of its key range and filters.
pub fn rows_visited(db: &MemDb, spec: &QuerySpec, qts: Timestamp) -> u64 {
    let mut count = spec.clone();
    count.output = OutputKind::Count;
    match eval_spec(db, &count, qts) {
        QueryOutput::Count(n) => n as u64,
        _ => unreachable!("a count spec yields a count"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aets_common::{ColumnId, RowKey, TableId, Value};
    use aets_memtable::{Aggregate, Version};

    fn db() -> MemDb {
        let db = MemDb::new(1);
        for k in 0..10u64 {
            db.table(TableId::new(0)).apply_version(
                RowKey::new(k),
                Version {
                    txn_id: aets_common::TxnId::new(k + 1),
                    commit_ts: Timestamp::from_micros(10 * (k + 1)),
                    op: aets_memtable::OpType::Insert,
                    cols: vec![(ColumnId::new(0), Value::Float(k as f64 + 0.5))],
                },
            );
        }
        db
    }

    fn specs() -> Vec<QuerySpec> {
        let t = TableId::new(0);
        vec![
            QuerySpec::count(t),
            QuerySpec::aggregate(t, ColumnId::new(0), Aggregate::Sum)
                .keys(RowKey::new(2), RowKey::new(6)),
        ]
    }

    #[test]
    fn the_oracle_agrees_with_itself() {
        let db = db();
        let qts = Timestamp::from_micros(55);
        let want = oracle_answer(&db, &specs(), qts);
        assert_eq!(want[0], QueryOutput::Count(5));
        assert!(compare(&want, &want).is_ok());
    }

    #[test]
    fn a_wrong_count_is_rejected() {
        let db = db();
        let qts = Timestamp::from_micros(55);
        let want = oracle_answer(&db, &specs(), qts);
        let mut live = want.clone();
        live[0] = QueryOutput::Count(6);
        assert!(compare(&live, &want).is_err());
    }

    #[test]
    fn a_slightly_wrong_sum_is_rejected() {
        let db = db();
        let qts = Timestamp::from_micros(1_000);
        let want = oracle_answer(&db, &specs(), qts);
        let QueryOutput::Aggregate(Some(sum)) = want[1] else { panic!("sum expected") };
        let mut live = want.clone();
        live[1] = QueryOutput::Aggregate(Some(f64::from_bits(sum.to_bits() + 1)));
        assert!(compare(&live, &want).is_err());
    }

    #[test]
    fn an_answer_at_another_snapshot_is_rejected() {
        let db = db();
        let want = oracle_answer(&db, &specs(), Timestamp::from_micros(55));
        let stale = oracle_answer(&db, &specs(), Timestamp::from_micros(45));
        assert!(compare(&stale, &want).is_err());
    }

    #[test]
    fn a_missing_output_is_rejected() {
        let db = db();
        let want = oracle_answer(&db, &specs(), Timestamp::from_micros(55));
        assert!(compare(&want[..1], &want).is_err());
    }
}
