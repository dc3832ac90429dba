//! Inputs made from the seed: queries, instances, churn deltas, and the
//! answer-set oracle the runs are checked against.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::process::{Command, Stdio};
use ucq_core::{Strategy, UcqEngine};
use ucq_query::{parse_ucq, Ucq};
use ucq_storage::{Instance, Relation, Tuple, Value};
use ucq_workloads::{by_id, random_instance, InstanceSpec};

/// Rows per relation at full size and under `smoke`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub fc_rows: usize,
    pub ext_rows: usize,
}

impl Sizes {
    /// The sizes every reported number is measured at. Both sit so that a
    /// cold request takes a few tens of milliseconds: a round of two seconds
    /// then holds the forty samples its tail needs. `fc_rows` stays above
    /// the library's `PAR_ROW_THRESHOLD` (16 384 rows), so its sharded
    /// builders engage.
    pub const FULL: Sizes = Sizes {
        fc_rows: 32_000,
        ext_rows: 8_000,
    };
    pub const SMOKE: Sizes = Sizes {
        fc_rows: 2_000,
        ext_rows: 500,
    };
}

/// Which of the two query shapes a dataset carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Theorem 4 / Algorithm 1: a union of two free-connex members.
    FreeConnex,
    /// Theorem 12: the paper's Example 2, tractable only as a union.
    Extension,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::FreeConnex => "fc",
            Shape::Extension => "ext",
        }
    }

    pub fn parse(s: &str) -> Option<Shape> {
        match s {
            "fc" => Some(Shape::FreeConnex),
            "ext" => Some(Shape::Extension),
            _ => None,
        }
    }

    pub fn strategy(self) -> Strategy {
        match self {
            Shape::FreeConnex => Strategy::Algorithm1,
            Shape::Extension => Strategy::UnionExtension,
        }
    }

    pub fn rows(self, sizes: Sizes) -> usize {
        match self {
            Shape::FreeConnex => sizes.fc_rows,
            Shape::Extension => sizes.ext_rows,
        }
    }
}

/// A query and an instance for it.
pub struct Dataset {
    pub shape: Shape,
    pub rows: usize,
    /// Values are drawn from `0..domain`.
    pub domain: i64,
    pub ucq: Ucq,
    pub instance: Instance,
}

pub const FC_QUERY: &str = "Q1(x, y, z) <- A(x, y), B(y, z)\nQ2(x, y, z) <- A(x, y), C(y, z)";

/// SplitMix64: the stream behind deltas and probe keys.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

impl Dataset {
    /// The dataset of `shape` for `seed` at `rows` rows per relation.
    pub fn generate(shape: Shape, seed: u64, rows: usize) -> Dataset {
        match shape {
            Shape::FreeConnex => {
                let ucq = parse_ucq(FC_QUERY).expect("the query text is well-formed");
                // Sparse: domain = rows, so each join key matches about one
                // row and preprocessing outweighs enumeration.
                let spec = InstanceSpec {
                    rows_per_relation: rows,
                    domain: (rows as i64).max(4),
                    seed,
                };
                let mut instance = random_instance(&ucq, &spec);
                // C takes every other row of B and keeps every other row of
                // its own: half of Q2's answers repeat Q1's, so Algorithm 1's
                // cross-member dedup fires, and both members contribute.
                let b = instance.get("B").expect("generated");
                let c = instance.get("C").expect("generated");
                let mut mixed = Relation::with_capacity(2, rows);
                for row in b.iter_rows().step_by(2) {
                    mixed.push_row(row);
                }
                for row in c.iter_rows().skip(1).step_by(2) {
                    mixed.push_row(row);
                }
                mixed.sort_dedup();
                instance.insert("C", mixed);
                Dataset {
                    shape,
                    rows,
                    domain: spec.domain,
                    ucq,
                    instance,
                }
            }
            Shape::Extension => {
                let ucq = by_id("example2").expect("catalog entry").ucq;
                let spec = InstanceSpec::scaled(rows, seed);
                let instance = random_instance(&ucq, &spec);
                Dataset {
                    shape,
                    rows,
                    domain: spec.domain,
                    ucq,
                    instance,
                }
            }
        }
    }

    /// Classifies the query and checks it takes the arm this dataset exists
    /// to exercise.
    pub fn engine(&self) -> UcqEngine {
        let engine = UcqEngine::new(self.ucq.clone());
        assert_eq!(
            engine.strategy(),
            self.shape.strategy(),
            "dataset {} must run its intended strategy",
            self.shape.name()
        );
        engine
    }
}

/// A 64-bit fingerprint of an answer (SipHash with fixed keys: the same in
/// every process).
pub fn fingerprint(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// An answer set as sorted fingerprints: 8 bytes an answer, so holding it
/// does not drown the program's own memory in `peak_rss_mb`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerSet {
    sorted: Vec<u64>,
}

impl AnswerSet {
    pub fn from_fingerprints(mut fps: Vec<u64>) -> AnswerSet {
        fps.sort_unstable();
        AnswerSet { sorted: fps }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn has_duplicates(&self) -> bool {
        self.sorted.windows(2).any(|w| w[0] == w[1])
    }

    pub fn contains(&self, fp: u64) -> bool {
        self.sorted.binary_search(&fp).is_ok()
    }
}

/// The naive answer set of `engine` over `instance`, duplicates kept: the
/// materializing hash-join baseline, which goes through none of CDY,
/// Algorithm 1, the Theorem 12 pipeline or the Cheater.
pub fn naive_answer_set(engine: &UcqEngine, instance: &Instance) -> AnswerSet {
    let answers = engine
        .enumerate_naive(instance)
        .expect("the naive baseline evaluates every query");
    AnswerSet::from_fingerprints(answers.iter().map(fingerprint).collect())
}

/// Body of the `oracle` subcommand: writes the naive answer set of one
/// dataset to stdout as little-endian fingerprints.
pub fn oracle_child(shape: Shape, seed: u64, rows: usize) -> std::io::Result<()> {
    let data = Dataset::generate(shape, seed, rows);
    let set = naive_answer_set(&data.engine(), &data.instance);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for fp in &set.sorted {
        out.write_all(&fp.to_le_bytes())?;
    }
    out.flush()
}

/// The oracle answer set for a dataset, computed in a child process: the
/// naive baseline materializes every answer, and in this process that
/// allocation would set the peak resident size the benchmark reports.
pub fn oracle(shape: Shape, seed: u64, rows: usize) -> AnswerSet {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let out = Command::new(exe)
        .args(["oracle", "--dataset", shape.name()])
        .args(["--seed", &seed.to_string(), "--rows", &rows.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the oracle child starts");
    assert!(out.status.success(), "the oracle child failed");
    let fps = out
        .stdout
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    AnswerSet::from_fingerprints(fps)
}

/// The deltas one churn cycle rotates into the relation that binds the head
/// variable `x` (`A`, or `R1` of Example 2). Every delta row carries an `x`
/// no other row has, so the deltas visible in a drained answer set say
/// which epoch served it.
pub struct ChurnPlan {
    /// The relation the deltas go into.
    pub rel: &'static str,
    pub deltas: Vec<Relation>,
    x_base: i64,
    delta_rows: usize,
}

/// What one churn round does to `A`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOp {
    /// Insert delta `i`.
    Insert(usize),
    /// Delete delta `i` (the oldest one still live).
    Delete(usize),
}

impl ChurnPlan {
    /// `rounds` rounds of churn at 1% of `data`'s rows per delta.
    pub fn new(data: &Dataset, seed: u64, rounds: usize) -> ChurnPlan {
        // The churned relation, and the one its second column joins.
        let (rel, partner) = match data.shape {
            Shape::FreeConnex => ("A", "B"),
            Shape::Extension => ("R1", "R2"),
        };
        let delta_rows = (data.rows / 100).max(2);
        let domain = data.domain as u64;
        let x_base = 1i64 << 40;
        let b = data.instance.get(partner).expect("generated");
        let mut rng = SplitMix(seed ^ 0xc4_75_12_07);
        let deltas = (0..rounds)
            .map(|d| {
                let mut rel = Relation::with_capacity(2, delta_rows);
                for i in 0..delta_rows {
                    let x = x_base + (d * delta_rows + i) as i64;
                    // The first row joins a partner row for certain, so
                    // every delta shows in the answers.
                    let y = if i == 0 {
                        b.row(rng.below(b.len() as u64) as usize)[0]
                    } else {
                        Value::Int(rng.below(domain) as i64)
                    };
                    rel.push_row(&[Value::Int(x), y]);
                }
                rel
            })
            .collect();
        ChurnPlan {
            rel,
            deltas,
            x_base,
            delta_rows,
        }
    }

    /// The schedule: every fourth round deletes the oldest live delta, the
    /// others insert the next one.
    pub fn ops(&self) -> Vec<ChurnOp> {
        let (mut next_insert, mut next_delete) = (0, 0);
        (0..self.deltas.len())
            .map(|round| {
                if round % 4 == 3 && next_delete < next_insert {
                    next_delete += 1;
                    ChurnOp::Delete(next_delete - 1)
                } else {
                    next_insert += 1;
                    ChurnOp::Insert(next_insert - 1)
                }
            })
            .collect()
    }

    /// The delta an answer's `x` belongs to, if any.
    pub fn delta_of(&self, answer: &Tuple) -> Option<usize> {
        match answer.values().first() {
            Some(Value::Int(x)) if *x >= self.x_base => {
                Some((*x - self.x_base) as usize / self.delta_rows)
            }
            _ => None,
        }
    }

    /// The deltas live after the first `epoch` ops, ascending.
    pub fn live_after(&self, epoch: usize) -> Vec<usize> {
        let mut live = Vec::new();
        for op in &self.ops()[..epoch] {
            match *op {
                ChurnOp::Insert(d) => live.push(d),
                ChurnOp::Delete(d) => live.retain(|&x| x != d),
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(data: &Dataset, rel: &str) -> Vec<Vec<Value>> {
        let rel = data.instance.get(rel).unwrap();
        rel.iter_rows().map(<[Value]>::to_vec).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_instance_and_another_seed_another() {
        for shape in [Shape::FreeConnex, Shape::Extension] {
            let a = Dataset::generate(shape, 11, 300);
            let b = Dataset::generate(shape, 11, 300);
            let c = Dataset::generate(shape, 12, 300);
            for rel in a.ucq.relation_names() {
                assert_eq!(rows_of(&a, rel), rows_of(&b, rel));
                assert_ne!(rows_of(&a, rel), rows_of(&c, rel));
            }
        }
    }

    #[test]
    fn both_members_of_the_free_connex_union_contribute() {
        let data = Dataset::generate(Shape::FreeConnex, 5, 400);
        let engine = data.engine();
        let all = naive_answer_set(&engine, &data.instance);
        assert!(!all.has_duplicates());
        for member in data.ucq.cqs() {
            let alone = UcqEngine::new(Ucq::single(member.clone()));
            let own = naive_answer_set(&alone, &data.instance);
            assert!(own.len() > 0, "member {} is empty", member.name());
            assert!(
                own.len() < all.len(),
                "member {} alone is the whole union",
                member.name()
            );
        }
    }

    #[test]
    fn churn_schedules_repeat_and_track_live_deltas() {
        let data = Dataset::generate(Shape::FreeConnex, 3, 400);
        let plan = ChurnPlan::new(&data, 3, 8);
        let again = ChurnPlan::new(&data, 3, 8);
        let other = ChurnPlan::new(&data, 4, 8);
        assert_eq!(plan.ops(), again.ops());
        assert_eq!(
            plan.ops(),
            vec![
                ChurnOp::Insert(0),
                ChurnOp::Insert(1),
                ChurnOp::Insert(2),
                ChurnOp::Delete(0),
                ChurnOp::Insert(3),
                ChurnOp::Insert(4),
                ChurnOp::Insert(5),
                ChurnOp::Delete(1),
            ]
        );
        assert_eq!(plan.live_after(0), Vec::<usize>::new());
        assert_eq!(plan.live_after(4), vec![1, 2]);
        assert_eq!(plan.live_after(8), vec![2, 3, 4, 5]);
        let rows = |p: &ChurnPlan| -> Vec<Vec<Value>> {
            p.deltas[0].iter_rows().map(<[Value]>::to_vec).collect()
        };
        assert_eq!(rows(&plan), rows(&again));
        assert_ne!(rows(&plan), rows(&other));
        // Each delta row's x maps back to its delta.
        for (d, delta) in plan.deltas.iter().enumerate() {
            for row in delta.iter_rows() {
                let answer = Tuple::from_row(&[row[0], row[1], Value::Int(0)]);
                assert_eq!(plan.delta_of(&answer), Some(d));
            }
        }
        let base = Tuple::from_row(&[Value::Int(7), Value::Int(8), Value::Int(9)]);
        assert_eq!(plan.delta_of(&base), None);
    }
}
