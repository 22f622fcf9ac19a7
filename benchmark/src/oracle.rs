//! Independent oracles: tolerance checks against reference outputs, and a
//! scalar `f32` evaluator for the generated pointwise expressions.

use dfg_core::{Engine, ExecReport, FieldSet, Workload};

use crate::stats::Rng;

/// Relative bound on a derived value, as a share of the largest reference
/// magnitude (the bound the repository's integration tests use). Fused and
/// staged Q-criterion differ from the hand-written kernel by ~3e-7.
const TOLERANCE: f32 = 1e-4;

/// Name of the field each paper expression binds last.
pub fn output_name(workload: Workload) -> &'static str {
    match workload {
        Workload::VelocityMagnitude => "v_mag",
        Workload::VorticityMagnitude => "w_mag",
        Workload::QCriterion => "q_crit",
    }
}

/// The hand-written reference kernel's output for `workload` on `fields`.
pub fn reference(engine: &mut Engine, workload: Workload, fields: &FieldSet) -> Vec<f32> {
    engine
        .run_reference(workload, fields)
        .expect("reference kernel runs on generated inputs")
        .field
        .expect("real mode returns data")
        .data
}

/// What the device model says about one call or cycle: modeled device
/// seconds (as bits), high-water mark and Table II counts. Repeating the
/// same operation must repeat it exactly.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ModelSig {
    pub device_s: u64,
    pub high_water: u64,
    pub table2: (usize, usize, usize),
}

impl ModelSig {
    pub fn of(r: &ExecReport) -> Self {
        ModelSig {
            device_s: r.device_seconds().to_bits(),
            high_water: r.high_water_bytes(),
            table2: r.table2_row(),
        }
    }

    pub fn peak_mib(&self) -> f64 {
        self.high_water as f64 / (1 << 20) as f64
    }

    /// Human-readable form for the report.
    pub fn describe(&self) -> String {
        format!(
            "Table II {:?} model_device_s {} device_peak_mib {}",
            self.table2,
            f64::from_bits(self.device_s),
            self.peak_mib()
        )
    }
}

/// Every value of `got` within `TOLERANCE × max|want|` of `want`.
pub fn check_close(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} values, expected {}", got.len(), want.len()));
    }
    let scale = want.iter().fold(1e-6f32, |a, &x| a.max(x.abs()));
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = (g - w).abs();
        if err.is_nan() || err > TOLERANCE * scale {
            return Err(format!("value {i} is {g}, expected {w} (scale {scale})"));
        }
    }
    Ok(())
}

/// A reported sum of the field within `TOLERANCE × Σ|want|` of the
/// oracle's sum.
pub fn check_sum(got: f64, want: &[f32]) -> Result<(), String> {
    let sum: f64 = want.iter().map(|&v| v as f64).sum();
    let l1: f64 = want.iter().map(|&v| (v as f64).abs()).sum();
    if (got - sum).abs() <= TOLERANCE as f64 * l1 + 1e-6 {
        Ok(())
    } else {
        Err(format!("checksum {got}, expected {sum}"))
    }
}

/// Input fields a generated expression may read, in `Leaf` index order.
pub const LEAVES: [&str; 6] = ["u", "v", "w", "x", "y", "z"];

#[derive(Clone, Copy)]
enum Un {
    Sin,
    Cos,
    Abs,
}

#[derive(Clone, Copy)]
enum Bin {
    Add,
    Sub,
    Mul,
    Min,
    Max,
}

enum Node {
    Leaf(usize),
    Const(f32),
    Un(Un, Box<Node>),
    Bin(Bin, Box<Node>, Box<Node>),
}

/// A seeded pointwise expression: a balanced sum of `terms` products of
/// input fields, with constants that are exact in `f32` and `f64`.
pub struct GenExpr {
    pub source: String,
    pub terms: usize,
    root: Node,
}

impl GenExpr {
    pub fn generate(rng: &mut Rng, terms: usize) -> GenExpr {
        let parts: Vec<Node> = (0..terms).map(|_| term(rng)).collect();
        let root = balanced_sum(rng, parts);
        let mut source = String::from("g = ");
        render(&root, &mut source);
        source.push('\n');
        GenExpr {
            source,
            terms,
            root,
        }
    }

    /// Evaluate over `inputs` (indexed like [`LEAVES`]) in blocks that stay
    /// cache-resident.
    pub fn eval(&self, inputs: &[&[f32]; 6]) -> Vec<f32> {
        const BLOCK: usize = 2048;
        let n = inputs[0].len();
        let mut out = Vec::with_capacity(n);
        let mut start = 0;
        while start < n {
            let end = (start + BLOCK).min(n);
            out.extend_from_slice(&eval_block(&self.root, inputs, start, end));
            start = end;
        }
        out
    }
}

fn leaf(rng: &mut Rng) -> Node {
    Node::Leaf(rng.range(0, LEAVES.len() - 1))
}

fn factor(rng: &mut Rng) -> Node {
    match rng.range(0, 9) {
        0..=4 => leaf(rng),
        5 => Node::Un(Un::Sin, Box::new(leaf(rng))),
        6 => Node::Un(Un::Cos, Box::new(leaf(rng))),
        7 => Node::Un(Un::Abs, Box::new(leaf(rng))),
        8 => Node::Bin(Bin::Min, Box::new(leaf(rng)), Box::new(leaf(rng))),
        _ => Node::Bin(Bin::Max, Box::new(leaf(rng)), Box::new(leaf(rng))),
    }
}

fn term(rng: &mut Rng) -> Node {
    // Multiples of 1/8 up to 2 are exact in both f32 and f64, so the
    // server's parse and this evaluator see the same constant.
    let c = Node::Const(rng.range(1, 16) as f32 / 8.0);
    let t = Node::Bin(Bin::Mul, Box::new(c), Box::new(factor(rng)));
    if rng.chance(0.5) {
        Node::Bin(Bin::Mul, Box::new(t), Box::new(factor(rng)))
    } else {
        t
    }
}

/// Pairwise sum, so depth grows with log(terms) and register pressure
/// stays low.
fn balanced_sum(rng: &mut Rng, mut parts: Vec<Node>) -> Node {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => {
                    let op = if rng.chance(0.5) { Bin::Add } else { Bin::Sub };
                    next.push(Node::Bin(op, Box::new(a), Box::new(b)));
                }
                None => next.push(a),
            }
        }
        parts = next;
    }
    parts.pop().expect("at least one term")
}

fn render(node: &Node, out: &mut String) {
    match node {
        Node::Leaf(i) => out.push_str(LEAVES[*i]),
        Node::Const(c) => out.push_str(&format!("{}", *c as f64)),
        Node::Un(op, a) => {
            out.push_str(match op {
                Un::Sin => "sin(",
                Un::Cos => "cos(",
                Un::Abs => "abs(",
            });
            render(a, out);
            out.push(')');
        }
        Node::Bin(op @ (Bin::Min | Bin::Max), a, b) => {
            out.push_str(if matches!(op, Bin::Min) {
                "min("
            } else {
                "max("
            });
            render(a, out);
            out.push_str(", ");
            render(b, out);
            out.push(')');
        }
        Node::Bin(op, a, b) => {
            out.push('(');
            render(a, out);
            out.push_str(match op {
                Bin::Add => " + ",
                Bin::Sub => " - ",
                _ => " * ",
            });
            render(b, out);
            out.push(')');
        }
    }
}

fn eval_block(node: &Node, inputs: &[&[f32]; 6], start: usize, end: usize) -> Vec<f32> {
    match node {
        Node::Leaf(i) => inputs[*i][start..end].to_vec(),
        Node::Const(c) => vec![*c; end - start],
        Node::Un(op, a) => {
            let mut v = eval_block(a, inputs, start, end);
            for x in &mut v {
                *x = match op {
                    Un::Sin => x.sin(),
                    Un::Cos => x.cos(),
                    Un::Abs => x.abs(),
                };
            }
            v
        }
        Node::Bin(op, a, b) => {
            let mut va = eval_block(a, inputs, start, end);
            let vb = eval_block(b, inputs, start, end);
            for (x, &y) in va.iter_mut().zip(&vb) {
                *x = match op {
                    Bin::Add => *x + y,
                    Bin::Sub => *x - y,
                    Bin::Mul => *x * y,
                    Bin::Min => x.min(y),
                    Bin::Max => x.max(y),
                };
            }
            va
        }
    }
}
