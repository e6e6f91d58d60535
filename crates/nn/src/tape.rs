//! Dynamic reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse, accumulating gradients into
//! each node and finally into the [`ParamStore`]. Building the graph per step
//! keeps the engine flexible enough for the paper's composite architectures
//! (per-distance decoder fan-out, VAE reparameterization, loss mixtures)
//! without a static-graph compiler.
//!
//! Gradient correctness for every op is checked against central finite
//! differences in this module's tests.

use crate::kernels::Parallelism;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Op {
    /// Constant leaf (inputs, targets, masks).
    Input,
    /// Trainable leaf; gradients flow back into the store.
    Param(ParamId),
    /// `a @ b`
    MatMul(usize, usize),
    /// `a + broadcast_rows(b)` where `b` is `1 x m`.
    AddRow(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    /// Element-wise product.
    Mul(usize, usize),
    /// `a ⊙ broadcast_rows(r)` where `r` is `1 x m`.
    MulRow(usize, usize),
    /// `a ⊙ broadcast_cols(c)` where `c` is `n x 1`.
    MulCol(usize, usize),
    Scale(usize, f32),
    AddScalar(usize, #[allow(dead_code)] f32),
    Relu(usize),
    Elu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Softplus(usize),
    Exp(usize),
    /// `ln(1 + x)`, defined for `x > -1`; used by MSLE.
    Ln1p(usize),
    /// `ln(x + eps)`; used by binary cross-entropy.
    LnEps(usize, f32),
    Square(usize),
    /// Element-wise `1/x`.
    Recip(usize),
    /// Row sums: `n x m` → `n x 1`.
    RowSums(usize),
    SumAll(usize),
    MeanAll(usize),
    /// Horizontal concatenation; `(parent, col_offset)` pairs.
    HConcat(Vec<(usize, usize)>),
    SliceCols(usize, usize, usize),
    SliceRows(usize, usize, usize),
    /// Replicates a `1 x m` row `n` times.
    BroadcastRow(usize, #[allow(dead_code)] usize),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// Reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Worker budget for the matrix products recorded on (and
    /// back-propagated through) this tape. Threaded kernels are bit-identical
    /// to the scalar ones, so this changes wall clock, never results.
    par: Parallelism,
}

impl Tape {
    pub fn new() -> Self {
        Tape::default()
    }

    /// A tape whose matmul forward/backward kernels may use `par` workers.
    pub fn with_budget(par: Parallelism) -> Self {
        Tape {
            nodes: Vec::new(),
            par,
        }
    }

    /// The configured kernel parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Number of recorded nodes (diagnostic).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`], if any reached it.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Records a constant leaf.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Input)
    }

    /// Records a trainable leaf by copying the parameter's current value.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .matmul_with(&self.nodes[b.0].value, self.par);
        self.push(value, Op::MatMul(a.0, b.0))
    }

    /// `a + bias` where `bias` is a `1 x m` row broadcast over `a`'s rows.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (am, bm) = (&self.nodes[a.0].value, &self.nodes[bias.0].value);
        assert_eq!(bm.rows(), 1, "add_row bias must be a row vector");
        assert_eq!(am.cols(), bm.cols(), "add_row width mismatch");
        let mut value = am.clone();
        for r in 0..value.rows() {
            let row = value.row_mut(r);
            for (v, &b) in row.iter_mut().zip(bm.row(0)) {
                *v += b;
            }
        }
        self.push(value, Op::AddRow(a.0, bias.0))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(value, Op::Add(a.0, b.0))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x - y);
        self.push(value, Op::Sub(a.0, b.0))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.nodes[a.0]
            .value
            .zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(value, Op::Mul(a.0, b.0))
    }

    /// `a ⊙ r` with `r` a `1 x m` row broadcast over rows.
    pub fn mul_row(&mut self, a: Var, r: Var) -> Var {
        let (am, rm) = (&self.nodes[a.0].value, &self.nodes[r.0].value);
        assert_eq!(rm.rows(), 1, "mul_row weight must be a row vector");
        assert_eq!(am.cols(), rm.cols(), "mul_row width mismatch");
        let mut value = am.clone();
        for i in 0..value.rows() {
            let row = value.row_mut(i);
            for (v, &w) in row.iter_mut().zip(rm.row(0)) {
                *v *= w;
            }
        }
        self.push(value, Op::MulRow(a.0, r.0))
    }

    /// `a ⊙ c` with `c` an `n x 1` column broadcast over columns.
    pub fn mul_col(&mut self, a: Var, c: Var) -> Var {
        let (am, cm) = (&self.nodes[a.0].value, &self.nodes[c.0].value);
        assert_eq!(cm.cols(), 1, "mul_col weight must be a column vector");
        assert_eq!(am.rows(), cm.rows(), "mul_col height mismatch");
        let mut value = am.clone();
        for i in 0..value.rows() {
            let w = cm.get(i, 0);
            for v in value.row_mut(i) {
                *v *= w;
            }
        }
        self.push(value, Op::MulCol(a.0, c.0))
    }

    pub fn scale(&mut self, a: Var, k: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| k * x);
        self.push(value, Op::Scale(a.0, k))
    }

    pub fn add_scalar(&mut self, a: Var, k: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| x + k);
        self.push(value, Op::AddScalar(a.0, k))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push(value, Op::Relu(a.0))
    }

    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        let value = self.nodes[a.0]
            .value
            .map(|x| if x > 0.0 { x } else { alpha * (x.exp() - 1.0) });
        self.push(value, Op::Elu(a.0, alpha))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(stable_sigmoid);
        self.push(value, Op::Sigmoid(a.0))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(f32::tanh);
        self.push(value, Op::Tanh(a.0))
    }

    /// `softplus(x) = ln(1 + e^x)` — smooth non-negative reparameterization,
    /// used by the monotone baseline's weight constraints.
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(stable_softplus);
        self.push(value, Op::Softplus(a.0))
    }

    pub fn exp(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.clamp(-30.0, 30.0).exp());
        self.push(value, Op::Exp(a.0))
    }

    pub fn ln1p(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x.max(-0.999_999).ln_1p());
        self.push(value, Op::Ln1p(a.0))
    }

    pub fn ln_eps(&mut self, a: Var, eps: f32) -> Var {
        let value = self.nodes[a.0].value.map(|x| (x + eps).ln());
        self.push(value, Op::LnEps(a.0, eps))
    }

    pub fn square(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| x * x);
        self.push(value, Op::Square(a.0))
    }

    /// Element-wise reciprocal `1/x`. Inputs must be bounded away from zero
    /// (e.g. softmax denominators, which are ≥ 1 term of `exp`).
    pub fn recip(&mut self, a: Var) -> Var {
        let value = self.nodes[a.0].value.map(|x| 1.0 / x);
        self.push(value, Op::Recip(a.0))
    }

    /// Row sums as an `n x 1` column vector.
    pub fn row_sums(&mut self, a: Var) -> Var {
        let src = &self.nodes[a.0].value;
        let mut value = Matrix::zeros(src.rows(), 1);
        for r in 0..src.rows() {
            value.set(r, 0, src.row(r).iter().sum());
        }
        self.push(value, Op::RowSums(a.0))
    }

    /// Sum of all elements as a `1 x 1` matrix.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.sum()]);
        self.push(value, Op::SumAll(a.0))
    }

    /// Mean of all elements as a `1 x 1` matrix.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.mean()]);
        self.push(value, Op::MeanAll(a.0))
    }

    /// Horizontal concatenation of equally-tall matrices.
    pub fn hconcat(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Matrix::hconcat(&mats);
        let mut offset = 0;
        let mut parents = Vec::with_capacity(parts.len());
        for v in parts {
            parents.push((v.0, offset));
            offset += self.nodes[v.0].value.cols();
        }
        self.push(value, Op::HConcat(parents))
    }

    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let value = self.nodes[a.0].value.slice_cols(start, end);
        self.push(value, Op::SliceCols(a.0, start, end))
    }

    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert!(start <= end && end <= src.rows(), "slice_rows out of range");
        let mut value = Matrix::zeros(end - start, src.cols());
        for r in start..end {
            value.row_mut(r - start).copy_from_slice(src.row(r));
        }
        self.push(value, Op::SliceRows(a.0, start, end))
    }

    /// Replicates a `1 x m` row vector into an `n x m` matrix.
    pub fn broadcast_row(&mut self, a: Var, n: usize) -> Var {
        let src = &self.nodes[a.0].value;
        assert_eq!(src.rows(), 1, "broadcast_row needs a row vector");
        let mut value = Matrix::zeros(n, src.cols());
        for r in 0..n {
            value.row_mut(r).copy_from_slice(src.row(0));
        }
        self.push(value, Op::BroadcastRow(a.0, n))
    }

    fn accumulate(&mut self, idx: usize, delta: Matrix) {
        match &mut self.nodes[idx].grad {
            Some(g) => g.axpy(1.0, &delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Back-propagates from a scalar `loss` node, writing parameter gradients
    /// into `store`. The tape can be dropped afterwards; gradients persist in
    /// the store until `zero_grads`.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "loss must be scalar"
        );
        self.nodes[loss.0].grad = Some(Matrix::full(1, 1, 1.0));

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            // Deltas are computed with immutable borrows, then accumulated.
            let mut deltas: Vec<(usize, Matrix)> = Vec::new();
            match &self.nodes[i].op {
                Op::Input => {}
                Op::Param(id) => store.accumulate_grad(*id, &grad),
                Op::MatMul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    deltas.push((*a, grad.matmul_t_with(bv, self.par)));
                    deltas.push((*b, av.t_matmul_with(&grad, self.par)));
                }
                Op::AddRow(a, b) => {
                    deltas.push((*b, grad.col_sums()));
                    deltas.push((*a, grad.clone()));
                }
                Op::Add(a, b) => {
                    deltas.push((*a, grad.clone()));
                    deltas.push((*b, grad.clone()));
                }
                Op::Sub(a, b) => {
                    deltas.push((*a, grad.clone()));
                    deltas.push((*b, grad.map(|g| -g)));
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    deltas.push((*a, grad.zip(bv, |g, y| g * y)));
                    deltas.push((*b, grad.zip(av, |g, x| g * x)));
                }
                Op::MulRow(a, r) => {
                    let (av, rv) = (&self.nodes[*a].value, &self.nodes[*r].value);
                    let mut da = grad.clone();
                    for i in 0..da.rows() {
                        for (v, &w) in da.row_mut(i).iter_mut().zip(rv.row(0)) {
                            *v *= w;
                        }
                    }
                    let dr = grad.zip(av, |g, x| g * x).col_sums();
                    deltas.push((*a, da));
                    deltas.push((*r, dr));
                }
                Op::MulCol(a, c) => {
                    let (av, cv) = (&self.nodes[*a].value, &self.nodes[*c].value);
                    let mut da = grad.clone();
                    let mut dc = Matrix::zeros(cv.rows(), 1);
                    for i in 0..da.rows() {
                        let w = cv.get(i, 0);
                        let mut acc = 0.0;
                        for (v, &x) in da.row_mut(i).iter_mut().zip(av.row(i)) {
                            acc += *v * x;
                            *v *= w;
                        }
                        dc.set(i, 0, acc);
                    }
                    deltas.push((*a, da));
                    deltas.push((*c, dc));
                }
                Op::Scale(a, k) => deltas.push((*a, grad.map(|g| g * k))),
                Op::AddScalar(a, _) => deltas.push((*a, grad.clone())),
                Op::Relu(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, grad.zip(out, |g, y| if y > 0.0 { g } else { 0.0 })));
                }
                Op::Elu(a, alpha) => {
                    let out = &self.nodes[i].value;
                    let al = *alpha;
                    deltas.push((
                        *a,
                        grad.zip(out, move |g, y| if y > 0.0 { g } else { g * (y + al) }),
                    ));
                }
                Op::Sigmoid(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, grad.zip(out, |g, y| g * y * (1.0 - y))));
                }
                Op::Tanh(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, grad.zip(out, |g, y| g * (1.0 - y * y))));
                }
                Op::Softplus(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((*a, grad.zip(inp, |g, x| g * stable_sigmoid(x))));
                }
                Op::Exp(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, grad.zip(out, |g, y| g * y)));
                }
                Op::Ln1p(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((*a, grad.zip(inp, |g, x| g / (1.0 + x.max(-0.999_999)))));
                }
                Op::LnEps(a, eps) => {
                    let inp = &self.nodes[*a].value;
                    let e = *eps;
                    deltas.push((*a, grad.zip(inp, move |g, x| g / (x + e))));
                }
                Op::Square(a) => {
                    let inp = &self.nodes[*a].value;
                    deltas.push((*a, grad.zip(inp, |g, x| 2.0 * g * x)));
                }
                Op::Recip(a) => {
                    let out = &self.nodes[i].value;
                    deltas.push((*a, grad.zip(out, |g, y| -g * y * y)));
                }
                Op::RowSums(a) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..src.rows() {
                        let g = grad.get(r, 0);
                        da.row_mut(r).iter_mut().for_each(|v| *v = g);
                    }
                    deltas.push((*a, da));
                }
                Op::SumAll(a) => {
                    let src = &self.nodes[*a].value;
                    let g = grad.get(0, 0);
                    deltas.push((*a, Matrix::full(src.rows(), src.cols(), g)));
                }
                Op::MeanAll(a) => {
                    let src = &self.nodes[*a].value;
                    let g = grad.get(0, 0) / src.len().max(1) as f32;
                    deltas.push((*a, Matrix::full(src.rows(), src.cols(), g)));
                }
                Op::HConcat(parents) => {
                    for (p, off) in parents.clone() {
                        let w = self.nodes[p].value.cols();
                        deltas.push((p, grad.slice_cols(off, off + w)));
                    }
                }
                Op::SliceCols(a, start, end) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in 0..grad.rows() {
                        da.row_mut(r)[*start..*end].copy_from_slice(grad.row(r));
                    }
                    deltas.push((*a, da));
                }
                Op::SliceRows(a, start, end) => {
                    let src = &self.nodes[*a].value;
                    let mut da = Matrix::zeros(src.rows(), src.cols());
                    for r in *start..*end {
                        da.row_mut(r).copy_from_slice(grad.row(r - start));
                    }
                    deltas.push((*a, da));
                }
                Op::BroadcastRow(a, _) => deltas.push((*a, grad.col_sums())),
            }
            for (p, d) in deltas {
                self.accumulate(p, d);
            }
        }
    }
}

#[inline]
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[inline]
fn stable_softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;
    use rand::Rng;

    /// Central finite-difference gradient of `f` w.r.t. the single parameter.
    fn numeric_grad(store: &mut ParamStore, id: ParamId, f: &dyn Fn(&ParamStore) -> f32) -> Matrix {
        let eps = 1e-3;
        let shape = store.value(id).shape();
        let mut out = Matrix::zeros(shape.0, shape.1);
        for r in 0..shape.0 {
            for c in 0..shape.1 {
                let orig = store.value(id).get(r, c);
                store.value_mut(id).set(r, c, orig + eps);
                let hi = f(store);
                store.value_mut(id).set(r, c, orig - eps);
                let lo = f(store);
                store.value_mut(id).set(r, c, orig);
                out.set(r, c, (hi - lo) / (2.0 * eps));
            }
        }
        out
    }

    fn check_unary(name: &str, apply: impl Fn(&mut Tape, Var) -> Var) {
        let mut rng = rng::seeded(11);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(2, 3, |_, _| rng.gen_range(0.05..0.9)));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let p = t.param(store, w);
            let y = apply(&mut t, p);
            let l = t.mean_all(y);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let p = t.param(&store, w);
        let y = apply(&mut t, p);
        let l = t.mean_all(y);
        t.backward(l, &mut store);
        let analytic = store.grad(w).clone();
        let numeric = numeric_grad(&mut store, w, &run);
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < 2e-2,
            "{name}: analytic vs numeric gradient diff {diff}"
        );
    }

    #[test]
    fn unary_op_gradients_match_finite_differences() {
        check_unary("relu", |t, v| t.relu(v));
        check_unary("elu", |t, v| t.elu(v, 1.0));
        check_unary("sigmoid", |t, v| t.sigmoid(v));
        check_unary("tanh", |t, v| t.tanh(v));
        check_unary("softplus", |t, v| t.softplus(v));
        check_unary("exp", |t, v| t.exp(v));
        check_unary("ln1p", |t, v| t.ln1p(v));
        check_unary("ln_eps", |t, v| t.ln_eps(v, 1e-3));
        check_unary("square", |t, v| t.square(v));
        check_unary("recip", |t, v| t.recip(v));
        check_unary("row_sums", |t, v| t.row_sums(v));
        check_unary("scale", |t, v| t.scale(v, -2.5));
        check_unary("add_scalar", |t, v| t.add_scalar(v, 0.7));
        check_unary("slice", |t, v| t.slice_cols(v, 1, 3));
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let mut rng = rng::seeded(5);
        let mut store = ParamStore::new();
        let a = store.register("a", Matrix::from_fn(2, 3, |_, _| rng.gen_range(-1.0..1.0)));
        let b = store.register("b", Matrix::from_fn(3, 4, |_, _| rng.gen_range(-1.0..1.0)));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let av = t.param(store, a);
            let bv = t.param(store, b);
            let y = t.matmul(av, bv);
            let sq = t.square(y);
            let l = t.mean_all(sq);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let y = t.matmul(av, bv);
        let sq = t.square(y);
        let l = t.mean_all(sq);
        t.backward(l, &mut store);
        let ga = store.grad(a).clone();
        let gb = store.grad(b).clone();

        store.zero_grads();
        let na = numeric_grad(&mut store, a, &run);
        let nb = numeric_grad(&mut store, b, &run);
        assert!(ga.max_abs_diff(&na) < 2e-2);
        assert!(gb.max_abs_diff(&nb) < 2e-2);
    }

    #[test]
    fn composite_graph_gradients_match() {
        // A realistic mini-model: hconcat, broadcast, add_row, relu, mul_row.
        let mut rng = rng::seeded(9);
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(5, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let bias = store.register("b", Matrix::from_fn(1, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let e = store.register("e", Matrix::from_fn(1, 2, |_, _| rng.gen_range(-0.5..0.5)));
        let x = Matrix::from_fn(4, 3, |_, _| rng.gen_range(0.0..1.0));
        let weights = Matrix::row_vector(vec![0.25, 0.75]);

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let ev = t.param(store, e);
            let eb = t.broadcast_row(ev, 4);
            let cat = t.hconcat(&[xv, eb]);
            let wv = t.param(store, w);
            let bv = t.param(store, bias);
            let h = t.matmul(cat, wv);
            let h = t.add_row(h, bv);
            let h = t.relu(h);
            let wts = t.input(weights.clone());
            let h = t.mul_row(h, wts);
            let l = t.sum_all(h);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let xv = t.input(x.clone());
        let ev = t.param(&store, e);
        let eb = t.broadcast_row(ev, 4);
        let cat = t.hconcat(&[xv, eb]);
        let wv = t.param(&store, w);
        let bv = t.param(&store, bias);
        let h = t.matmul(cat, wv);
        let h = t.add_row(h, bv);
        let h = t.relu(h);
        let wts = t.input(weights.clone());
        let h = t.mul_row(h, wts);
        let l = t.sum_all(h);
        t.backward(l, &mut store);

        for id in [w, bias, e] {
            let analytic = store.grad(id).clone();
            let numeric = numeric_grad(&mut store, id, &run);
            let diff = analytic.max_abs_diff(&numeric);
            assert!(diff < 3e-2, "param {}: diff {diff}", store.name(id));
        }
    }

    #[test]
    fn grad_accumulates_when_param_used_twice() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 1, 2.0));
        let mut t = Tape::new();
        let a = t.param(&store, w);
        let b = t.param(&store, w);
        let y = t.mul(a, b); // y = w^2, dy/dw = 2w = 4
        let l = t.sum_all(y);
        t.backward(l, &mut store);
        assert!((store.grad(w).get(0, 0) - 4.0).abs() < 1e-5);
    }

    #[test]
    fn mul_col_gradient_matches() {
        let mut rng = rng::seeded(3);
        let mut store = ParamStore::new();
        let c = store.register("c", Matrix::from_fn(3, 1, |_, _| rng.gen_range(0.1..1.0)));
        let x = Matrix::from_fn(3, 2, |_, _| rng.gen_range(-1.0..1.0));

        let run = |store: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let cv = t.param(store, c);
            let y = t.mul_col(xv, cv);
            let sq = t.square(y);
            let l = t.sum_all(sq);
            t.value(l).get(0, 0)
        };

        let mut t = Tape::new();
        let xv = t.input(x.clone());
        let cv = t.param(&store, c);
        let y = t.mul_col(xv, cv);
        let sq = t.square(y);
        let l = t.sum_all(sq);
        t.backward(l, &mut store);
        let analytic = store.grad(c).clone();
        let numeric = numeric_grad(&mut store, c, &run);
        assert!(analytic.max_abs_diff(&numeric) < 2e-2);
    }

    #[test]
    fn slice_rows_and_vstack_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32));
        let mut t = Tape::new();
        let p = t.param(&store, w);
        let top = t.slice_rows(p, 0, 1);
        let l = t.sum_all(top);
        t.backward(l, &mut store);
        // Only the first row receives gradient.
        assert_eq!(store.grad(w).row(0), &[1.0, 1.0]);
        assert_eq!(store.grad(w).row(1), &[0.0, 0.0]);
    }
}
