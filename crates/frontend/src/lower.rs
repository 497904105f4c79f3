//! Semantic analysis and lowering: AST → [`AccessProgram`].
//!
//! This pass enforces the *affine* contract of the language — loop bounds
//! and array subscripts must be affine in the surrounding iterators and the
//! declared parameters — collects parameters and array shapes, assigns each
//! assignment statement a name and a syntactic schedule, extracts its
//! iteration domain and read/write accesses, and counts its arithmetic
//! operations. The result feeds the value-based dependence analysis of
//! [`iolb_ir::dataflow`].

use crate::ast::{AccessExpr, Assign, AssignOp, BinOp, Expr, Item, Program, Stmt};
use crate::{Error, Span};
use iolb_ir::dataflow::{Access, AccessProgram, SchedStep};
use iolb_poly::{BasicSet, Constraint, LinExpr, Space};
use iolb_preflight::{SourceInfo, SourceSpan};
use std::collections::BTreeMap;

/// A lowered program: the access-level form ready for dependence analysis,
/// plus the collected parameters.
#[derive(Clone, Debug)]
pub struct LoweredProgram {
    access: AccessProgram,
    params: Vec<String>,
    statement_names: Vec<String>,
    source: SourceInfo,
}

impl LoweredProgram {
    /// The program parameters, in declaration order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// The statement names, in textual order (labels where given, `S1`,
    /// `S2`, … otherwise).
    pub fn statement_names(&self) -> &[String] {
        &self.statement_names
    }

    /// Source-level facts for preflight diagnostics: declaration and
    /// statement positions, plus which declared arrays are actually
    /// accessed.
    pub fn source_info(&self) -> &SourceInfo {
        &self.source
    }

    /// Runs value-based flow-dependence analysis and returns the DFG.
    ///
    /// # Errors
    ///
    /// Lowering already validates everything the dependence analysis checks,
    /// so an error here indicates an internal inconsistency; it is
    /// propagated rather than panicking.
    pub fn to_dfg(&self) -> Result<iolb_dfg::Dfg, Error> {
        self.access
            .to_dfg()
            .map_err(|e| Error::unpositioned(format!("dependence analysis failed: {e}")))
    }
}

/// Lowers a parsed program, running all semantic checks.
///
/// # Errors
///
/// Returns a positioned [`Error`] for undeclared identifiers, duplicate or
/// colliding names, wrong subscript arity, and non-affine bounds or
/// subscripts.
pub fn lower(ast: &Program) -> Result<LoweredProgram, Error> {
    let mut lowerer = Lowerer::default();
    lowerer.run(ast)?;
    let mut access = AccessProgram::new();
    for name in &lowerer.array_order {
        let a = &lowerer.arrays[name];
        access = access.array(&a.name, a.domain.clone());
    }
    for s in &lowerer.statements {
        access = access.statement(
            &s.name,
            s.domain.clone(),
            s.schedule.clone(),
            s.write.clone(),
            s.reads.clone(),
            s.ops,
        );
    }
    let mut source = SourceInfo {
        declared_arrays: lowerer.array_order.clone(),
        param_spans: lowerer
            .param_spans
            .iter()
            .map(|(n, s)| (n.clone(), source_span(*s)))
            .collect(),
        ..SourceInfo::default()
    };
    for name in &lowerer.array_order {
        source
            .array_spans
            .insert(name.clone(), source_span(lowerer.arrays[name].span));
    }
    for s in &lowerer.statements {
        source
            .statement_spans
            .insert(s.name.clone(), source_span(s.span));
        for acc in s.write.iter().chain(s.reads.iter()) {
            source.referenced_arrays.insert(acc.array.clone());
        }
    }
    Ok(LoweredProgram {
        access: access.build(),
        params: lowerer.params,
        statement_names: lowerer.statements.into_iter().map(|s| s.name).collect(),
        source,
    })
}

/// Converts a frontend [`Span`] to the preflight crate's position type.
fn source_span(s: Span) -> SourceSpan {
    SourceSpan {
        line: s.line,
        col: s.col,
    }
}

/// A declared array.
struct ArrayDecl {
    name: String,
    domain: BasicSet,
    span: Span,
}

/// A fully-lowered statement, before assembly into the [`AccessProgram`].
struct LoweredStmt {
    name: String,
    domain: BasicSet,
    schedule: Vec<SchedStep>,
    write: Option<Access>,
    reads: Vec<Access>,
    ops: u64,
    span: Span,
}

/// One enclosing loop during the walk.
struct LoopCtx {
    iter: String,
    lb: Expr,
    ub: Expr,
    strict: bool,
}

#[derive(Default)]
struct Lowerer {
    params: Vec<String>,
    param_spans: BTreeMap<String, Span>,
    arrays: BTreeMap<String, ArrayDecl>,
    array_order: Vec<String>,
    statements: Vec<LoweredStmt>,
    auto_counter: usize,
}

impl Lowerer {
    fn run(&mut self, ast: &Program) -> Result<(), Error> {
        // Declarations first (they may appear anywhere at the top level, but
        // statements may only use what is declared *before* them — enforced
        // by processing items in order).
        let mut loops: Vec<LoopCtx> = Vec::new();
        let mut schedule: Vec<SchedStep> = Vec::new();
        let mut pos = 0u64;
        for item in &ast.items {
            match item {
                Item::Parameters(names, span) => {
                    for n in names {
                        if self.params.contains(n) {
                            return Err(Error::new(
                                format!("parameter `{n}` declared twice"),
                                *span,
                            ));
                        }
                        if self.arrays.contains_key(n) {
                            return Err(Error::new(
                                format!("parameter `{n}` collides with an array of the same name"),
                                *span,
                            ));
                        }
                        self.params.push(n.clone());
                        self.param_spans.insert(n.clone(), *span);
                    }
                }
                Item::Array {
                    name, dims, span, ..
                } => self.declare_array(name, dims, *span)?,
                Item::Stmt(s) => {
                    self.stmt(s, &mut loops, &mut schedule, pos)?;
                    pos += 1;
                }
            }
        }
        // Name collisions between statements (and against arrays).
        let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
        for s in &self.statements {
            if seen.insert(&s.name, ()).is_some() {
                return Err(Error::unpositioned(format!(
                    "two statements are both named `{}` (add or change a label)",
                    s.name
                )));
            }
            if self.arrays.contains_key(&s.name) {
                return Err(Error::unpositioned(format!(
                    "statement label `{}` collides with an array of the same name",
                    s.name
                )));
            }
        }
        Ok(())
    }

    fn declare_array(&mut self, name: &str, dims: &[Expr], span: Span) -> Result<(), Error> {
        if self.arrays.contains_key(name) {
            return Err(Error::new(format!("array `{name}` declared twice"), span));
        }
        if self.params.contains(&name.to_string()) {
            return Err(Error::new(
                format!("array `{name}` collides with a parameter of the same name"),
                span,
            ));
        }
        let rank = dims.len();
        let dim_names: Vec<String> = (0..rank).map(|i| format!("d{i}")).collect();
        let dim_refs: Vec<&str> = dim_names.iter().map(|s| s.as_str()).collect();
        let space = Space::new(name, &dim_refs);
        let mut set = BasicSet::universe(space);
        for (r, extent) in dims.iter().enumerate() {
            // Extents are affine in parameters only (no iterators in scope).
            let e = self
                .affine(extent, &[], 0, rank)
                .map_err(|e| e.with_context(format!("extent of array `{name}`")))?;
            let d = LinExpr::var(rank, r);
            set = set
                .constrain(Constraint::ge0(d.clone()))
                .constrain(Constraint::le(d, e.sub(&LinExpr::constant(rank, 1))));
        }
        self.arrays.insert(
            name.to_string(),
            ArrayDecl {
                name: name.to_string(),
                domain: set,
                span,
            },
        );
        self.array_order.push(name.to_string());
        Ok(())
    }

    fn stmt(
        &mut self,
        stmt: &Stmt,
        loops: &mut Vec<LoopCtx>,
        schedule: &mut Vec<SchedStep>,
        pos: u64,
    ) -> Result<(), Error> {
        match stmt {
            Stmt::For(l) => {
                if loops.iter().any(|c| c.iter == l.iter) {
                    return Err(Error::new(
                        format!("loop iterator `{}` shadows an enclosing loop", l.iter),
                        l.span,
                    ));
                }
                if self.params.contains(&l.iter) {
                    return Err(Error::new(
                        format!("loop iterator `{}` shadows a parameter", l.iter),
                        l.span,
                    ));
                }
                if self.arrays.contains_key(&l.iter) {
                    return Err(Error::new(
                        format!("loop iterator `{}` shadows an array", l.iter),
                        l.span,
                    ));
                }
                schedule.push(SchedStep::Seq(pos));
                schedule.push(SchedStep::Loop(loops.len()));
                loops.push(LoopCtx {
                    iter: l.iter.clone(),
                    lb: l.lb.clone(),
                    ub: l.ub.clone(),
                    strict: l.strict,
                });
                for (inner_pos, s) in l.body.iter().enumerate() {
                    self.stmt(s, loops, schedule, inner_pos as u64)?;
                }
                loops.pop();
                schedule.pop();
                schedule.pop();
                Ok(())
            }
            Stmt::Assign(a) => self.assign(a, loops, schedule, pos),
        }
    }

    fn assign(
        &mut self,
        a: &Assign,
        loops: &[LoopCtx],
        schedule: &[SchedStep],
        pos: u64,
    ) -> Result<(), Error> {
        let d = loops.len();
        let iters: Vec<String> = loops.iter().map(|c| c.iter.clone()).collect();

        // Statement name.
        self.auto_counter += 1;
        let name = a
            .label
            .clone()
            .unwrap_or_else(|| format!("S{}", self.auto_counter));

        // Iteration domain.
        let iter_refs: Vec<&str> = iters.iter().map(|s| s.as_str()).collect();
        let space = Space::new(&name, &iter_refs);
        let mut domain = BasicSet::universe(space);
        for (j, l) in loops.iter().enumerate() {
            let lb = self
                .affine(&l.lb, &iters, j, d)
                .map_err(|e| e.with_context(format!("lower bound of loop `{}`", l.iter)))?;
            let mut ub = self
                .affine(&l.ub, &iters, j, d)
                .map_err(|e| e.with_context(format!("upper bound of loop `{}`", l.iter)))?;
            if l.strict {
                ub = ub.sub(&LinExpr::constant(d, 1));
            }
            let ij = LinExpr::var(d, j);
            domain = domain
                .constrain(Constraint::ge(ij.clone(), lb))
                .constrain(Constraint::le(ij, ub));
        }

        // Write access.
        let write = self.lower_access(&a.lhs, &iters)?;

        // Read accesses: the RHS, plus the written cell for compound ops.
        let mut reads: Vec<Access> = Vec::new();
        if a.op != AssignOp::Set {
            reads.push(write.clone());
        }
        self.collect_reads(&a.rhs, &iters, &mut reads)?;

        // Arithmetic operations: one per binary operator and intrinsic call,
        // plus one for a compound assignment; at least 1 so a pure copy
        // still counts as computation.
        let mut ops = count_ops(&a.rhs);
        if a.op != AssignOp::Set {
            ops += 1;
        }
        let ops = ops.max(1);

        self.statements.push(LoweredStmt {
            name,
            domain,
            schedule: {
                let mut s = schedule.to_vec();
                s.push(SchedStep::Seq(pos));
                s
            },
            write: Some(write),
            reads,
            ops,
            span: a.span,
        });
        Ok(())
    }

    /// Lowers one array reference to an [`Access`], checking declaration and
    /// arity and the affinity of every subscript.
    fn lower_access(&self, acc: &AccessExpr, iters: &[String]) -> Result<Access, Error> {
        let Some(decl) = self.arrays.get(&acc.array) else {
            return Err(Error::new(
                format!("undeclared array `{}`", acc.array),
                acc.span,
            ));
        };
        let rank = decl.domain.dim();
        if acc.subs.len() != rank {
            return Err(Error::new(
                format!(
                    "array `{}` has {} dimension{}, subscripted with {}",
                    acc.array,
                    rank,
                    if rank == 1 { "" } else { "s" },
                    acc.subs.len()
                ),
                acc.span,
            ));
        }
        let d = iters.len();
        let subs = acc
            .subs
            .iter()
            .map(|s| {
                self.affine(s, iters, d, d)
                    .map_err(|e| e.with_context(format!("subscript of `{}`", acc.array)))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Access::new(&acc.array, subs))
    }

    /// Collects the read accesses of a value expression (deduplicated).
    fn collect_reads(
        &self,
        e: &Expr,
        iters: &[String],
        reads: &mut Vec<Access>,
    ) -> Result<(), Error> {
        match e {
            Expr::Num(..) => Ok(()),
            Expr::Ident(name, span) => {
                // A bare identifier used as a value: an iterator, a
                // parameter, or a declared scalar (rank-0 array).
                if iters.contains(name) || self.params.contains(name) {
                    return Ok(());
                }
                match self.arrays.get(name) {
                    Some(decl) if decl.domain.dim() == 0 => {
                        push_read(reads, Access::new(name, vec![]));
                        Ok(())
                    }
                    Some(decl) => Err(Error::new(
                        format!(
                            "array `{name}` ({}-dimensional) used without subscripts",
                            decl.domain.dim()
                        ),
                        *span,
                    )),
                    None => Err(Error::new(
                        format!(
                            "undeclared identifier `{name}` (not an iterator, parameter or array)"
                        ),
                        *span,
                    )),
                }
            }
            Expr::Access(acc) => {
                push_read(reads, self.lower_access(acc, iters)?);
                Ok(())
            }
            Expr::Bin(_, l, r) => {
                self.collect_reads(l, iters, reads)?;
                self.collect_reads(r, iters, reads)
            }
            Expr::Neg(inner, _) => self.collect_reads(inner, iters, reads),
            Expr::Call(_, args, _) => {
                for a in args {
                    self.collect_reads(a, iters, reads)?;
                }
                Ok(())
            }
        }
    }

    /// Lowers an expression in an *affine* position (bound, extent or
    /// subscript) to a [`LinExpr`] over `arity` variables, where only the
    /// first `avail` iterators are in scope.
    fn affine(
        &self,
        e: &Expr,
        iters: &[String],
        avail: usize,
        arity: usize,
    ) -> Result<LinExpr, Error> {
        match e {
            Expr::Num(n, _) => Ok(LinExpr::constant(arity, *n)),
            Expr::Ident(name, span) => {
                if let Some(idx) = iters[..avail].iter().position(|i| i == name) {
                    return Ok(LinExpr::var(arity, idx));
                }
                if self.params.contains(name) {
                    return Ok(LinExpr::param(arity, name));
                }
                if iters[avail..].contains(name) {
                    return Err(Error::new(
                        format!("`{name}` is not yet in scope here (inner loop iterator)"),
                        *span,
                    ));
                }
                Err(Error::new(
                    format!("`{name}` is not a surrounding iterator or declared parameter"),
                    *span,
                ))
            }
            Expr::Neg(inner, _) => Ok(self.affine(inner, iters, avail, arity)?.scale(-1)),
            Expr::Bin(BinOp::Add, l, r) => Ok(self
                .affine(l, iters, avail, arity)?
                .add(&self.affine(r, iters, avail, arity)?)),
            Expr::Bin(BinOp::Sub, l, r) => Ok(self
                .affine(l, iters, avail, arity)?
                .sub(&self.affine(r, iters, avail, arity)?)),
            Expr::Bin(BinOp::Mul, l, r) => {
                let le = self.affine(l, iters, avail, arity)?;
                let re = self.affine(r, iters, avail, arity)?;
                if let Some(k) = as_constant(&le) {
                    Ok(re.scale(k))
                } else if let Some(k) = as_constant(&re) {
                    Ok(le.scale(k))
                } else {
                    Err(Error::new(
                        "non-affine expression: product of two non-constant terms",
                        e.span(),
                    ))
                }
            }
            Expr::Bin(BinOp::Div, _, _) => Err(Error::new(
                "non-affine expression: division is not allowed here",
                e.span(),
            )),
            Expr::Access(acc) => Err(Error::new(
                "non-affine expression: array reference is not allowed here",
                acc.span,
            )),
            Expr::Call(name, _, span) => Err(Error::new(
                format!("non-affine expression: call to `{name}` is not allowed here"),
                *span,
            )),
        }
    }
}

/// The integer value of a constant [`LinExpr`], if it has no variable or
/// parameter terms.
fn as_constant(e: &LinExpr) -> Option<i128> {
    if e.is_param_only() && e.param_coeffs.is_empty() {
        Some(e.constant)
    } else {
        None
    }
}

/// Appends a read access unless an identical one is already present (the
/// same cell read twice contributes one dependence).
fn push_read(reads: &mut Vec<Access>, acc: Access) {
    let dup = reads
        .iter()
        .any(|r| r.array == acc.array && r.subscripts == acc.subscripts);
    if !dup {
        reads.push(acc);
    }
}

/// Counts arithmetic operations: one per binary operator and intrinsic
/// call.
fn count_ops(e: &Expr) -> u64 {
    match e {
        Expr::Num(..) | Expr::Ident(..) | Expr::Access(_) => 0,
        Expr::Bin(_, l, r) => 1 + count_ops(l) + count_ops(r),
        Expr::Neg(inner, _) => count_ops(inner),
        Expr::Call(_, args, _) => 1 + args.iter().map(count_ops).sum::<u64>(),
    }
}
