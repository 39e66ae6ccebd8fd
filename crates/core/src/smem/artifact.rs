//! Content-addressed on-disk store of compiled plan artifacts.
//!
//! Symbolic scratchpad plans are pure functions of (program IR,
//! analysis configuration, block-shape parametrization): the same
//! inputs always produce the same [`SymbolicPlan`]. That makes the
//! expensive §3 pipeline a perfect candidate for a persistent,
//! content-addressed cache — a compile service (or a later run of the
//! CLI) can skip dataspace/partition/reuse/alloc/movement entirely
//! when an artifact for the same key already exists.
//!
//! # Key derivation
//!
//! A key is the hash of a canonical encoding, written by the same
//! `Enc` codec that writes the files: [`plan_key`] encodes its inputs
//! into one buffer and takes a 128-bit FNV-1a pair over it (two lanes
//! with distinct offset bases). The inputs are
//!
//! * the **program IR** (`put_program`): name, parameter names, array
//!   declarations (extent [`LinExpr`]s in `BTreeMap` coefficient
//!   order), and every statement's domain (space names plus constraint
//!   rows, the same canonical-content discipline the polyhedral
//!   memoizer keys with), accesses and body expression tree;
//! * the **analysis configuration** ([`SmemConfig`], every field) and
//!   the optional register-level [`HierSpec`] (every field);
//! * the **block-shape parametrization**: the sorted
//!   `(fixed dim, representative value)` pairs of the symbolic view;
//! * caller-supplied **salt words** — the machine layer folds in its
//!   mapping-relevant [`MachineConfig`] fields here, so a GPU plan is
//!   never served to a Cell-like launch;
//! * the format version and [`schema_hash`], so a new codec layout
//!   moves every key at once.
//!
//! Tune keys (`super::tune::tune_key`) hash their inputs the same way.
//! Every variable-size field is length-prefixed, so adjacent fields
//! never alias.
//!
//! # Artifact contents and what a load checks
//!
//! A [`PlanArtifact`] is the key and the two-level [`SymbolicPlan`] —
//! §3's result for one block shape — holding only what the executors
//! and the estimator read: buffers (kept dims and bounds), access
//! rewrites, the movement nests, the register level, and the residency
//! scans. It holds no polyhedra: the data spaces the passes planned
//! from stay in memory. Nothing derived from it, and none of
//! the intermediate sets the passes built it from, is stored. Plan
//! files and tune files (`super::tune`) share one envelope ([`seal`] /
//! [`open`]) and one `Enc` / `Dec` codec. A load runs three layers,
//! and any failure makes [`ArtifactStore::load`] return `None`, so the
//! caller compiles fresh:
//!
//! 1. envelope: magic, version, [`schema_hash`] (a hash of the codec
//!    layout descriptor, edited whenever any encoded type changes
//!    shape), payload length and checksum. The checksum catches
//!    accidental corruption; the key, checked by the store, catches
//!    staleness, since it hashes the program and everything else the
//!    plan depends on.
//! 2. decode: every length is bounds-checked against the remaining
//!    payload, and every map, bound and scan nest is rebuilt through
//!    the same validating constructors the passes use. No polyhedron
//!    is parsed: only the keys encode any.
//! 3. fit (`plan_fits`): every index and arity the executor trusts —
//!    array indices and ranks, statement and access ids, buffer ids,
//!    kept dims, the parameter count at each level — is in range for
//!    the program. This makes loads total: any bytes end in `Some` or
//!    `None`, in time linear in the payload.
//!
//! None of the layers re-derives the plan. A plan that fits its
//! program but is not the one §3 would compute (a hand-edited loop
//! bound under a valid checksum) still runs.

use super::cache::SymbolicPlan;
use super::dataspace::AccessId;
use super::hierarchy::{HierPlan, HierSpec};
use super::movement::MovementCode;
use super::residency::{ResidencyPlan, RetainPlan};
use super::reuse::ReuseDecision;
use super::{LocalBuffer, SmemConfig, SmemError, SmemPlan};
use polymem_codegen::ast::{Ast, LoopBounds};
use polymem_ir::{Access, Expr, LinExpr, Program};
use polymem_linalg::{IMat, IVec};
use polymem_poly::bounds::{AffineForm, BoundList};
use polymem_poly::{AffineMap, Constraint, ConstraintKind, PolyError, Polyhedron, Space};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Plan-file version; bump on any envelope change.
pub const FORMAT_VERSION: u32 = 1;

/// Plan-file magic: "polymem plan artifact".
pub const MAGIC: [u8; 4] = *b"PMPA";

/// Layout descriptor of every type the codec serializes, plan and tune
/// payloads alike. The schema hash stored in each envelope is the FNV
/// of this string, so editing any encoder (and this descriptor with it)
/// invalidates old files even within the same version.
const SCHEMA: &str = "v3:ivec,imat,space,constraint(kind,coeffs),poly,map,\
     affform(coeffs,div),boundlist,ast(seq,loop,guard,leaf,empty),\
     linexpr,expr,access,program(name,params,arrays,stmts),\
     accessid,localaccess,unionbound,localbuffer(kept,bounds),\
     reusedecision,movement(in,out),smemplan,\
     hier(plan,ext,threads,kept,stpos,backing,regs),\
     retain(scans3,legal),\
     residency,symbolic(plan,fixed,kept,hier,residency),artifact(key,plan),\
     mapping(scheme,tiles,round,block,seq,thread,spad,db,hier,res),\
     tunerow(mapping,predicted,simulated,exact,preset,note),\
     tune(winner,predicted,cycles,rows)";

/// Schema hash baked into every artifact (see [`SCHEMA`]).
pub fn schema_hash() -> u64 {
    fnv1a(FNV_OFFSET, KEY_PRIME, SCHEMA.as_bytes())
}

/// The standard 64-bit FNV-1a offset basis: the `h` a fresh
/// [`fnv1a`] hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
/// The standard 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0100_0000_01b3;
/// The multiplier of everything this module persists (plan and tune
/// keys, the schema hash, envelope checksums). It is one hex digit
/// longer than [`FNV_PRIME`] and frozen: every stored artifact's name,
/// the golden launch keys and the daemon's `ping` schema are values of
/// it.
const KEY_PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into the 64-bit FNV-1a state `h` with multiplier
/// `prime`. The one FNV loop in the tree: artifact keys and envelope
/// checksums ([`KEY_PRIME`]) and the serve protocol's result
/// fingerprint ([`FNV_PRIME`]) all hash through it.
pub fn fnv1a(mut h: u64, prime: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(prime);
    }
    h
}

/// 128-bit content address of one compiled plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Primary FNV-1a lane.
    pub lo: u64,
    /// Secondary lane (distinct offset basis), halving collision odds.
    pub hi: u64,
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// The stable content address of the symbolic plan produced by
/// `analyze_symbolic_hier(program, pairs, cfg, hier)`: the key of its
/// inputs' canonical encoding (`Enc::key`). `salt` is for the
/// caller's own mapping-relevant knobs (machine model fields); same
/// inputs ⇒ same key, across processes and machines.
pub fn plan_key(
    program: &Program,
    cfg: &SmemConfig,
    pairs: &[(String, i64)],
    hier: Option<&HierSpec>,
    salt: &[u64],
) -> ArtifactKey {
    // Destructured, so a new field cannot be left out of the key.
    let SmemConfig {
        delta,
        must_copy_all,
        staging_pays,
        sample_params,
        count_budget,
        partition,
        residency_dim,
    } = cfg;
    let mut e = Enc::default();
    e.u32(FORMAT_VERSION);
    e.u64(schema_hash());
    put_program(&mut e, program);
    e.f64(*delta);
    e.boolean(*must_copy_all);
    e.boolean(*staging_pays);
    e.seq(sample_params, |e, &p| e.i64(p));
    e.u64(*count_budget);
    e.boolean(*partition);
    e.opt(residency_dim, |e, d| e.str(d));
    // Block-shape parametrization, order-independent.
    let mut sorted: Vec<&(String, i64)> = pairs.iter().collect();
    sorted.sort();
    e.seq(&sorted, |e, (name, v)| {
        e.str(name);
        e.i64(*v);
    });
    e.opt(&hier, |e, spec| {
        let HierSpec {
            thread_dims,
            thread_reps,
            regs_per_inner,
        } = spec;
        e.seq(thread_dims, |e, d| e.str(d));
        e.seq(thread_reps, |e, (d, v)| {
            e.str(d);
            e.i64(*v);
        });
        e.u64(*regs_per_inner);
    });
    e.seq(salt, |e, &w| e.u64(w));
    e.key()
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Decode failure (any structural violation). Carries no detail: the
/// only recovery is a fresh compile (or search), and the loaders treat
/// every corrupt artifact identically.
#[derive(Debug)]
pub(super) struct Corrupt;

pub(super) type DResult<T> = std::result::Result<T, Corrupt>;

/// Append-only encoder: the one writer of both artifact kinds.
#[derive(Default)]
pub(super) struct Enc {
    pub(super) buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(super) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(super) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(super) fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    pub(super) fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(super) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub(super) fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Enc, &T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }
    pub(super) fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
    /// The content address of the bytes written so far: two FNV-1a
    /// lanes with distinct offset bases over the one buffer.
    pub(super) fn key(&self) -> ArtifactKey {
        ArtifactKey {
            lo: fnv1a(FNV_OFFSET, KEY_PRIME, &self.buf),
            hi: fnv1a(FNV_OFFSET_HI, KEY_PRIME, &self.buf),
        }
    }
}

/// Bounds-checked cursor over an encoded payload: the one reader of
/// both artifact kinds. Every read validates against the remaining
/// bytes; a `Vec` length prefix may never exceed the remaining payload
/// (each element costs ≥ 1 byte), so a corrupt length cannot trigger
/// an outsized allocation.
pub(super) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(Corrupt);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(super) fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(super) fn i64(&mut self) -> DResult<i64> {
        Ok(self.u64()? as i64)
    }
    fn usize(&mut self) -> DResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Corrupt)
    }
    pub(super) fn boolean(&mut self) -> DResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Corrupt),
        }
    }
    fn f64(&mut self) -> DResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self) -> DResult<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(Corrupt);
        }
        Ok(n)
    }
    pub(super) fn str(&mut self) -> DResult<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Corrupt)
    }
    pub(super) fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Dec<'a>) -> DResult<T>,
    ) -> DResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(Corrupt),
        }
    }
    pub(super) fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Dec<'a>) -> DResult<T>,
    ) -> DResult<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

// --- polyhedral substrate ---

fn put_ivec(e: &mut Enc, v: &IVec) {
    e.seq(&v.0, |e, &x| e.i64(x));
}

/// `i64::MIN` never occurs in a plan, and is the one coefficient that
/// cannot be negated: refusing it here keeps it out of the bound and
/// guard arithmetic a loaded plan runs.
fn get_ivec(d: &mut Dec) -> DResult<IVec> {
    let v = d.seq(|d| match d.i64()? {
        i64::MIN => Err(Corrupt),
        x => Ok(x),
    })?;
    Ok(IVec(v))
}

fn put_imat(e: &mut Enc, m: &IMat) {
    e.usize(m.rows());
    e.usize(m.cols());
    for r in 0..m.rows() {
        for &v in m.row(r) {
            e.i64(v);
        }
    }
}

fn get_imat(d: &mut Dec) -> DResult<IMat> {
    let rows = d.usize()?;
    let cols = d.usize()?;
    let cells = rows.checked_mul(cols).ok_or(Corrupt)?;
    if cells.checked_mul(8).ok_or(Corrupt)? > d.remaining() {
        return Err(Corrupt);
    }
    let mut data = Vec::with_capacity(cells);
    for _ in 0..cells {
        data.push(d.i64()?);
    }
    Ok(IMat::from_vec(rows, cols, data))
}

fn put_space(e: &mut Enc, s: &Space) {
    e.seq(s.dims(), |e, d| e.str(d));
    e.seq(s.params(), |e, p| e.str(p));
}

fn get_space(d: &mut Dec) -> DResult<Space> {
    let dims = d.seq(|d| d.str())?;
    let params = d.seq(|d| d.str())?;
    Ok(Space::new(dims, params))
}

fn put_constraint(e: &mut Enc, c: &Constraint) {
    e.u8(match c.kind {
        ConstraintKind::Ineq => 0,
        ConstraintKind::Eq => 1,
    });
    put_ivec(e, &c.coeffs);
}

fn get_constraint(d: &mut Dec) -> DResult<Constraint> {
    let kind = match d.u8()? {
        0 => ConstraintKind::Ineq,
        1 => ConstraintKind::Eq,
        _ => return Err(Corrupt),
    };
    let coeffs = get_ivec(d)?;
    Ok(Constraint { coeffs, kind })
}

fn put_poly(e: &mut Enc, p: &Polyhedron) {
    put_space(e, p.space());
    e.seq(p.constraints(), put_constraint);
}

fn put_affmap(e: &mut Enc, m: &AffineMap) {
    put_space(e, m.in_space());
    put_space(e, m.out_space());
    put_imat(e, m.matrix());
}

fn get_affmap(d: &mut Dec) -> DResult<AffineMap> {
    let in_space = get_space(d)?;
    let out_space = get_space(d)?;
    let matrix = get_imat(d)?;
    // Mirror `AffineMap::new`'s assertions as decode checks.
    if matrix.rows() != out_space.n_dims()
        || matrix.cols() != in_space.n_cols()
        || in_space.n_params() != out_space.n_params()
    {
        return Err(Corrupt);
    }
    Ok(AffineMap::new(in_space, out_space, matrix))
}

fn put_affform(e: &mut Enc, f: &AffineForm) {
    put_ivec(e, &f.coeffs);
    e.i64(f.div);
}

fn get_affform(d: &mut Dec) -> DResult<AffineForm> {
    let coeffs = get_ivec(d)?;
    let div = d.i64()?;
    if div <= 0 {
        return Err(Corrupt);
    }
    Ok(AffineForm { coeffs, div })
}

fn put_boundlist(e: &mut Enc, b: &BoundList) {
    e.seq(&b.terms, put_affform);
}

fn get_boundlist(d: &mut Dec) -> DResult<BoundList> {
    Ok(BoundList {
        terms: d.seq(get_affform)?,
    })
}

// --- program IR (key input only: never decoded) ---

fn put_linexpr(e: &mut Enc, l: &LinExpr) {
    // BTreeMap iteration order is deterministic by key.
    e.usize(l.coeffs.len());
    for (name, &c) in &l.coeffs {
        e.str(name);
        e.i64(c);
    }
    e.i64(l.constant);
}

fn put_expr(e: &mut Enc, x: &Expr) {
    let pair = |e: &mut Enc, tag: u8, a: &Expr, b: &Expr| {
        e.u8(tag);
        put_expr(e, a);
        put_expr(e, b);
    };
    match x {
        Expr::Read(i) => {
            e.u8(0);
            e.usize(*i);
        }
        Expr::Iter(i) => {
            e.u8(1);
            e.usize(*i);
        }
        Expr::Param(i) => {
            e.u8(2);
            e.usize(*i);
        }
        Expr::Const(c) => {
            e.u8(3);
            e.i64(*c);
        }
        Expr::Add(a, b) => pair(e, 4, a, b),
        Expr::Sub(a, b) => pair(e, 5, a, b),
        Expr::Mul(a, b) => pair(e, 6, a, b),
        Expr::Div(a, b) => pair(e, 7, a, b),
        Expr::Min(a, b) => pair(e, 8, a, b),
        Expr::Max(a, b) => pair(e, 9, a, b),
        Expr::Abs(a) => {
            e.u8(10);
            put_expr(e, a);
        }
    }
}

fn put_access(e: &mut Enc, a: &Access) {
    e.usize(a.array);
    put_affmap(e, &a.map);
}

/// A program's canonical form — the same content-not-identity
/// discipline the polyhedral memoizer keys constraint systems with,
/// over the whole IR: every name, extent, domain, access and body.
pub(super) fn put_program(e: &mut Enc, p: &Program) {
    e.str(&p.name);
    e.seq(&p.params, |e, s| e.str(s));
    e.seq(&p.arrays, |e, a| {
        e.str(&a.name);
        e.seq(&a.extents, put_linexpr);
    });
    e.seq(&p.stmts, |e, s| {
        e.str(&s.name);
        put_poly(e, &s.domain);
        put_access(e, &s.write);
        e.seq(&s.reads, put_access);
        put_expr(e, &s.body);
    });
}

// --- generated loop ASTs ---

/// Nesting cap for decoded ASTs: real movement nests are at most a
/// handful of loops deep; a corrupt file must not recurse unboundedly.
const MAX_AST_DEPTH: usize = 512;

fn put_ast(e: &mut Enc, a: &Ast) {
    match a {
        Ast::Seq(items) => {
            e.u8(0);
            e.seq(items, put_ast);
        }
        Ast::Loop { var, bounds, body } => {
            e.u8(1);
            e.str(var);
            put_boundlist(e, &bounds.lower);
            put_boundlist(e, &bounds.upper);
            put_ast(e, body);
        }
        Ast::Guard { conds, body } => {
            e.u8(2);
            e.seq(conds, put_constraint);
            put_ast(e, body);
        }
        Ast::Leaf { tag } => {
            e.u8(3);
            e.usize(*tag);
        }
        Ast::Empty => e.u8(4),
    }
}

fn get_ast(d: &mut Dec, depth: usize) -> DResult<Ast> {
    if depth > MAX_AST_DEPTH {
        return Err(Corrupt);
    }
    Ok(match d.u8()? {
        0 => Ast::Seq(d.seq(|d| get_ast(d, depth + 1))?),
        1 => {
            let var = d.str()?;
            let lower = get_boundlist(d)?;
            let upper = get_boundlist(d)?;
            let body = Box::new(get_ast(d, depth + 1)?);
            Ast::Loop {
                var,
                bounds: LoopBounds { lower, upper },
                body,
            }
        }
        2 => {
            let conds = d.seq(get_constraint)?;
            let body = Box::new(get_ast(d, depth + 1)?);
            Ast::Guard { conds, body }
        }
        3 => Ast::Leaf { tag: d.usize()? },
        4 => Ast::Empty,
        _ => return Err(Corrupt),
    })
}

// --- plan types ---

fn put_access_id(e: &mut Enc, id: &AccessId) {
    e.usize(id.stmt);
    e.opt(&id.read_idx, |e, &k| e.usize(k));
}

fn get_access_id(d: &mut Dec) -> DResult<AccessId> {
    let stmt = d.usize()?;
    let read_idx = d.opt(|d| d.usize())?;
    Ok(AccessId { stmt, read_idx })
}

fn put_buffer(e: &mut Enc, b: &LocalBuffer) {
    e.usize(b.id);
    e.usize(b.array);
    e.str(&b.array_name);
    e.usize(b.n_array_dims);
    e.seq(&b.kept_dims, |e, &k| e.usize(k));
    e.seq(&b.bounds, |e, ub| {
        e.seq(&ub.lowers, put_boundlist);
        e.seq(&ub.uppers, put_boundlist);
    });
}

fn get_buffer(d: &mut Dec) -> DResult<LocalBuffer> {
    use super::alloc::UnionBound;
    Ok(LocalBuffer {
        id: d.usize()?,
        array: d.usize()?,
        array_name: d.str()?,
        n_array_dims: d.usize()?,
        kept_dims: d.seq(|d| d.usize())?,
        bounds: d.seq(|d| {
            Ok(UnionBound {
                lowers: d.seq(get_boundlist)?,
                uppers: d.seq(get_boundlist)?,
            })
        })?,
    })
}

fn put_movement(e: &mut Enc, m: &MovementCode) {
    e.usize(m.buffer);
    put_ast(e, &m.move_in);
    put_ast(e, &m.move_out);
}

fn get_movement(d: &mut Dec) -> DResult<MovementCode> {
    Ok(MovementCode {
        buffer: d.usize()?,
        move_in: get_ast(d, 0)?,
        move_out: get_ast(d, 0)?,
    })
}

fn put_smem_plan(e: &mut Enc, p: &SmemPlan) {
    e.seq(&p.buffers, put_buffer);
    // HashMap: canonical (sorted) order so identical plans encode to
    // identical bytes — round-trip tests and dedup depend on it.
    let mut ids: Vec<&AccessId> = p.rewrites.keys().collect();
    ids.sort_by_key(|id| (id.stmt, id.read_idx.is_some(), id.read_idx));
    e.usize(ids.len());
    for id in ids {
        put_access_id(e, id);
        let la = &p.rewrites[id];
        e.usize(la.buffer);
        put_affmap(e, &la.map);
    }
    e.seq(&p.movement, put_movement);
    e.seq(&p.decisions, |e, (name, dec)| {
        e.str(name);
        e.boolean(dec.beneficial);
        e.boolean(dec.order_of_magnitude);
        e.opt(&dec.overlap_fraction, |e, &f| e.f64(f));
    });
}

fn get_smem_plan(d: &mut Dec) -> DResult<SmemPlan> {
    use super::access::LocalAccess;
    let buffers = d.seq(get_buffer)?;
    let n = d.len()?;
    let mut rewrites = HashMap::with_capacity(n);
    for _ in 0..n {
        let id = get_access_id(d)?;
        let buffer = d.usize()?;
        let map = get_affmap(d)?;
        if rewrites.insert(id, LocalAccess { buffer, map }).is_some() {
            return Err(Corrupt);
        }
    }
    let movement = d.seq(get_movement)?;
    let decisions = d.seq(|d| {
        let name = d.str()?;
        let beneficial = d.boolean()?;
        let order_of_magnitude = d.boolean()?;
        let overlap_fraction = d.opt(|d| d.f64())?;
        Ok((
            name,
            ReuseDecision {
                beneficial,
                order_of_magnitude,
                overlap_fraction,
            },
        ))
    })?;
    // Referential integrity: every rewrite and movement group must
    // point at an existing buffer.
    if rewrites.values().any(|la| la.buffer >= buffers.len())
        || movement.iter().any(|m| m.buffer >= buffers.len())
    {
        return Err(Corrupt);
    }
    Ok(SmemPlan {
        buffers,
        rewrites,
        movement,
        decisions,
    })
}

fn put_hier(e: &mut Enc, h: &HierPlan) {
    put_smem_plan(e, &h.plan);
    e.seq(&h.ext_names, |e, s| e.str(s));
    e.seq(&h.thread_dims, |e, s| e.str(s));
    e.seq(&h.kept_dims, |e, ks| e.seq(ks, |e, &k| e.usize(k)));
    e.seq(&h.stmt_thread_pos, |e, pos| {
        e.opt(pos, |e, ps| e.seq(ps, |e, &p| e.usize(p)))
    });
    e.seq(&h.backing, |e, &b| e.usize(b));
    e.u64(h.regs_per_inner);
}

fn get_hier(d: &mut Dec) -> DResult<HierPlan> {
    Ok(HierPlan {
        plan: get_smem_plan(d)?,
        ext_names: d.seq(|d| d.str())?,
        thread_dims: d.seq(|d| d.str())?,
        kept_dims: d.seq(|d| d.seq(|d| d.usize()))?,
        stmt_thread_pos: d.seq(|d| d.opt(|d| d.seq(|d| d.usize())))?,
        backing: d.seq(|d| d.usize())?,
        regs_per_inner: d.u64()?,
    })
}

fn put_retain(e: &mut Enc, r: &RetainPlan) {
    put_ast(e, &r.retained_scan);
    put_ast(e, &r.delta_scan);
    put_ast(e, &r.flush_scan);
    e.boolean(r.flush_legal);
}

fn get_retain(d: &mut Dec) -> DResult<RetainPlan> {
    Ok(RetainPlan {
        retained_scan: get_ast(d, 0)?,
        delta_scan: get_ast(d, 0)?,
        flush_scan: get_ast(d, 0)?,
        flush_legal: d.boolean()?,
    })
}

fn put_residency(e: &mut Enc, r: &ResidencyPlan) {
    e.str(&r.seq_param);
    let mut ids: Vec<&usize> = r.plans.keys().collect();
    ids.sort();
    e.usize(ids.len());
    for &id in ids {
        e.usize(id);
        put_retain(e, &r.plans[&id]);
    }
}

fn get_residency(d: &mut Dec) -> DResult<ResidencyPlan> {
    let seq_param = d.str()?;
    let n = d.len()?;
    let mut plans = HashMap::with_capacity(n);
    for _ in 0..n {
        let id = d.usize()?;
        let rp = get_retain(d)?;
        if plans.insert(id, rp).is_some() {
            return Err(Corrupt);
        }
    }
    Ok(ResidencyPlan { seq_param, plans })
}

fn put_symbolic(e: &mut Enc, sp: &SymbolicPlan) {
    put_smem_plan(e, &sp.plan);
    e.seq(&sp.fixed, |e, s| e.str(s));
    e.seq(&sp.kept_dims, |e, ks| e.seq(ks, |e, &k| e.usize(k)));
    e.opt(&sp.hier, put_hier);
    e.opt(&sp.residency, put_residency);
}

fn get_symbolic(d: &mut Dec) -> DResult<SymbolicPlan> {
    let plan = get_smem_plan(d)?;
    let fixed = d.seq(|d| d.str())?;
    let kept_dims = d.seq(|d| d.seq(|d| d.usize()))?;
    let hier = d.opt(get_hier)?;
    let residency = d.opt(get_residency)?;
    Ok(SymbolicPlan {
        plan,
        fixed,
        kept_dims,
        hier,
        residency,
    })
}

// ---------------------------------------------------------------------------
// The envelope
// ---------------------------------------------------------------------------

/// Wrap `payload` in the envelope every artifact file shares: `magic`
/// (which kind of file), `version`, [`schema_hash`], the key, the
/// payload length, the payload and its checksum. [`open`] is the
/// inverse.
pub fn seal(magic: [u8; 4], version: u32, key: ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(&magic);
    e.u32(version);
    e.u64(schema_hash());
    e.u64(key.lo);
    e.u64(key.hi);
    e.usize(payload.len());
    e.buf.extend_from_slice(payload);
    e.u64(fnv1a(FNV_OFFSET, KEY_PRIME, payload));
    e.buf
}

/// The key and payload of a [`seal`]ed file. `None` unless the magic,
/// version and schema hash are this build's, the length and checksum
/// match the payload, and nothing trails the checksum.
pub fn open(bytes: &[u8], magic: [u8; 4], version: u32) -> Option<(ArtifactKey, &[u8])> {
    let mut d = Dec::new(bytes);
    if d.take(4).ok()? != magic || d.u32().ok()? != version || d.u64().ok()? != schema_hash() {
        return None;
    }
    let key = ArtifactKey {
        lo: d.u64().ok()?,
        hi: d.u64().ok()?,
    };
    let n = d.len().ok()?;
    let payload = d.take(n).ok()?;
    let sum = d.u64().ok()?;
    (sum == fnv1a(FNV_OFFSET, KEY_PRIME, payload) && d.remaining() == 0).then_some((key, payload))
}

/// Decode a whole payload with `get`; `None` if it fails or leaves
/// bytes over.
pub(super) fn decode_all<T>(payload: &[u8], get: impl FnOnce(&mut Dec) -> DResult<T>) -> Option<T> {
    let mut d = Dec::new(payload);
    let v = get(&mut d).ok()?;
    (d.remaining() == 0).then_some(v)
}

// ---------------------------------------------------------------------------
// The fit check
// ---------------------------------------------------------------------------

/// Whether a decoded plan fits `program`: every index the executor
/// follows is in range, and every arity it trusts matches. That covers
/// array indices and ranks, statement and access ids, buffer ids, kept
/// dims, and the parameter count of every affine structure at its level
/// (`params ++ fixed` at the scratchpad, `params ++ ext_names` at the
/// register level). One pass, linear in the plan's size. It says
/// nothing about *what* the plan computes; see the module docs.
fn plan_fits(sp: &SymbolicPlan, program: &Program) -> bool {
    let np = program.params.len();
    let n1 = np + sp.fixed.len();
    let stmts_fit = |kept: &[Vec<usize>]| {
        kept.len() == program.stmts.len()
            && (kept.iter().zip(&program.stmts)).all(|(k, s)| k.iter().all(|&d| d < s.depth()))
    };
    let residency_fits = sp.residency.as_ref().is_none_or(|r| {
        r.plans.iter().all(|(&id, rp)| {
            sp.plan.buffers.get(id).is_some_and(|b| {
                let scans = [&rp.retained_scan, &rp.delta_scan, &rp.flush_scan];
                scans.iter().all(|a| ast_fits(a, 0, n1, b.n_array_dims))
            })
        })
    });
    let hier_fits = sp.hier.as_ref().is_none_or(|h| {
        let threads = h.thread_dims.len();
        let level1 = h.ext_names.iter().filter(|n| !h.thread_dims.contains(n));
        let thread_pos_fits = h.stmt_thread_pos.len() == program.stmts.len()
            && (h.stmt_thread_pos.iter().zip(&program.stmts)).all(|(pos, s)| {
                pos.as_ref()
                    .is_none_or(|p| p.len() == threads && p.iter().all(|&d| d < s.depth()))
            });
        let backing_fits = h.backing.len() == h.plan.buffers.len()
            && (h.backing.iter().zip(&h.plan.buffers))
                .all(|(&b1, b2)| (sp.plan.buffers.get(b1)).is_some_and(|b1| b1.array == b2.array));
        h.ext_names.len() == sp.fixed.len() + threads
            && level1.eq(&sp.fixed)
            && stmts_fit(&h.kept_dims)
            && thread_pos_fits
            && backing_fits
            && smem_plan_fits(&h.plan, program, np + h.ext_names.len(), &h.kept_dims)
    });
    stmts_fit(&sp.kept_dims)
        && smem_plan_fits(&sp.plan, program, n1, &sp.kept_dims)
        && residency_fits
        && hier_fits
}

/// [`plan_fits`] for one level's plan, whose affine structures take `np`
/// parameters and whose statements keep the dims `kept`.
fn smem_plan_fits(plan: &SmemPlan, program: &Program, np: usize, kept: &[Vec<usize>]) -> bool {
    let buffers_fit = plan.buffers.iter().enumerate().all(|(i, b)| {
        let rank = b.n_array_dims;
        let mut bound_lists = (b.bounds.iter()).flat_map(|u| u.lowers.iter().chain(&u.uppers));
        b.id == i
            && (program.arrays.get(b.array)).is_some_and(|a| a.extents.len() == rank)
            && b.kept_dims.len() == b.bounds.len()
            && b.kept_dims.iter().all(|&d| d < rank)
            && bound_lists.all(|l| forms_fit(l, np + 1))
    });
    let rewrites_fit = plan.rewrites.iter().all(|(id, la)| {
        let Some(s) = program.stmts.get(id.stmt) else {
            return false;
        };
        let access = match id.read_idx {
            None => Some(&s.write),
            Some(k) => s.reads.get(k),
        };
        let (Some(access), Some(b)) = (access, plan.buffers.get(la.buffer)) else {
            return false;
        };
        let m = la.map.in_space();
        access.array == b.array
            && la.map.n_out() == b.kept_dims.len()
            && m.n_dims() == kept[id.stmt].len()
            && m.n_params() == np
    });
    let movement_fits = plan.movement.iter().all(|mc| {
        plan.buffers.get(mc.buffer).is_some_and(|b| {
            let rank = b.n_array_dims;
            ast_fits(&mc.move_in, 0, np, rank) && ast_fits(&mc.move_out, 0, np, rank)
        })
    });
    buffers_fit && rewrites_fit && movement_fits
}

/// Every term of `b` spans `width` columns.
fn forms_fit(b: &BoundList, width: usize) -> bool {
    b.terms.iter().all(|t| t.coeffs.len() == width)
}

/// A scan nest over `np` parameters, entered `depth` loops deep, whose
/// every leaf visits a full `rank`-dim array index.
fn ast_fits(a: &Ast, depth: usize, np: usize, rank: usize) -> bool {
    let width = depth + np + 1;
    match a {
        Ast::Seq(items) => items.iter().all(|a| ast_fits(a, depth, np, rank)),
        Ast::Loop { bounds, body, .. } => {
            forms_fit(&bounds.lower, width)
                && forms_fit(&bounds.upper, width)
                && ast_fits(body, depth + 1, np, rank)
        }
        Ast::Guard { conds, body } => {
            conds.iter().all(|c| c.coeffs.len() == width) && ast_fits(body, depth, np, rank)
        }
        Ast::Leaf { .. } => depth == rank,
        Ast::Empty => true,
    }
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

/// One serialized compile result: the symbolic plan under its key.
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    /// Content address this artifact was compiled under.
    pub key: ArtifactKey,
    /// The full two-level symbolic plan (scratchpad + register +
    /// residency).
    pub plan: SymbolicPlan,
}

impl PlanArtifact {
    /// Assemble an artifact from a freshly analysed plan of `program`.
    /// A plan that does not fit the program (`plan_fits`) is an error,
    /// so no file a load would refuse is ever written. `ext` (the
    /// plan's extended parameter vector) is unused: the benchmark crate
    /// still passes it, and the parameter goes when that crate next
    /// changes.
    pub fn build(
        program: &Program,
        plan: &SymbolicPlan,
        key: ArtifactKey,
        _ext: &[i64],
    ) -> super::Result<PlanArtifact> {
        if !plan_fits(plan, program) {
            return Err(SmemError::Poly(PolyError::SpaceMismatch {
                op: "a plan that does not fit its program",
            }));
        }
        Ok(PlanArtifact {
            key,
            plan: plan.clone(),
        })
    }
}

/// Serialize an artifact to its on-disk bytes.
pub fn encode_artifact(a: &PlanArtifact) -> Vec<u8> {
    let mut p = Enc::default();
    put_symbolic(&mut p, &a.plan);
    seal(MAGIC, FORMAT_VERSION, a.key, &p.buf)
}

/// Decode on-disk bytes into an artifact whose plan fits `program`:
/// the envelope, decode and fit layers of the module docs, and what
/// [`ArtifactStore::load`] runs after reading the file. `None` on any
/// violation — never a panic, never partial data.
pub fn decode_artifact(bytes: &[u8], program: &Program) -> Option<PlanArtifact> {
    let (key, payload) = open(bytes, MAGIC, FORMAT_VERSION)?;
    let plan = decode_all(payload, get_symbolic)?;
    plan_fits(&plan, program).then_some(PlanArtifact { key, plan })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A directory of content-addressed plan artifacts, one file per key
/// (`<key>.plan`). Writes are atomic (temp file + rename), so
/// concurrent daemons sharing a store directory can only ever observe
/// complete artifacts; loads check envelope, decode and fit and fall
/// back to `None` on any mismatch.
#[derive(Clone, Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// On-disk path of one key's artifact.
    pub fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!("{key}.plan"))
    }

    /// Load the artifact at `key` through [`decode_artifact`] and check
    /// that it was stored under `key`. Any failure (including a missing
    /// file) returns `None` — the caller compiles fresh.
    pub fn load(&self, key: &ArtifactKey, program: &Program) -> Option<PlanArtifact> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        decode_artifact(&bytes, program).filter(|a| a.key == *key)
    }

    /// Persist an artifact under its own key, atomically.
    pub fn save(&self, artifact: &PlanArtifact) -> io::Result<PathBuf> {
        let name = format!("{}.plan", artifact.key);
        atomic_write(&self.dir, &name, &encode_artifact(artifact))
    }
}

/// Write `dir/file_name` so that a reader (another daemon sharing the
/// directory, or this process after a crash) only ever observes a
/// complete file: the bytes go to a process-private temp file, are
/// synced, then renamed into place. The temp file is removed on any
/// failure. Returns the final path.
pub fn atomic_write(dir: &Path, file_name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let path = dir.join(file_name);
    let tmp = dir.join(format!(".{file_name}.{}.tmp", std::process::id()));
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, &path));
    match written {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::cache::analyze_symbolic_hier;
    use super::*;
    use polymem_ir::builder::ProgramBuilder;
    use polymem_ir::expr::v;

    fn tiled_program() -> Program {
        // A 1-D tiled kernel with enough structure to populate every
        // plan layer: two statements, a shared array, a seq dim.
        let mut b = ProgramBuilder::new("art", ["N"]);
        b.array("A", &[v("N") + 4]);
        b.array("B", &[v("N")]);
        b.stmt("S1")
            .loops(&[
                ("iT", LinExpr::c(0), LinExpr::c(3)),
                ("i", v("iT") * 4, v("iT") * 4 + 3),
            ])
            .write("A", &[v("i")])
            .read("A", &[v("i")])
            .read("B", &[v("i")])
            .body(Expr::add(Expr::Read(0), Expr::Read(1)))
            .done();
        b.build().unwrap()
    }

    fn plan_for(program: &Program) -> SymbolicPlan {
        let cfg = SmemConfig {
            sample_params: vec![16],
            must_copy_all: true,
            residency_dim: Some("iT".into()),
            ..SmemConfig::default()
        };
        analyze_symbolic_hier(program, &[("iT".into(), 0)], &cfg, None)
            .unwrap()
            .0
    }

    fn cfg() -> SmemConfig {
        SmemConfig {
            sample_params: vec![16],
            must_copy_all: true,
            residency_dim: Some("iT".into()),
            ..SmemConfig::default()
        }
    }

    #[test]
    fn encode_decode_is_identity_on_the_wire() {
        let program = tiled_program();
        let sp = plan_for(&program);
        let key = plan_key(&program, &cfg(), &[("iT".into(), 0)], None, &[1, 2]);
        let art = PlanArtifact::build(&program, &sp, key, &[16, 0]).unwrap();
        let bytes = encode_artifact(&art);
        let back = decode_artifact(&bytes, &program).expect("decodes and fits");
        // Decoded artifacts re-encode to the same bytes (canonical
        // form is a fixpoint).
        assert_eq!(encode_artifact(&back), bytes);
        assert_eq!(back.key, key);
        assert_eq!(back.plan.fixed, sp.fixed);
    }

    #[test]
    fn store_round_trips_and_misses_cleanly() {
        let dir = std::env::temp_dir().join(format!("polymem-art-{}", std::process::id()));
        let store = ArtifactStore::open(&dir).unwrap();
        let program = tiled_program();
        let sp = plan_for(&program);
        let key = plan_key(&program, &cfg(), &[("iT".into(), 0)], None, &[]);
        assert!(store.load(&key, &program).is_none(), "cold store misses");
        let art = PlanArtifact::build(&program, &sp, key, &[16, 0]).unwrap();
        store.save(&art).unwrap();
        let loaded = store.load(&key, &program).expect("hit after save");
        assert_eq!(encode_artifact(&loaded), encode_artifact(&art));
        let other = ArtifactKey { lo: 1, hi: 2 };
        assert!(store.load(&other, &program).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_whole_files_and_cleans_up_on_failure() {
        let dir = std::env::temp_dir().join(format!("polymem-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = atomic_write(&dir, "a.tune", b"one").unwrap();
        atomic_write(&dir, "a.tune", b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        // A rename that cannot succeed (the target is a non-empty
        // directory) reports the error and leaves no temp file behind.
        std::fs::create_dir_all(dir.join("b.tune/occupied")).unwrap();
        assert!(atomic_write(&dir, "b.tune", b"x").is_err());
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["a.tune", "b.tune"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_mismatched_artifacts_are_rejected() {
        let program = tiled_program();
        let sp = plan_for(&program);
        let key = plan_key(&program, &cfg(), &[("iT".into(), 0)], None, &[]);
        let art = PlanArtifact::build(&program, &sp, key, &[16, 0]).unwrap();
        let bytes = encode_artifact(&art);
        let decode = |b: &[u8]| decode_artifact(b, &program);
        // Magic, version and schema mismatches.
        for at in [0, 4, 8] {
            let mut v = bytes.clone();
            v[at] ^= 0xff;
            assert!(decode(&v).is_none(), "byte {at}");
        }
        // Truncation at every prefix length stays a clean None.
        for cut in [0, 3, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Payload bit-flip breaks the checksum.
        let mut c = bytes.clone();
        let mid = 40 + (bytes.len() - 48) / 2;
        c[mid] ^= 0x01;
        assert!(decode(&c).is_none());
        // A plan that does not fit the program — its buffers name an
        // array the program lacks — is refused at the fit layer, and
        // `build` will not write one.
        let mut fewer = tiled_program();
        fewer.arrays.truncate(1);
        assert!(decode_artifact(&bytes, &fewer).is_none());
        assert!(PlanArtifact::build(&fewer, &sp, key, &[]).is_err());
        // The same program with a different body fits: the key, not
        // the load, is what tells the two programs apart.
        let mut other = tiled_program();
        other.stmts[0].body = Expr::Sub(Box::new(Expr::Read(0)), Box::new(Expr::Read(1)));
        assert!(decode_artifact(&bytes, &other).is_some());
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let program = tiled_program();
        let pairs = [("iT".to_string(), 0i64)];
        let hier = HierSpec {
            thread_dims: vec!["i".into()],
            thread_reps: vec![("i".into(), 0)],
            regs_per_inner: 16,
        };
        let key = |p: &Program, c: &SmemConfig, h: &HierSpec| plan_key(p, c, &pairs, Some(h), &[7]);
        let k1 = key(&program, &cfg(), &hier);
        assert_eq!(k1, key(&program, &cfg(), &hier), "same inputs, same key");
        // One mutation of each input at a time; every one must give a
        // key of its own.
        let mut keys = vec![
            k1,
            plan_key(&program, &cfg(), &pairs, Some(&hier), &[8]),
            plan_key(&program, &cfg(), &[("iT".into(), 1)], Some(&hier), &[7]),
            plan_key(&program, &cfg(), &pairs, None, &[7]),
        ];
        let programs: [fn(&mut Program); 7] = [
            |p| p.name.push('2'),
            |p| p.params[0] = "M".into(),
            |p| p.arrays[0].extents[0].constant += 1,
            |p| {
                let d = &p.stmts[0].domain;
                let mut cs = d.constraints().to_vec();
                let c = d.space().const_col();
                cs[0].coeffs.0[c] += 1;
                p.stmts[0].domain = Polyhedron::new(d.space().clone(), cs);
            },
            |p| {
                let m = &p.stmts[0].write.map;
                let mut mat = m.matrix().clone();
                let c = mat.cols() - 1;
                mat[(0, c)] += 1;
                let (i, o) = (m.in_space().clone(), m.out_space().clone());
                p.stmts[0].write.map = AffineMap::new(i, o, mat);
            },
            |p| p.stmts[0].reads[1].array = 0,
            |p| p.stmts[0].body = Expr::Sub(Box::new(Expr::Read(0)), Box::new(Expr::Read(1))),
        ];
        for mutate in programs {
            let mut p = tiled_program();
            mutate(&mut p);
            keys.push(key(&p, &cfg(), &hier));
        }
        let configs: [fn(&mut SmemConfig); 7] = [
            |c| c.delta += 0.1,
            |c| c.must_copy_all ^= true,
            |c| c.staging_pays ^= true,
            |c| c.sample_params = vec![32],
            |c| c.count_budget += 1,
            |c| c.partition ^= true,
            |c| c.residency_dim = None,
        ];
        for mutate in configs {
            let mut c = cfg();
            mutate(&mut c);
            keys.push(key(&program, &c, &hier));
        }
        let hiers: [fn(&mut HierSpec); 3] = [
            |h| h.thread_dims = vec!["iT".into()],
            |h| h.thread_reps[0].1 = 1,
            |h| h.regs_per_inner += 1,
        ];
        for mutate in hiers {
            let mut h = hier.clone();
            mutate(&mut h);
            keys.push(key(&program, &cfg(), &h));
        }
        let distinct: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:?}");
        // Pair order is canonicalized away.
        let two = [("a".to_string(), 1i64), ("b".to_string(), 2i64)];
        let rev = [two[1].clone(), two[0].clone()];
        assert_eq!(
            plan_key(&program, &cfg(), &two, None, &[]),
            plan_key(&program, &cfg(), &rev, None, &[])
        );
    }
}
