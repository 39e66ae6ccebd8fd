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
//! [`plan_key`] hashes, with a 128-bit FNV-1a pair (two independent
//! lanes with distinct offset bases):
//!
//! * the **canonical program IR**: parameter names, array declarations
//!   (extent [`LinExpr`]s in `BTreeMap` coefficient order), and every
//!   statement's domain (space names plus constraint rows as
//!   `(kind, coefficients)` — the same canonical-content discipline
//!   the polyhedral memoizer keys with), access matrices and body
//!   expression trees;
//! * the **analysis configuration** ([`SmemConfig`]): δ, copy-all,
//!   sample parameters, count budget, partitioning, residency dim,
//!   plus the optional register-level [`HierSpec`];
//! * the **block-shape parametrization**: the sorted
//!   `(fixed dim, representative value)` pairs of the symbolic view;
//! * caller-supplied **salt words** — the machine layer folds in its
//!   mapping-relevant [`MachineConfig`] fields here, so a GPU plan is
//!   never served to a Cell-like launch.
//!
//! # Artifact contents and load validation
//!
//! A [`PlanArtifact`] carries the full two-level [`SymbolicPlan`]
//! (buffers, rewrites, movement ASTs, register level, residency
//! plans) plus three derived streams: the per-statement **bytecode**
//! instruction streams, the **lowered address rows** of every
//! rewritten access, and representative **DMA descriptor lists** per
//! movement group. Loads are validated in layers, and any failure
//! makes [`ArtifactStore::load`] return `None` so the caller falls
//! back to a fresh compile — a corrupt or stale artifact can cost a
//! recompile, never incorrect execution:
//!
//! 1. envelope: magic, [`FORMAT_VERSION`], [`SCHEMA_HASH`] (a hash of
//!    the codec layout descriptor, bumped whenever any encoded type
//!    changes shape), payload checksum, and key equality;
//! 2. structural decode: every length is bounds-checked against the
//!    remaining payload, every polyhedron/map is rebuilt through the
//!    same validating constructors the passes use, and bytecode
//!    streams must re-pass [`BodyCode::from_ops`]'s stack-discipline
//!    and slot-range proof;
//! 3. re-proof against the program: the bytecode, lowered rows and
//!    descriptor lists are *recomputed* from the decoded plan and the
//!    live program and must match the stored streams bit-for-bit
//!    ([`PlanArtifact::validate`]) — so an artifact built from a
//!    different program version (stale content under a colliding or
//!    hand-edited key) is rejected rather than trusted.

use super::cache::SymbolicPlan;
use super::dataspace::AccessId;
use super::descriptors::{transfer_list, Direction, TransferList};
use super::hierarchy::{HierPlan, HierSpec};
use super::lowering::{lower_rows, LoweredRow};
use super::movement::MovementCode;
use super::residency::{ResidencyPlan, RetainPlan};
use super::reuse::ReuseDecision;
use super::{LocalBuffer, SmemConfig, SmemPlan};
use polymem_codegen::ast::{Ast, LoopBounds};
use polymem_ir::{BodyCode, ByteOp, Expr, LinExpr, Program};
use polymem_linalg::{IMat, IVec};
use polymem_poly::bounds::{AffineForm, BoundList};
use polymem_poly::{AffineMap, Constraint, ConstraintKind, PolyUnion, Polyhedron, Space};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// On-disk format version; bump on any envelope change.
pub const FORMAT_VERSION: u32 = 1;

/// File magic: "polymem plan artifact".
pub const MAGIC: [u8; 4] = *b"PMPA";

/// Layout descriptor of every type the codec serializes. The schema
/// hash stored in each artifact is the FNV of this string, so editing
/// any encoder (and this descriptor with it) invalidates old files
/// even within the same [`FORMAT_VERSION`].
const SCHEMA: &str = "v1:ivec,imat,space,constraint(kind,coeffs),poly,union,map,\
     affform(coeffs,div),boundlist,ast(seq,loop,guard,leaf,empty),\
     accessid,localaccess,droppeddim,unionbound,localbuffer,\
     reusedecision,movement(in,out,rspaces,wspaces),smemplan,\
     passtimes:nanos6,hier(plan,ext,threads,kept,stpos,backing,regs),\
     retain(buffer,atoms,retained,delta,flushdelta,scans3,legal),\
     residency,symbolic(plan,fixed,kept,times,hier,residency),\
     byteop,loweredrow,transferlist,artifact(key,plan,bodies,lowered,\
     tparams,transfers)";

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
/// The multiplier of everything this module persists (plan keys, the
/// schema hash, envelope checksums). It is one hex digit longer than
/// [`FNV_PRIME`] and frozen: every stored artifact's name, the golden
/// launch keys and the daemon's `ping` schema are values of it.
const KEY_PRIME: u64 = 0x1000_0000_01b3;

/// Fold `bytes` into the 64-bit FNV-1a state `h` with multiplier
/// `prime`. The one FNV loop in the tree: artifact keys and envelope
/// checksums ([`KEY_PRIME`]), the tune artifact's checksum and the
/// serve protocol's result fingerprint ([`FNV_PRIME`]) all hash
/// through it.
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

/// Incremental two-lane FNV-1a hasher used for key derivation. The
/// write methods length-prefix variable-size inputs, so adjacent
/// fields can never alias (`"ab","c"` hashes differently from
/// `"a","bc"`).
#[derive(Clone, Debug)]
pub struct KeyHasher {
    lo: u64,
    hi: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// A fresh hasher at the FNV offset bases.
    pub fn new() -> KeyHasher {
        KeyHasher {
            lo: FNV_OFFSET,
            hi: FNV_OFFSET_HI,
        }
    }

    /// Raw bytes, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.lo = fnv1a(self.lo, KEY_PRIME, b);
        self.hi = fnv1a(self.hi, KEY_PRIME, b);
    }

    /// One word, no prefix.
    pub fn u64(&mut self, v: u64) {
        let b = v.to_le_bytes();
        self.lo = fnv1a(self.lo, KEY_PRIME, &b);
        self.hi = fnv1a(self.hi, KEY_PRIME, &b);
    }

    /// One signed word.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64)
    }

    /// A string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes())
    }

    /// The finished key.
    pub fn finish(&self) -> ArtifactKey {
        ArtifactKey {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

fn hash_linexpr(h: &mut KeyHasher, e: &LinExpr) {
    // BTreeMap iteration order is deterministic by key.
    h.u64(e.coeffs.len() as u64);
    for (name, c) in &e.coeffs {
        h.str(name);
        h.i64(*c);
    }
    h.i64(e.constant);
}

fn hash_space(h: &mut KeyHasher, s: &Space) {
    h.u64(s.dims().len() as u64);
    for d in s.dims() {
        h.str(d);
    }
    h.u64(s.params().len() as u64);
    for p in s.params() {
        h.str(p);
    }
}

fn hash_poly(h: &mut KeyHasher, p: &Polyhedron) {
    hash_space(h, p.space());
    h.u64(p.constraints().len() as u64);
    for c in p.constraints() {
        h.u64(match c.kind {
            ConstraintKind::Ineq => 0,
            ConstraintKind::Eq => 1,
        });
        h.u64(c.coeffs.0.len() as u64);
        for &v in &c.coeffs.0 {
            h.i64(v);
        }
    }
}

fn hash_map(h: &mut KeyHasher, m: &AffineMap) {
    hash_space(h, m.in_space());
    hash_space(h, m.out_space());
    let mat = m.matrix();
    h.u64(mat.rows() as u64);
    h.u64(mat.cols() as u64);
    for r in 0..mat.rows() {
        for &v in mat.row(r) {
            h.i64(v);
        }
    }
}

fn hash_expr(h: &mut KeyHasher, e: &Expr) {
    match e {
        Expr::Read(i) => {
            h.u64(0);
            h.u64(*i as u64);
        }
        Expr::Iter(i) => {
            h.u64(1);
            h.u64(*i as u64);
        }
        Expr::Param(i) => {
            h.u64(2);
            h.u64(*i as u64);
        }
        Expr::Const(c) => {
            h.u64(3);
            h.i64(*c);
        }
        Expr::Add(a, b) => {
            h.u64(4);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Sub(a, b) => {
            h.u64(5);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Mul(a, b) => {
            h.u64(6);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Div(a, b) => {
            h.u64(7);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Min(a, b) => {
            h.u64(8);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Max(a, b) => {
            h.u64(9);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Expr::Abs(a) => {
            h.u64(10);
            hash_expr(h, a);
        }
    }
}

/// Fold a program's canonical form into `h` — the same
/// content-not-identity discipline the polyhedral memoizer uses for
/// constraint systems, extended over the whole IR.
pub fn hash_program(h: &mut KeyHasher, program: &Program) {
    h.str(&program.name);
    h.u64(program.params.len() as u64);
    for p in &program.params {
        h.str(p);
    }
    h.u64(program.arrays.len() as u64);
    for a in &program.arrays {
        h.str(&a.name);
        h.u64(a.extents.len() as u64);
        for e in &a.extents {
            hash_linexpr(h, e);
        }
    }
    h.u64(program.stmts.len() as u64);
    for s in &program.stmts {
        h.str(&s.name);
        hash_poly(h, &s.domain);
        h.u64(s.write.array as u64);
        hash_map(h, &s.write.map);
        h.u64(s.reads.len() as u64);
        for r in &s.reads {
            h.u64(r.array as u64);
            hash_map(h, &r.map);
        }
        hash_expr(h, &s.body);
    }
}

/// The stable content address of the symbolic plan produced by
/// `analyze_symbolic_hier(program, pairs, cfg, hier)`. `salt` is for
/// the caller's own mapping-relevant knobs (machine model fields);
/// same inputs ⇒ same key, across processes and machines.
pub fn plan_key(
    program: &Program,
    cfg: &SmemConfig,
    pairs: &[(String, i64)],
    hier: Option<&HierSpec>,
    salt: &[u64],
) -> ArtifactKey {
    let mut h = KeyHasher::new();
    h.u64(FORMAT_VERSION as u64);
    h.u64(schema_hash());
    hash_program(&mut h, program);
    // Analysis configuration.
    h.u64(cfg.delta.to_bits());
    h.u64(cfg.must_copy_all as u64);
    h.u64(cfg.staging_pays as u64);
    h.u64(cfg.sample_params.len() as u64);
    for &p in &cfg.sample_params {
        h.i64(p);
    }
    h.u64(cfg.count_budget);
    h.u64(cfg.partition as u64);
    match &cfg.residency_dim {
        Some(d) => {
            h.u64(1);
            h.str(d);
        }
        None => h.u64(0),
    }
    // Block-shape parametrization, order-independent.
    let mut sorted: Vec<&(String, i64)> = pairs.iter().collect();
    sorted.sort();
    h.u64(sorted.len() as u64);
    for (name, v) in sorted {
        h.str(name);
        h.i64(*v);
    }
    // Register level.
    match hier {
        Some(spec) => {
            h.u64(1);
            h.u64(spec.thread_dims.len() as u64);
            for d in &spec.thread_dims {
                h.str(d);
            }
            h.u64(spec.thread_reps.len() as u64);
            for (d, v) in &spec.thread_reps {
                h.str(d);
                h.i64(*v);
            }
            h.u64(spec.regs_per_inner);
        }
        None => h.u64(0),
    }
    h.u64(salt.len() as u64);
    for &w in salt {
        h.u64(w);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

/// Decode failure (any structural violation). Carries no detail: the
/// only recovery is a fresh compile, and the store treats every
/// corrupt artifact identically.
#[derive(Debug)]
struct Corrupt;

type DResult<T> = std::result::Result<T, Corrupt>;

/// Append-only encoder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Enc, &T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }
    fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }
}

/// Bounds-checked cursor over an encoded payload. Every read
/// validates against the remaining bytes; a `Vec` length prefix may
/// never exceed the remaining payload (each element costs ≥ 1 byte),
/// so a corrupt length cannot trigger an outsized allocation.
struct Dec<'a> {
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
    fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> DResult<i64> {
        Ok(self.u64()? as i64)
    }
    fn usize(&mut self) -> DResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Corrupt)
    }
    fn boolean(&mut self) -> DResult<bool> {
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
    fn str(&mut self) -> DResult<String> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Corrupt)
    }
    fn opt<T>(&mut self, f: impl FnOnce(&mut Dec<'a>) -> DResult<T>) -> DResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(Corrupt),
        }
    }
    fn seq<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> DResult<T>) -> DResult<Vec<T>> {
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

fn get_ivec(d: &mut Dec) -> DResult<IVec> {
    Ok(IVec(d.seq(|d| d.i64())?))
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

fn get_poly(d: &mut Dec) -> DResult<Polyhedron> {
    let space = get_space(d)?;
    let cs = d.seq(get_constraint)?;
    // `Polyhedron::new` asserts row width; re-check here so a corrupt
    // file degrades to a decode failure instead of a panic.
    let width = space.n_cols();
    if cs.iter().any(|c| c.coeffs.0.len() != width) {
        return Err(Corrupt);
    }
    Ok(Polyhedron::new(space, cs))
}

fn put_union(e: &mut Enc, u: &PolyUnion) {
    e.seq(u.members(), put_poly);
}

fn get_union(d: &mut Dec) -> DResult<PolyUnion> {
    let members = d.seq(get_poly)?;
    PolyUnion::from_members(members).map_err(|_| Corrupt)
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
    if div == 0 {
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
    e.seq(&b.dropped, |e, dd| {
        e.usize(dd.dim);
        put_affform(e, &dd.expr);
    });
    e.seq(&b.bounds, |e, ub| {
        e.seq(&ub.lowers, put_boundlist);
        e.seq(&ub.uppers, put_boundlist);
    });
    e.seq(&b.data_spaces, put_poly);
}

fn get_buffer(d: &mut Dec) -> DResult<LocalBuffer> {
    use super::alloc::{DroppedDim, UnionBound};
    Ok(LocalBuffer {
        id: d.usize()?,
        array: d.usize()?,
        array_name: d.str()?,
        n_array_dims: d.usize()?,
        kept_dims: d.seq(|d| d.usize())?,
        dropped: d.seq(|d| {
            Ok(DroppedDim {
                dim: d.usize()?,
                expr: get_affform(d)?,
            })
        })?,
        bounds: d.seq(|d| {
            Ok(UnionBound {
                lowers: d.seq(get_boundlist)?,
                uppers: d.seq(get_boundlist)?,
            })
        })?,
        data_spaces: d.seq(get_poly)?,
    })
}

fn put_movement(e: &mut Enc, m: &MovementCode) {
    e.usize(m.buffer);
    put_ast(e, &m.move_in);
    put_ast(e, &m.move_out);
    e.seq(&m.read_spaces, put_poly);
    e.seq(&m.write_spaces, put_poly);
}

fn get_movement(d: &mut Dec) -> DResult<MovementCode> {
    Ok(MovementCode {
        buffer: d.usize()?,
        move_in: get_ast(d, 0)?,
        move_out: get_ast(d, 0)?,
        read_spaces: d.seq(get_poly)?,
        write_spaces: d.seq(get_poly)?,
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

fn put_duration(e: &mut Enc, t: &Duration) {
    e.u64(t.as_nanos().min(u64::MAX as u128) as u64);
}

fn get_duration(d: &mut Dec) -> DResult<Duration> {
    Ok(Duration::from_nanos(d.u64()?))
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
    e.usize(r.buffer);
    e.seq(&r.atoms, put_poly);
    put_union(e, &r.retained);
    put_union(e, &r.delta_in);
    put_union(e, &r.flush_delta);
    put_ast(e, &r.retained_scan);
    put_ast(e, &r.delta_scan);
    put_ast(e, &r.flush_scan);
    e.boolean(r.flush_legal);
}

fn get_retain(d: &mut Dec) -> DResult<RetainPlan> {
    Ok(RetainPlan {
        buffer: d.usize()?,
        atoms: d.seq(get_poly)?,
        retained: get_union(d)?,
        delta_in: get_union(d)?,
        flush_delta: get_union(d)?,
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
    put_duration(e, &sp.pass_times.dataspace);
    put_duration(e, &sp.pass_times.partition);
    put_duration(e, &sp.pass_times.reuse);
    put_duration(e, &sp.pass_times.alloc);
    put_duration(e, &sp.pass_times.movement);
    put_duration(e, &sp.pass_times.hierarchy);
    e.opt(&sp.hier, put_hier);
    e.opt(&sp.residency, put_residency);
}

fn get_symbolic(d: &mut Dec) -> DResult<SymbolicPlan> {
    let plan = get_smem_plan(d)?;
    let fixed = d.seq(|d| d.str())?;
    let kept_dims = d.seq(|d| d.seq(|d| d.usize()))?;
    let pass_times = super::PassTimes {
        dataspace: get_duration(d)?,
        partition: get_duration(d)?,
        reuse: get_duration(d)?,
        alloc: get_duration(d)?,
        movement: get_duration(d)?,
        hierarchy: get_duration(d)?,
    };
    let hier = d.opt(get_hier)?;
    let residency = d.opt(get_residency)?;
    Ok(SymbolicPlan {
        plan,
        fixed,
        kept_dims,
        pass_times,
        hier,
        residency,
    })
}

// --- derived streams ---

fn put_byteop(e: &mut Enc, op: &ByteOp) {
    match op {
        ByteOp::Read(i) => {
            e.u8(0);
            e.u32(*i);
        }
        ByteOp::Iter(i) => {
            e.u8(1);
            e.u32(*i);
        }
        ByteOp::Param(i) => {
            e.u8(2);
            e.u32(*i);
        }
        ByteOp::Const(c) => {
            e.u8(3);
            e.i64(*c);
        }
        ByteOp::Add => e.u8(4),
        ByteOp::Sub => e.u8(5),
        ByteOp::Mul => e.u8(6),
        ByteOp::CheckDiv => e.u8(7),
        ByteOp::Div => e.u8(8),
        ByteOp::Min => e.u8(9),
        ByteOp::Max => e.u8(10),
        ByteOp::Abs => e.u8(11),
    }
}

fn get_byteop(d: &mut Dec) -> DResult<ByteOp> {
    Ok(match d.u8()? {
        0 => ByteOp::Read(d.u32()?),
        1 => ByteOp::Iter(d.u32()?),
        2 => ByteOp::Param(d.u32()?),
        3 => ByteOp::Const(d.i64()?),
        4 => ByteOp::Add,
        5 => ByteOp::Sub,
        6 => ByteOp::Mul,
        7 => ByteOp::CheckDiv,
        8 => ByteOp::Div,
        9 => ByteOp::Min,
        10 => ByteOp::Max,
        11 => ByteOp::Abs,
        _ => return Err(Corrupt),
    })
}

fn put_lowered_row(e: &mut Enc, r: &LoweredRow) {
    e.seq(&r.kcoef, |e, &v| e.i64(v));
    e.seq(&r.pcoef, |e, &v| e.i64(v));
    e.i64(r.konst);
}

fn get_lowered_row(d: &mut Dec) -> DResult<LoweredRow> {
    Ok(LoweredRow {
        kcoef: d.seq(|d| d.i64())?,
        pcoef: d.seq(|d| d.i64())?,
        konst: d.i64()?,
    })
}

fn put_transfer_list(e: &mut Enc, t: &TransferList) {
    e.seq(&t.descriptors, |e, td| {
        e.i64(td.global_base);
        e.i64(td.local_base);
        e.i64(td.elem_count);
        e.i64(td.stride);
        e.i64(td.n_rows);
        e.i64(td.global_row_stride);
        e.i64(td.local_stride);
        e.i64(td.local_row_stride);
    });
    e.u64(t.elements);
}

fn get_transfer_list(d: &mut Dec) -> DResult<TransferList> {
    use super::descriptors::TransferDescriptor;
    Ok(TransferList {
        descriptors: d.seq(|d| {
            Ok(TransferDescriptor {
                global_base: d.i64()?,
                local_base: d.i64()?,
                elem_count: d.i64()?,
                stride: d.i64()?,
                n_rows: d.i64()?,
                global_row_stride: d.i64()?,
                local_stride: d.i64()?,
                local_row_stride: d.i64()?,
            })
        })?,
        elements: d.u64()?,
    })
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

/// One serialized compile result: the symbolic plan plus the derived
/// streams the compiled execution engine consumes, all revalidated on
/// load (see the module docs).
#[derive(Clone, Debug)]
pub struct PlanArtifact {
    /// Content address this artifact was compiled under.
    pub key: ArtifactKey,
    /// The full two-level symbolic plan (scratchpad + register +
    /// residency).
    pub plan: SymbolicPlan,
    /// Per-statement bytecode instruction streams of the program
    /// bodies, in statement order.
    pub bodies: Vec<Vec<ByteOp>>,
    /// Lowered address rows of every rewritten (scratchpad-level)
    /// access, sorted by access id.
    pub lowered: Vec<(AccessId, Vec<LoweredRow>)>,
    /// Extended parameter vector (program params ++ representative
    /// fixed values) the descriptor lists below were generated at;
    /// empty when no representative was available.
    pub transfer_params: Vec<i64>,
    /// Representative move-in DMA descriptor lists, one per movement
    /// group (empty list where generation failed, e.g. unbounded
    /// scans).
    pub transfers: Vec<TransferList>,
}

impl PlanArtifact {
    /// Assemble an artifact from a freshly analysed plan. `ext` is
    /// the plan's extended parameter vector (program params then the
    /// representative fixed values, in `plan.fixed` order); pass an
    /// empty slice to skip descriptor generation.
    pub fn build(
        program: &Program,
        plan: &SymbolicPlan,
        key: ArtifactKey,
        ext: &[i64],
    ) -> super::Result<PlanArtifact> {
        let mut bodies = Vec::with_capacity(program.stmts.len());
        for s in &program.stmts {
            let code = BodyCode::compile(&s.body, s.reads.len(), s.depth(), program.params.len())?;
            bodies.push(code.ops().to_vec());
        }
        let mut ids: Vec<&AccessId> = plan.plan.rewrites.keys().collect();
        ids.sort_by_key(|id| (id.stmt, id.read_idx.is_some(), id.read_idx));
        let lowered = ids
            .into_iter()
            .map(|id| (*id, lower_rows(&plan.plan.rewrites[id].map)))
            .collect();
        let ok_ext = ext.len() == program.params.len() + plan.fixed.len();
        let transfers = plan
            .plan
            .movement
            .iter()
            .map(|mc| {
                if !ok_ext {
                    return empty_list();
                }
                let buffer = &plan.plan.buffers[mc.buffer];
                let aext = program.arrays[buffer.array]
                    .eval_extents(&program.params, &ext[..program.params.len()]);
                match aext {
                    Ok(aext) => transfer_list(mc, buffer, Direction::In, &aext, ext)
                        .unwrap_or_else(|_| empty_list()),
                    Err(_) => empty_list(),
                }
            })
            .collect();
        Ok(PlanArtifact {
            key,
            plan: plan.clone(),
            bodies,
            lowered,
            transfer_params: if ok_ext { ext.to_vec() } else { Vec::new() },
            transfers,
        })
    }

    /// Re-prove the derived streams against the live program: the
    /// bytecode, lowered rows and descriptor lists are recomputed
    /// from the decoded plan and must match the stored bytes exactly.
    /// `false` means the artifact is stale (or the key collided) and
    /// must be recompiled.
    pub fn validate(&self, program: &Program) -> bool {
        let Ok(fresh) = PlanArtifact::build(program, &self.plan, self.key, &self.transfer_params)
        else {
            return false;
        };
        // Stored bytecode must also stand on its own: `from_ops`
        // re-proves stack discipline and slot ranges even though the
        // equality check below would catch today's compiler output.
        for (ops, s) in self.bodies.iter().zip(&program.stmts) {
            if BodyCode::from_ops(ops.clone(), s.reads.len(), s.depth(), program.params.len())
                .is_err()
            {
                return false;
            }
        }
        let enc = |a: &PlanArtifact| {
            let mut e = Enc::default();
            e.seq(&a.bodies, |e, ops| e.seq(ops, put_byteop));
            e.usize(a.lowered.len());
            for (id, rows) in &a.lowered {
                put_access_id(&mut e, id);
                e.seq(rows, put_lowered_row);
            }
            e.seq(&a.transfer_params, |e, &p| e.i64(p));
            e.seq(&a.transfers, put_transfer_list);
            e.buf
        };
        enc(self) == enc(&fresh)
    }
}

fn empty_list() -> TransferList {
    TransferList {
        descriptors: Vec::new(),
        elements: 0,
    }
}

/// Serialize an artifact to its on-disk byte representation
/// (envelope + payload + checksum).
pub fn encode_artifact(a: &PlanArtifact) -> Vec<u8> {
    let mut p = Enc::default();
    put_symbolic(&mut p, &a.plan);
    p.seq(&a.bodies, |e, ops| e.seq(ops, put_byteop));
    p.usize(a.lowered.len());
    for (id, rows) in &a.lowered {
        put_access_id(&mut p, id);
        p.seq(rows, put_lowered_row);
    }
    p.seq(&a.transfer_params, |e, &v| e.i64(v));
    p.seq(&a.transfers, put_transfer_list);
    let payload = p.buf;

    let mut e = Enc::default();
    e.buf.extend_from_slice(&MAGIC);
    e.u32(FORMAT_VERSION);
    e.u64(schema_hash());
    e.u64(a.key.lo);
    e.u64(a.key.hi);
    e.usize(payload.len());
    e.buf.extend_from_slice(&payload);
    e.u64(fnv1a(FNV_OFFSET, KEY_PRIME, &payload));
    e.buf
}

/// Decode an on-disk artifact. `None` on any envelope or structural
/// violation (wrong magic/version/schema, bad checksum, truncated or
/// corrupt payload) — never a panic, never partial data.
pub fn decode_artifact(bytes: &[u8]) -> Option<PlanArtifact> {
    decode_inner(bytes).ok()
}

fn decode_inner(bytes: &[u8]) -> DResult<PlanArtifact> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != MAGIC {
        return Err(Corrupt);
    }
    if d.u32()? != FORMAT_VERSION {
        return Err(Corrupt);
    }
    if d.u64()? != schema_hash() {
        return Err(Corrupt);
    }
    let key = ArtifactKey {
        lo: d.u64()?,
        hi: d.u64()?,
    };
    let plen = d.len()?;
    let payload = d.take(plen)?;
    if d.u64()? != fnv1a(FNV_OFFSET, KEY_PRIME, payload) {
        return Err(Corrupt);
    }
    if d.remaining() != 0 {
        return Err(Corrupt);
    }
    let mut p = Dec::new(payload);
    let plan = get_symbolic(&mut p)?;
    let bodies = p.seq(|d| d.seq(get_byteop))?;
    let n = p.len()?;
    let mut lowered = Vec::with_capacity(n);
    for _ in 0..n {
        let id = get_access_id(&mut p)?;
        let rows = p.seq(get_lowered_row)?;
        lowered.push((id, rows));
    }
    let transfer_params = p.seq(|d| d.i64())?;
    let transfers = p.seq(get_transfer_list)?;
    if p.remaining() != 0 {
        return Err(Corrupt);
    }
    Ok(PlanArtifact {
        key,
        plan,
        bodies,
        lowered,
        transfer_params,
        transfers,
    })
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A directory of content-addressed plan artifacts, one file per key
/// (`<key>.plan`). Writes are atomic (temp file + rename), so
/// concurrent daemons sharing a store directory can only ever observe
/// complete artifacts; loads validate everything and fall back to
/// `None` on any mismatch.
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

    /// Load and fully validate the artifact at `key`: envelope and
    /// structural checks, key equality, and the derived-stream
    /// re-proof against `program`. Any failure (including a missing
    /// file) returns `None` — the caller compiles fresh.
    pub fn load(&self, key: &ArtifactKey, program: &Program) -> Option<PlanArtifact> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        let artifact = decode_artifact(&bytes)?;
        if artifact.key != *key || !artifact.validate(program) {
            return None;
        }
        Some(artifact)
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
        analyze_symbolic_hier(program, &[("iT".into(), 0)], &cfg, None).unwrap()
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
        let back = decode_artifact(&bytes).expect("decodes");
        // Decoded artifacts re-encode to the same bytes (canonical
        // form is a fixpoint) and survive the full re-proof.
        assert_eq!(encode_artifact(&back), bytes);
        assert!(back.validate(&program));
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
        // Version mismatch.
        let mut v = bytes.clone();
        v[4] ^= 0xff;
        assert!(decode_artifact(&v).is_none());
        // Schema mismatch.
        let mut s = bytes.clone();
        s[8] ^= 0xff;
        assert!(decode_artifact(&s).is_none());
        // Truncation at every prefix length stays a clean None.
        for cut in [0, 3, 4, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_artifact(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Payload bit-flip breaks the checksum.
        let mut c = bytes.clone();
        let mid = 40 + (bytes.len() - 48) / 2;
        c[mid] ^= 0x01;
        assert!(decode_artifact(&c).is_none());
        // A *stale* artifact — valid bytes, different program — fails
        // the derived-stream re-proof instead of being trusted.
        let mut other = tiled_program();
        other.stmts[0].body = Expr::Sub(Box::new(Expr::Read(0)), Box::new(Expr::Read(1)));
        let art2 = decode_artifact(&bytes).unwrap();
        assert!(art2.validate(&program));
        assert!(!art2.validate(&other));
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let program = tiled_program();
        let pairs = [("iT".to_string(), 0i64)];
        let k1 = plan_key(&program, &cfg(), &pairs, None, &[7]);
        let k2 = plan_key(&program, &cfg(), &pairs, None, &[7]);
        assert_eq!(k1, k2, "same inputs, same key");
        // Each input dimension moves the key.
        assert_ne!(k1, plan_key(&program, &cfg(), &pairs, None, &[8]));
        let mut c2 = cfg();
        c2.sample_params = vec![32];
        assert_ne!(k1, plan_key(&program, &c2, &pairs, None, &[7]));
        assert_ne!(
            k1,
            plan_key(&program, &cfg(), &[("iT".into(), 1)], None, &[7])
        );
        let mut p2 = tiled_program();
        p2.stmts[0].body = Expr::Read(0);
        assert_ne!(k1, plan_key(&p2, &cfg(), &pairs, None, &[7]));
        // Pair order is canonicalized away.
        let two = [("a".to_string(), 1i64), ("b".to_string(), 2i64)];
        let rev = [two[1].clone(), two[0].clone()];
        assert_eq!(
            plan_key(&program, &cfg(), &two, None, &[]),
            plan_key(&program, &cfg(), &rev, None, &[])
        );
    }
}
