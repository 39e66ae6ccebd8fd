//! The launch grid: rounds → blocks → sequential sub-tiles, projected
//! from the lead statement once per launch (§4's tile iterators).

use crate::config::MachineConfig;
use crate::exec::{budget_error, shape_error, BlockedKernel, Representative};
use crate::Result;
use polymem_core::smem::{check_parametrizable, parametrize_domain, HierSpec};
use polymem_ir::Statement;
use polymem_poly::bounds::{bound_cascade, DimBounds};
use polymem_poly::count::enumerate_with_cascade;
use polymem_poly::Polyhedron;
use std::ops::ControlFlow;

/// One tier of the launch grid: the lead statement's shadow on the
/// tier's dims, parametric in the program parameters and the dims of
/// every outer pinned tier, with its bound cascade — the tier's values
/// under any outer coordinates are bound evaluation, not a projection.
struct Tier {
    shadow: Polyhedron,
    cascade: Vec<DimBounds>,
    /// The launch's first sub-block found a value here, so the tier's
    /// dims are part of the launch shape and every sub-block pins them.
    pinned: bool,
}

impl Tier {
    /// The first `limit` values under `outer`, in lexicographic order.
    fn values(&self, outer: &[i64], budget: u64, limit: usize) -> Result<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        enumerate_with_cascade(&self.shadow, &self.cascade, outer, budget, &mut |p| {
            out.push(p.to_vec());
            if out.len() < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        })
        .map_err(budget_error)?;
        Ok(out)
    }
}

/// The launch grid — rounds → blocks → sequential sub-tiles, the tile
/// iterators of the §4 mapping — projected from the lead statement
/// once per launch. A sub-block is addressed by its *grid coordinates*
/// `params ++ round values ++ block values ++ seq values` (pinned tiers
/// only, each tier's dims in domain order); everything analysed over
/// the launch shape evaluates under the same values in sorted-name
/// order ([`LaunchGrid::pparams`]). Names stop here: past
/// construction, a sub-block is a vector.
pub(crate) struct LaunchGrid {
    tiers: Vec<Option<Tier>>,
    /// Names of the pinned dims, in grid-coordinate order (what
    /// `structure_of` zips back onto coordinates for the estimator).
    pub(crate) names: Vec<String>,
    /// The launch shape: the same names sorted, the order
    /// `SymbolicPlan::fixed` extends the parameters in.
    pub(crate) fixed: Vec<String>,
    /// Per entry of `params ++ fixed values`, its index in the grid
    /// coordinates (the parameters stay in front).
    perm: Vec<usize>,
    /// Grid coordinates of the launch's first sub-block — the
    /// representative the shared plan is analysed at *and* the point
    /// the tuner's estimator prices.
    first: Vec<i64>,
    /// The thread dims at their first values in that sub-block, when
    /// the grid was asked for the thread tier and it has a value.
    thread_reps: Option<Vec<(String, i64)>>,
    budget: u64,
}

impl LaunchGrid {
    /// Project every level of `lead` in turn (then `thread_dims`, for
    /// the hierarchy representative), each under the outer levels
    /// pinned at their first values. A level naming a dim `lead` does
    /// not iterate, or a dim another level (or itself) already names,
    /// is a typed error: mapping descriptions cross a trust boundary
    /// (tune artifacts), and a misspelt dim must not run as one
    /// untiled level.
    pub(crate) fn new(
        lead: &Statement,
        levels: &[&[String]],
        thread_dims: &[String],
        params: &[i64],
        budget: u64,
    ) -> Result<LaunchGrid> {
        let mut grid = LaunchGrid {
            tiers: Vec::with_capacity(levels.len()),
            names: Vec::new(),
            fixed: Vec::new(),
            perm: Vec::new(),
            first: params.to_vec(),
            thread_reps: None,
            budget,
        };
        let mut seen: Vec<&String> = Vec::new();
        for (k, dims) in levels.iter().copied().chain([thread_dims]).enumerate() {
            for n in dims {
                if lead.domain.space().find_dim(n).is_none() {
                    return Err(shape_error(
                        "a launch level names a dim the lead statement does not iterate",
                    ));
                }
                if seen.contains(&n) {
                    return Err(shape_error("a launch level names a dim twice"));
                }
                seen.push(n);
            }
            // The thread tier only contributes its first value.
            let thread = k == levels.len();
            if dims.is_empty() {
                if !thread {
                    grid.tiers.push(None);
                }
                continue;
            }
            let sym = parametrize_domain(&lead.domain, &grid.names)?;
            let keep: Vec<usize> = dims
                .iter()
                .filter_map(|n| sym.space().find_dim(n))
                .collect();
            let shadow = sym.project_onto(&keep)?;
            let mut tier = Tier {
                cascade: bound_cascade(&shadow)?,
                shadow,
                pinned: false,
            };
            // The projection keeps domain order, whatever order the
            // level listed its dims in.
            let here = tier.shadow.space().dims().to_vec();
            let v0 = tier.values(&grid.first, budget, 1)?.pop();
            if thread {
                grid.thread_reps = v0.map(|v| here.into_iter().zip(v).collect());
                continue;
            }
            if let Some(v) = v0 {
                tier.pinned = true;
                grid.names.extend(here);
                grid.first.extend(v);
            }
            grid.tiers.push(Some(tier));
        }
        // The symbolic view turns the pinned dims into parameters.
        check_parametrizable(lead.domain.space().params(), &grid.names)?;
        let mut order: Vec<usize> = (0..grid.names.len()).collect();
        order.sort_by(|&a, &b| grid.names[a].cmp(&grid.names[b]));
        grid.fixed = order.iter().map(|&g| grid.names[g].clone()).collect();
        let np = params.len();
        grid.perm = (0..np).chain(order.into_iter().map(|g| np + g)).collect();
        Ok(grid)
    }

    /// The grid coordinates of every instance of tier `k` (0 = round,
    /// 1 = block, 2 = seq) under the outer coordinates `outer`, in
    /// lexicographic order. A tier without dims — or one the launch
    /// shape does not pin — is the single instance `outer` itself; an
    /// instance set that disagrees with the launch shape (a pinned
    /// tier with no value here, or an unpinned one with some) is a
    /// typed error.
    pub(crate) fn scan(&self, k: usize, outer: &[i64]) -> Result<Vec<Vec<i64>>> {
        let Some(tier) = self.tiers.get(k).and_then(Option::as_ref) else {
            return Ok(vec![outer.to_vec()]);
        };
        let vals = tier.values(outer, self.budget, usize::MAX)?;
        if vals.is_empty() == tier.pinned {
            return Err(shape_error(
                "evaluating the launch shape at a sub-block that fixes different dims",
            ));
        }
        if vals.is_empty() {
            return Ok(vec![outer.to_vec()]);
        }
        Ok(vals.iter().map(|v| [outer, v].concat()).collect())
    }

    /// `params ++ fixed values` of the sub-block at grid coordinates
    /// `coords`: the parameter vector the plan, the layouts and the
    /// streams all evaluate under.
    pub(crate) fn pparams(&self, coords: &[i64]) -> Vec<i64> {
        debug_assert_eq!(coords.len(), self.perm.len());
        self.perm.iter().map(|&g| coords[g]).collect()
    }

    /// The representative of a launch of `kernel` on this grid.
    pub(crate) fn representative(
        &self,
        kernel: &BlockedKernel,
        config: &MachineConfig,
    ) -> Representative {
        let n_params = self.first.len() - self.names.len();
        let vals = self.pparams(&self.first).split_off(n_params);
        let hier = self.thread_reps.clone().map(|thread_reps| HierSpec {
            thread_dims: kernel.thread_dims.clone(),
            thread_reps,
            regs_per_inner: config.regs_per_inner,
        });
        (self.fixed.iter().cloned().zip(vals).collect(), hier)
    }
}

/// Whether the sub-tile at grid coordinates `cur` directly follows the
/// one at `prev` along the dim at coordinate `at`, every other
/// coordinate equal: the predecessor residency retains across.
pub(crate) fn follows(prev: &[i64], cur: &[i64], at: usize) -> bool {
    (prev.iter().zip(cur).enumerate()).all(|(i, (p, c))| *c == p + i64::from(i == at))
}

/// The grid of a launch of `kernel`: round and block tiers, the seq
/// tier when the mapping stages (an unstaged block is one sub-tile),
/// and the thread tier when the register level is on.
pub(crate) fn launch_grid(
    kernel: &BlockedKernel,
    params: &[i64],
    config: &MachineConfig,
    lead: &Statement,
) -> Result<LaunchGrid> {
    let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
    let staged = if kernel.use_scratchpad { 3 } else { 2 };
    // Register-tile level: the intra-thread subnest of the
    // representative block is analysed with the thread dims as extra
    // fixed dims; their representative values feed Algorithm 1's
    // volume test like the block values do.
    let threads: &[String] = if kernel.use_scratchpad && config.hierarchy {
        &kernel.thread_dims
    } else {
        &[]
    };
    LaunchGrid::new(lead, &levels[..staged], threads, params, config.enum_budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{blocked_seq, carry_kernel, flush_kernel, golden_builtins};
    use crate::MachineError;
    use polymem_core::tiling::transform::{fix_dims, tile_program, TileSpec};
    use polymem_ir::expr::v;
    use polymem_ir::{Expr, LinExpr, ProgramBuilder};
    use polymem_poly::count::enumerate_points;
    use polymem_poly::PolyError;
    use proptest::prelude::*;

    /// The parent's name-keyed dim context (sorted, as the plan wants
    /// the values).
    type Pins = std::collections::BTreeMap<String, i64>;

    /// The parent's `enumerate_named`: pin `fixed` by name, project
    /// the lead domain onto `names`, substitute the parameters,
    /// enumerate — one Fourier–Motzkin projection per level instance.
    fn reference_level(
        lead: &Statement,
        names: &[String],
        params: &[i64],
        fixed: &Pins,
    ) -> Vec<Vec<i64>> {
        if names.is_empty() {
            return Vec::new();
        }
        let fixed = fixed.iter().map(|(n, v)| (n.clone(), *v)).collect();
        let dom = fix_dims(&lead.domain, &fixed);
        let keep: Vec<usize> = names
            .iter()
            .map(|n| dom.space().find_dim(n).expect("level dim of the lead"))
            .collect();
        let concrete = dom
            .project_onto(&keep)
            .and_then(|p| p.substitute_params(params))
            .unwrap();
        let mut out = Vec::new();
        enumerate_points(&concrete, 1 << 20, &mut |p| out.push(p.to_vec())).unwrap();
        out
    }

    /// Walk the launch the way the parent's executor did — name-keyed
    /// pins, one projection per level instance — and demand that the
    /// grid yields the same instances in the same order at every tier
    /// and the same `params ++ sorted fixed values` per sub-block.
    /// Where a level's emptiness departs from the first sub-block's
    /// (the launch shape) the parent failed evaluating the shape
    /// there; the grid must answer the same typed error.
    struct GridWalk<'a> {
        grid: LaunchGrid,
        lead: &'a Statement,
        levels: [&'a [String]; 3],
        params: &'a [i64],
        /// Per tier: did the first sub-block find a value?
        shape: [Option<bool>; 3],
        sub_blocks: u64,
        mismatches: u64,
    }

    impl GridWalk<'_> {
        fn tier(&mut self, k: usize, coords: &[i64], pins: &Pins) {
            if k == 3 {
                let want: Vec<i64> = (self.params.iter()).chain(pins.values()).copied().collect();
                assert_eq!(self.grid.pparams(coords), want);
                self.sub_blocks += 1;
                return;
            }
            let vals = reference_level(self.lead, self.levels[k], self.params, pins);
            let pinned = *self.shape[k].get_or_insert(!vals.is_empty());
            let got = self.grid.scan(k, coords);
            if vals.is_empty() == pinned && !self.levels[k].is_empty() {
                assert!(
                    matches!(
                        got,
                        Err(MachineError::Poly(PolyError::SpaceMismatch { .. }))
                    ),
                    "tier {k} at {coords:?}: {got:?}"
                );
                self.mismatches += 1;
                return;
            }
            let vals = if vals.is_empty() { vec![vec![]] } else { vals };
            let want: Vec<Vec<i64>> = vals.iter().map(|v| [coords, v].concat()).collect();
            assert_eq!(got.unwrap(), want, "tier {k} at {coords:?}");
            for (at, v) in want.iter().zip(&vals) {
                let mut inner = pins.clone();
                inner.extend(self.levels[k].iter().cloned().zip(v.iter().copied()));
                self.tier(k + 1, at, &inner);
            }
        }
    }

    /// Sub-blocks visited and shape mismatches met walking `kernel`'s
    /// grid against the reference.
    fn walk_grid(kernel: &BlockedKernel, params: &[i64]) -> (u64, u64) {
        let lead = &kernel.program.stmts[0];
        let levels: [&[String]; 3] = [&kernel.round_dims, &kernel.block_dims, &kernel.seq_dims];
        let mut walk = GridWalk {
            grid: LaunchGrid::new(lead, &levels, &[], params, 1 << 20).unwrap(),
            lead,
            levels,
            params,
            shape: [None; 3],
            sub_blocks: 0,
            mismatches: 0,
        };
        walk.tier(0, params, &Pins::new());
        (walk.sub_blocks, walk.mismatches)
    }

    #[test]
    fn grid_is_the_per_level_projection_on_the_builtins() {
        for seq in [false, true] {
            for (name, k, params) in golden_builtins(seq) {
                let (sub_blocks, mismatches) = walk_grid(&k, &params);
                assert!(sub_blocks > 1, "{name} seq={seq}: {sub_blocks} sub-blocks");
                assert_eq!(mismatches, 0, "{name} seq={seq}");
            }
        }
        for k in [flush_kernel(), carry_kernel().1] {
            assert_eq!(walk_grid(&k, &[8, 12][..k.program.params.len()]).1, 0);
        }
    }

    #[test]
    fn grid_is_the_per_level_projection_on_a_triangular_domain() {
        // j <= i: the jT range of a block row depends on its iT.
        let mut b = ProgramBuilder::new("tri", ["N"]);
        b.array("T", &[v("N"), v("N")]);
        b.stmt("S")
            .loops(&[
                ("i", LinExpr::c(0), v("N") - 1),
                ("j", LinExpr::c(0), v("i")),
            ])
            .write("T", &[v("i"), v("j")])
            .body(Expr::Const(1))
            .done();
        let p = b.build().unwrap();
        let t = tile_program(&p, &TileSpec::new(&[("i", 4), ("j", 3)], "T")).unwrap();
        let dims = |d: &[&str]| d.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        for (round, block, seq) in [
            (vec![], dims(&["iT", "jT"]), vec![]),
            (vec![], dims(&["iT"]), dims(&["jT"])),
            (dims(&["iT"]), dims(&["jT"]), vec![]),
            // Tiers against domain order: grid order != sorted order.
            (vec![], dims(&["jT"]), dims(&["iT"])),
        ] {
            let k = BlockedKernel {
                program: t.clone(),
                round_dims: round,
                block_dims: block,
                seq_dims: seq,
                thread_dims: vec![],
                use_scratchpad: true,
            };
            // Tile row iT holds i <= min(4 iT + 3, 12), hence the jT
            // values 0..=i/3: 2 + 3 + 4 + 5 tiles.
            let (sub_blocks, mismatches) = walk_grid(&k, &[13]);
            assert_eq!((sub_blocks, mismatches), (14, 0), "{:?}", k.seq_dims);
        }
    }

    #[test]
    fn grid_answers_a_hollow_fibre_with_the_shape_mismatch() {
        // `launch_shape.rs`'s kernel: `2s = b` leaves block b = 1 with
        // an empty integer fibre over the seq dim the shape pins.
        let mut b = ProgramBuilder::new("hollow", ["N"]);
        b.array("A", &[v("N")]);
        b.array("Out", &[v("N")]);
        b.stmt("S")
            .loops(&[
                ("b", LinExpr::c(0), LinExpr::c(1)),
                ("s", LinExpr::c(0), LinExpr::c(1)),
                ("i", LinExpr::c(0), v("N") - 1),
            ])
            .guard_le(v("b"), v("s") * 2)
            .guard_le(v("s") * 2, v("b"))
            .write("Out", &[v("i")])
            .read("A", &[v("i")])
            .body(Expr::Read(0))
            .done();
        let k = BlockedKernel {
            program: b.build().unwrap(),
            round_dims: vec![],
            block_dims: vec!["b".into()],
            seq_dims: vec!["s".into()],
            thread_dims: vec![],
            use_scratchpad: true,
        };
        assert_eq!(walk_grid(&k, &[8]), (1, 1));
    }

    #[test]
    fn grid_rejects_levels_it_cannot_place() {
        let k = blocked_seq();
        let lead = &k.program.stmts[0];
        let grid = |block: &[&str], seq: &[&str]| {
            let names = |d: &[&str]| d.iter().map(|n| n.to_string()).collect::<Vec<_>>();
            let (block, seq) = (names(block), names(seq));
            LaunchGrid::new(lead, &[&[], &block, &seq], &[], &[10], 1000).map(|g| g.fixed)
        };
        assert_eq!(grid(&["jT"], &["iT"]).unwrap(), ["iT", "jT"]);
        for (block, seq) in [
            (&["iT", "kT"][..], &[][..]),
            (&["iT"], &["iT"]),
            (&["jT", "jT"], &[]),
        ] {
            let got = grid(block, seq);
            assert!(
                matches!(
                    got,
                    Err(MachineError::Poly(PolyError::SpaceMismatch { .. }))
                ),
                "{block:?} {seq:?}: {got:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Generated stencil pipelines under every tier split of a 2-D
        /// tiling, partial edge tiles included.
        #[test]
        fn grid_is_the_per_level_projection_on_generated_programs(
            seed in 0u64..1000,
            n in 5i64..=13,
            ti in 2i64..=5,
            tj in 2i64..=5,
            split in 0usize..=4,
        ) {
            let p = polymem_ir::random_program(seed);
            let t = tile_program(&p, &TileSpec::new(&[("i", ti), ("j", tj)], "T")).unwrap();
            let (it, jt) = ("iT".to_string(), "jT".to_string());
            let (round_dims, block_dims, seq_dims) = match split {
                0 => (vec![], vec![it, jt], vec![]),
                1 => (vec![], vec![it], vec![jt]),
                2 => (vec![it], vec![jt], vec![]),
                3 => (vec![], vec![jt], vec![it]),
                _ => (vec![jt], vec![], vec![it]),
            };
            let k = BlockedKernel {
                program: t,
                round_dims,
                block_dims,
                seq_dims,
                thread_dims: vec![],
                use_scratchpad: true,
            };
            let (sub_blocks, mismatches) = walk_grid(&k, &[n]);
            let tiles = |size: i64| ((n + size - 1) / size) as u64;
            prop_assert_eq!(sub_blocks, tiles(ti) * tiles(tj));
            prop_assert_eq!(mismatches, 0);
        }
    }
}
