//! The output check, made apart from the synthesizer: a flat CSG is put
//! into a normal form and two normal forms are compared with a numeric
//! tolerance.
//!
//! The normal form pushes every affine transformation down to the
//! primitives, so each primitive is paired with its composed affine
//! matrix. Unions and intersections become multisets (nested ones are
//! flattened), and a difference becomes its minuend with the multiset of
//! everything subtracted from it. Two programs that differ only in how
//! they nest or order their transformations and boolean operands thus
//! get equal normal forms, while a moved, resized or dropped primitive
//! does not.

use sz_cad::{AffineKind, BoolOp, Cad};

/// A 3×4 affine matrix, row-major: `[r00 r01 r02 t0 r10 … t2]`.
type Affine = [f64; 12];

const IDENTITY: Affine = [
    1.0, 0.0, 0.0, 0.0, //
    0.0, 1.0, 0.0, 0.0, //
    0.0, 0.0, 1.0, 0.0,
];

/// A flat CSG in normal form.
#[derive(Debug, Clone, PartialEq)]
pub enum Normal {
    /// A primitive (or an opaque `External`) under its composed matrix.
    Leaf(String, Affine),
    /// A union of any number of operands; no operand is itself a union.
    /// The empty union is the empty solid.
    Union(Vec<Normal>),
    /// An intersection of two or more operands, none an intersection.
    Inter(Vec<Normal>),
    /// A minuend (never a difference) minus a non-empty multiset.
    Diff(Box<Normal>, Vec<Normal>),
}

impl Normal {
    fn empty() -> Normal {
        Normal::Union(Vec::new())
    }

    fn is_empty(&self) -> bool {
        matches!(self, Normal::Union(items) if items.is_empty())
    }

    /// The operands of a union, or the solid itself.
    fn into_union_items(self) -> Vec<Normal> {
        match self {
            Normal::Union(items) => items,
            other => vec![other],
        }
    }
}

/// Puts a flat CSG into normal form.
///
/// # Errors
///
/// Names the first construct that is not flat CSG (a list, a loop, a
/// vector that is not constant).
pub fn normalize(cad: &Cad) -> Result<Normal, String> {
    normalize_under(cad, &IDENTITY)
}

fn normalize_under(cad: &Cad, m: &Affine) -> Result<Normal, String> {
    Ok(match cad {
        Cad::Empty => Normal::empty(),
        Cad::Unit => Normal::Leaf("Unit".into(), *m),
        Cad::Cylinder => Normal::Leaf("Cylinder".into(), *m),
        Cad::Sphere => Normal::Leaf("Sphere".into(), *m),
        Cad::Hexagon => Normal::Leaf("Hexagon".into(), *m),
        Cad::External(name) => Normal::Leaf(format!("External {name}"), *m),
        Cad::Affine(kind, v, c) => {
            let v = v
                .as_nums()
                .ok_or_else(|| format!("non-constant vector in {cad}"))?;
            normalize_under(c, &compose(m, &affine_of(*kind, v)))?
        }
        Cad::Binop(op, a, b) => {
            let a = normalize_under(a, m)?;
            let b = normalize_under(b, m)?;
            match op {
                BoolOp::Union => {
                    let mut items = a.into_union_items();
                    items.extend(b.into_union_items());
                    single_or_union(items)
                }
                BoolOp::Inter => {
                    if a.is_empty() || b.is_empty() {
                        return Ok(Normal::empty());
                    }
                    let mut items = Vec::new();
                    for x in [a, b] {
                        match x {
                            Normal::Inter(xs) => items.extend(xs),
                            x => items.push(x),
                        }
                    }
                    Normal::Inter(items)
                }
                BoolOp::Diff => {
                    if a.is_empty() || b.is_empty() {
                        return Ok(a);
                    }
                    match a {
                        Normal::Diff(minuend, mut subtrahends) => {
                            subtrahends.extend(b.into_union_items());
                            Normal::Diff(minuend, subtrahends)
                        }
                        a => Normal::Diff(Box::new(a), b.into_union_items()),
                    }
                }
            }
        }
        other => return Err(format!("not flat CSG: {other}")),
    })
}

fn single_or_union(mut items: Vec<Normal>) -> Normal {
    if items.len() == 1 {
        items.pop().expect("one item")
    } else {
        Normal::Union(items)
    }
}

/// The matrix of one transformation, with OpenSCAD's conventions:
/// angles in degrees, `rotate([x, y, z])` = Rz·Ry·Rx.
fn affine_of(kind: AffineKind, [x, y, z]: [f64; 3]) -> Affine {
    match kind {
        AffineKind::Translate => [
            1.0, 0.0, 0.0, x, //
            0.0, 1.0, 0.0, y, //
            0.0, 0.0, 1.0, z,
        ],
        AffineKind::Scale => [
            x, 0.0, 0.0, 0.0, //
            0.0, y, 0.0, 0.0, //
            0.0, 0.0, z, 0.0,
        ],
        AffineKind::Rotate => {
            let (sx, cx) = x.to_radians().sin_cos();
            let (sy, cy) = y.to_radians().sin_cos();
            let (sz, cz) = z.to_radians().sin_cos();
            let rx = [
                1.0, 0.0, 0.0, 0.0, //
                0.0, cx, -sx, 0.0, //
                0.0, sx, cx, 0.0,
            ];
            let ry = [
                cy, 0.0, sy, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                -sy, 0.0, cy, 0.0,
            ];
            let rz = [
                cz, -sz, 0.0, 0.0, //
                sz, cz, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0,
            ];
            compose(&rz, &compose(&ry, &rx))
        }
    }
}

/// `a ∘ b`: apply `b` first.
fn compose(a: &Affine, b: &Affine) -> Affine {
    let mut out = [0.0; 12];
    for i in 0..3 {
        for j in 0..4 {
            let mut v = if j == 3 { a[i * 4 + 3] } else { 0.0 };
            for k in 0..3 {
                v += a[i * 4 + k] * b[k * 4 + j];
            }
            out[i * 4 + j] = v;
        }
    }
    out
}

/// Compares normal forms: numbers agree when they differ by at most
/// `tol` × (1 + the larger magnitude), so the tolerance scales with the
/// coordinates a composed matrix accumulates.
#[derive(Debug, Clone, Copy)]
pub struct Comparator {
    tol: f64,
}

impl Comparator {
    /// The tolerance for a synthesizer run at solver tolerance `eps` on
    /// inputs jittered by at most `noise`: a fitted value may sit `eps`
    /// from the (noisy) input it replaces, and snapping a fit to a round
    /// value may move it by the noise amplitude again. A factor of two
    /// on each covers rounding in composed matrices.
    pub fn new(eps: f64, noise: f64) -> Self {
        Comparator {
            tol: 2.0 * (eps + noise),
        }
    }

    fn close(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.tol * (1.0 + a.abs().max(b.abs()))
    }

    /// Whether two normal forms describe the same solid.
    pub fn same(&self, a: &Normal, b: &Normal) -> bool {
        match (a, b) {
            (Normal::Leaf(pa, ma), Normal::Leaf(pb, mb)) => {
                pa == pb && ma.iter().zip(mb).all(|(x, y)| self.close(*x, *y))
            }
            (Normal::Union(xs), Normal::Union(ys)) | (Normal::Inter(xs), Normal::Inter(ys)) => {
                self.same_multiset(xs, ys)
            }
            (Normal::Diff(xa, xs), Normal::Diff(ya, ys)) => {
                self.same(xa, ya) && self.same_multiset(xs, ys)
            }
            _ => false,
        }
    }

    /// Whether a perfect matching pairs every item of `xs` with an equal
    /// item of `ys`. The common case, both in the same order, is checked
    /// first; otherwise a bipartite matching (augmenting paths) decides.
    fn same_multiset(&self, xs: &[Normal], ys: &[Normal]) -> bool {
        if xs.len() != ys.len() {
            return false;
        }
        if xs.iter().zip(ys).all(|(x, y)| self.same(x, y)) {
            return true;
        }
        let n = xs.len();
        let edges: Vec<Vec<usize>> = xs
            .iter()
            .map(|x| (0..n).filter(|&j| self.same(x, &ys[j])).collect())
            .collect();
        let mut owner: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            let mut seen = vec![false; n];
            if !augment(i, &edges, &mut owner, &mut seen) {
                return false;
            }
        }
        true
    }
}

fn augment(i: usize, edges: &[Vec<usize>], owner: &mut [Option<usize>], seen: &mut [bool]) -> bool {
    for &j in &edges[i] {
        if seen[j] {
            continue;
        }
        seen[j] = true;
        if owner[j].is_none_or(|k| augment(k, edges, owner, seen)) {
            owner[j] = Some(i);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nf(s: &str) -> Normal {
        normalize(&s.parse::<Cad>().expect("test input parses")).expect("flat")
    }

    fn same(a: &str, b: &str) -> bool {
        Comparator::new(1e-3, 0.0005).same(&nf(a), &nf(b))
    }

    const ROW: &str = "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Sphere) \
                       (Translate 6 0 0 Unit)))";

    #[test]
    fn accepts_reordered_and_renested_unions() {
        assert!(same(
            ROW,
            "(Union (Union (Translate 6 0 0 Unit) (Translate 2 0 0 Unit)) (Translate 4 0 0 Sphere))"
        ));
    }

    #[test]
    fn accepts_transforms_lifted_over_a_union() {
        assert!(same(
            "(Union (Translate 1 0 0 (Scale 2 2 2 Unit)) (Translate 1 0 0 (Scale 2 2 2 Sphere)))",
            "(Translate 1 0 0 (Scale 2 2 2 (Union Sphere Unit)))"
        ));
    }

    #[test]
    fn accepts_rotate_translate_exchange() {
        // rotate_z(90) ∘ translate(1,0,0) = translate(0,1,0) ∘ rotate_z(90)
        assert!(same(
            "(Rotate 0 0 90 (Translate 1 0 0 Unit))",
            "(Translate 0 1 0 (Rotate 0 0 90 Unit))"
        ));
    }

    #[test]
    fn accepts_values_within_tolerance() {
        assert!(same(
            ROW,
            "(Union (Translate 2.0005 0 0 Unit) (Union (Translate 4 0.0004 0 Sphere) \
             (Translate 6.001 0 0 Unit)))"
        ));
    }

    #[test]
    fn rejects_a_moved_primitive() {
        assert!(!same(
            ROW,
            "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Sphere) \
             (Translate 6.5 0 0 Unit)))"
        ));
        assert!(!same(
            ROW,
            "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0.05 0 Sphere) \
             (Translate 6 0 0 Unit)))"
        ));
    }

    #[test]
    fn rejects_a_dropped_or_duplicated_primitive() {
        assert!(!same(
            ROW,
            "(Union (Translate 2 0 0 Unit) (Translate 4 0 0 Sphere))"
        ));
        assert!(!same(
            ROW,
            "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Sphere) \
             (Union (Translate 6 0 0 Unit) (Translate 6 0 0 Unit))))"
        ));
    }

    #[test]
    fn rejects_a_swapped_primitive_kind() {
        assert!(!same(
            ROW,
            "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) \
             (Translate 6 0 0 Sphere)))"
        ));
    }

    #[test]
    fn differences_keep_the_minuend_but_not_the_subtrahend_order() {
        let plate = "(Diff (Diff (Scale 10 10 1 Unit) (Translate 2 2 0 Cylinder)) \
                     (Translate 5 5 0 Cylinder))";
        assert!(same(
            plate,
            "(Diff (Scale 10 10 1 Unit) (Union (Translate 5 5 0 Cylinder) \
             (Translate 2 2 0 Cylinder)))"
        ));
        assert!(!same(
            plate,
            "(Diff (Translate 2 2 0 Cylinder) (Union (Scale 10 10 1 Unit) \
             (Translate 5 5 0 Cylinder)))"
        ));
    }

    #[test]
    fn matching_is_not_greedy() {
        // At this tolerance 2.0008 matches both 2 and 2.0016, but 2 does
        // not match 2.0016: taking the first fit for 2.0008 strands 2.
        let cmp = Comparator { tol: 3.4e-4 };
        assert!(cmp.same(
            &nf("(Union (Translate 2.0008 0 0 Unit) (Translate 2 0 0 Unit))"),
            &nf("(Union (Translate 2 0 0 Unit) (Translate 2.0016 0 0 Unit))")
        ));
    }

    #[test]
    fn empty_operands_vanish() {
        assert!(same("(Union Empty (Diff Unit Empty))", "Unit"));
        assert!(same("(Inter Unit Empty)", "Empty"));
    }

    #[test]
    fn rejects_non_flat_input() {
        let looped: Cad = "(Fold Union Empty (Repeat Unit 3))"
            .parse()
            .expect("parses");
        assert!(normalize(&looped).is_err());
    }
}
